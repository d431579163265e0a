"""Fixed-point solution of the Euler-Lagrange system and symmetry classifiers.

The iteration f <- [T((Pf)^(q-1))]^(1/(p-1)), q = np/(n-1), renormalized
each step, is the nonlinear power method for the p -> q norm of P (Boyd,
Linear Algebra Appl. 9, 1974; Higham, Numer. Math. 62, 1992).  For an exact
adjoint pair Hoelder's inequality makes its Rayleigh quotient |Pf|_q / |f|_p
nondecreasing; here that holds only up to quadrature, since T is the
kernel-symmetric row rule rather than the transpose of the discrete P, the
gauge interpolates, and the quotient reads the polar half-space rule.  The
gauge scales each iterate to unit L^p norm and dilates it so that half of
its L^p mass sits inside the unit ball, as the existence theory does to
restore compactness.  The solve returns the last iterate it measured times
its ``calibrate`` amplitude.  No convergence theorem backs the iteration;
divergence is detected and reported with the trace.

The module also hosts the inversion-symmetry machinery: a scan for the
center that makes a planar field radial, the least-squares classifier for
profiles of the form (c1 r^2 + c2)^(alpha/2) versus pure powers c1 r^alpha,
and the one-dimensional third-difference test for [a(x-x0)^2+b]^(alpha/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError, SolverDivergence
# kept importable as halfext.solver.poisson_extend; the loop reaches it
# through the Euler-Lagrange helpers of extremals
from .extension import poisson_extend  # noqa: F401
from .extremals import (ExtremalSpec, calibrate, el_sides, extremal_profile,
                        rayleigh_quotient)
from .grids import (HalfspaceGrid, PolarFn, RadialFn, RadialGrid,
                    dilate_boundary, lp_norm_boundary, write_csv)
from .quadrature import panel_rule


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int
    tol_residual: float

    def __post_init__(self):
        if not (self.max_iters >= 1 and self.tol_residual > 0.0):
            raise DomainError("max_iters and tol_residual must be positive")


@dataclass
class IterationTrace:
    residuals: list = field(default_factory=list)
    rayleighs: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    converged: bool = False
    message: str = ""

    def append(self, residual: float, rayleigh: float, lam: float) -> None:
        self.residuals.append(residual)
        self.rayleighs.append(rayleigh)
        self.lambdas.append(lam)

    def __len__(self) -> int:
        return len(self.residuals)

    def to_csv(self, path) -> None:
        write_csv(path, ["iter", "residual", "rayleigh", "lambda"],
                  range(len(self)), self.residuals, self.rayleighs,
                  self.lambdas)


def _cell_masses(f: RadialFn, p: float, a, b) -> np.ndarray:
    """8-point Gauss integrals of |f|^p r^(d-1) over [a, b], one per pair."""
    xs, ws = panel_rule(np.asarray(a)[..., None], np.asarray(b)[..., None], 8)
    vals = np.abs(f.eval(xs)) ** p * xs ** (f.grid.d - 1)
    return (ws * vals).sum(axis=-1)


def concentration_radius(f: RadialFn, p: float) -> float:
    """Radius R of the ball B_R holding half the mass of |f|^p.

    The mass profile is accumulated from per-cell Gauss panels of the sample
    interpolant, all cells in one evaluation, making partial masses
    consistent with the total used here.  R is then found to 1e-12 by
    safeguarded Newton steps inside the one cell where the cumulative mass
    crosses the target.
    """
    grid = f.grid
    edges = np.concatenate(([0.0], grid.nodes))
    cum = np.concatenate(([0.0], np.cumsum(
        _cell_masses(f, p, edges[:-1], edges[1:]))))
    total = cum[-1]
    if total <= 0.0 or not math.isfinite(total):
        raise DomainError("mass profile is degenerate; cannot fix the gauge")
    target = 0.5 * total
    # cum[i] < target <= cum[i + 1]: the crossing cell is [edges[i], edges[i+1]]
    i = int(np.searchsorted(cum, target)) - 1
    if i == 0:
        return float(grid.nodes[0] * (target / cum[1]) ** (1.0 / grid.d))
    # Newton on the mass derivative |f(R)|^p R^(d-1); a step that leaves
    # the bracket [a, b] of the root bisects it instead
    a, b = edges[i], edges[i + 1]
    R, step = 0.5 * (a + b), math.inf
    while abs(step) > 1e-12 * (1.0 + R):
        excess = cum[i] + float(_cell_masses(f, p, edges[i], R)) - target
        a, b = (a, R) if excess > 0.0 else (R, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = R - excess / (abs(f.eval(R)) ** p * R ** (grid.d - 1))
        step = (newton if a <= newton <= b else 0.5 * (a + b)) - R
        R += step
    return float(R)


def normalize_mass_half(f: RadialFn, p: float):
    """Dilation factor lambda putting half the L^p mass of f in B_1.

    Returns (lambda, dilated function); the input is L^p-normalized first.
    """
    norm = lp_norm_boundary(f, p)
    if norm <= 0.0:
        raise DomainError("cannot normalize the zero function")
    fn = f.scaled(1.0 / norm)
    R_half = concentration_radius(fn, p)
    lam = 1.0 / R_half
    return lam, dilate_boundary(fn, lam, p)


def el_fixed_point(n: int, p: float, init: RadialFn, cfg: SolverConfig,
                   hs_grid: HalfspaceGrid):
    """Euler-Lagrange solve by the power method for the p -> q norm of P.

    Returns (solution, trace).  The solution is the trace's last iterate
    times its calibration amplitude: it solves the unit-coefficient system
    to within the last residual, converged or not.  The trace's Rayleigh
    quotients read the polar half-space rule.  Raises SolverDivergence
    (trace attached) when the residual grows tenfold over 50 iterations or
    an iterate diverges; a divergent iterate gets its own trace row, NaN
    for what it could not compute.
    """
    if np.any(init.values < 0.0) or not np.any(init.values > 0.0):
        raise DomainError("initial guess must be nonnegative and nonzero")
    trace = IterationTrace()
    lam, f = normalize_mass_half(init, p)
    while True:
        residual = rayleigh = math.nan
        try:
            lhs, rhs = el_sides(f, p, hs_grid)
            a, residual = calibrate(n, p, lhs, rhs)
            rayleigh = rayleigh_quotient(f, n, p, hs_grid)
        except DivergenceError as exc:
            # the failed iterate's row, NaN where it stopped short
            trace.append(residual, rayleigh, lam)
            trace.message = f"divergent iterate: {exc}"
            raise SolverDivergence(trace.message, trace) from exc
        trace.append(residual, rayleigh, lam)
        if residual <= cfg.tol_residual:
            trace.converged = True
            trace.message = f"residual {residual:.3e} <= tol"
            break
        if len(trace) >= 50 and residual > 10.0 * trace.residuals[-50]:
            trace.message = "residual grew 10x over 50 iterations"
            raise SolverDivergence(trace.message, trace)
        if len(trace) == cfg.max_iters:
            trace.message = f"no convergence in {cfg.max_iters} iterations"
            break
        update = np.maximum(rhs, 0.0) ** (1.0 / (p - 1.0))
        # no declared tail: the start's (a Gaussian's is inf) is not the
        # iterate's, so the tail fit decides
        f = RadialFn(f.grid, update, nonnegative=True)
        lam, f = normalize_mass_half(f, p)
    return f.scaled(a), trace


def start_profile(grid: RadialGrid, kind: str, amp: float,
                  width: float) -> RadialFn:
    """An EL start: "gaussian", compact "bump", or the extremal of the
    "conformal" or "dual" family on R^(grid.d + 1)_+ with lambda = width;
    the menu of --init."""
    if kind in ("conformal", "dual"):
        spec = ExtremalSpec(grid.d + 1, kind, width, amplitude=amp)
        return extremal_profile(spec, grid)
    r = grid.nodes
    if kind == "gaussian":
        vals = amp * np.exp(-(r / width) ** 2)
    elif kind == "bump":
        vals = amp * np.maximum(1.0 - (r / (2.0 * width)) ** 2, 0.0) ** 2
    else:
        raise DomainError(f"unknown start profile {kind!r}; use gaussian, "
                          "bump, conformal or dual")
    return RadialFn(grid, vals, value_at_zero=amp, tail_exponent=math.inf,
                    nonnegative=True)


def initial_profiles(grid: RadialGrid, rng: np.random.Generator):
    """A random gaussian, bump or dual start from ``start_profile``."""
    amp = float(rng.uniform(0.5, 2.0))
    width = float(rng.uniform(0.7, 1.8))
    kind = ("gaussian", "bump", "dual")[rng.integers(0, 3)]
    return start_profile(grid, kind, amp, width)


def ascent_estimate_constant(p: float, trials: int, seed: int,
                             cfg: SolverConfig,
                             hs_grid: HalfspaceGrid) -> float:
    """Lower-bound estimate of the sharp constant on R^n_+, n = hs_grid.n:
    max Rayleigh quotient along fixed-point trajectories from random starts
    drawn with ``seed``.  Raises SolverDivergence, with the last trial's
    trace, when no trial records a finite quotient."""
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(trials):
        init = initial_profiles(hs_grid.radial, rng)
        try:
            _, trace = el_fixed_point(hs_grid.n, p, init, cfg, hs_grid)
        except SolverDivergence as exc:
            trace = exc.trace
        best = max([best, *filter(math.isfinite, trace.rayleighs)])
    if not math.isfinite(best):
        raise SolverDivergence(f"all {trials} trials diverged", trace)
    return float(best)


def _golden_min(fun, lo: float, hi: float, xatol: float) -> float:
    """A minimizer of fun on [lo, hi] by golden-section search, to xatol."""
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd, c = d, c, fc, d - g * (d - lo)
            fc = fun(c)
        else:
            lo, c, fc, d = c, d, fd, c + g * (hi - c)
            fd = fun(d)
    return 0.5 * (lo + hi)


def match_extremal_family(f: RadialFn, n: int, kind: str,
                          r_window: float):
    """Fit (lambda, amplitude) of the closed-form family to a radial profile.

    Returns (lam, amplitude, sup relative error over nodes with r <= window).
    The shapes are ``ExtremalSpec.profile``; an unknown ``kind`` raises
    DomainError.
    """
    sel = f.grid.nodes <= r_window
    r = f.grid.nodes[sel]
    y = f.values[sel]
    if np.any(y <= 0.0):
        raise DomainError("profile must be positive on the fit window")

    def best_amp(lam: float):
        # minimax amplitude for multiplicative deviation: geometric midrange
        shape = ExtremalSpec(n, kind, lam).profile(r)
        ratio = y / shape
        amp = math.sqrt(float(np.min(ratio)) * float(np.max(ratio)))
        err = float(np.max(np.abs(ratio / amp - 1.0)))
        return amp, err

    lam = math.exp(_golden_min(lambda ll: best_amp(math.exp(ll))[1],
                               -3.0, 3.0, 1e-12))
    amp, err = best_amp(lam)
    return lam, amp, err


def radial_about_point(v: PolarFn, tol: float):
    """Center a*e_1 minimizing the angular variation of v, or None.

    The center search scans 81 points of the symmetry axis, -2 <= a <= 2 (a
    planar reflection argument pins the second coordinate to zero).  Returns
    the center as a length-2 array when the minimized relative angular
    deviation is <= tol.
    """
    radial = v.grid.radial
    ring_mean = np.mean(np.abs(v.values), axis=1)
    vmax = float(np.max(ring_mean))
    good = ring_mean >= 1e-5 * vmax
    r_lo = max(float(radial.nodes[good][0]) * 4.0, 1e-3)
    r_hi = float(radial.nodes[good][-1])
    # probe circles about any center |a| <= 2 stay inside the mesh
    r_hi = min(r_hi / 2.0, r_hi - 4.0)
    if r_hi <= r_lo:
        raise DomainError("polar mesh too small for a center scan")
    probes = np.geomspace(r_lo, r_hi, 12)
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def deviation(a: float) -> float:
        total = 0.0
        for rho in probes:
            w = v.eval_xy(a + rho * np.cos(phis), rho * np.sin(phis))
            mean = float(np.mean(np.abs(w)))
            if mean <= 0.0:
                continue
            total = max(total, float(np.std(w)) / mean)
        return total

    grid_a = np.linspace(-2.0, 2.0, 81)
    devs = [deviation(a) for a in grid_a]
    i = int(np.argmin(devs))
    lo = grid_a[max(i - 1, 0)]
    hi = grid_a[min(i + 1, grid_a.size - 1)]
    a = _golden_min(deviation, lo, hi, 1e-10)
    return np.array([a, 0.0]) if deviation(a) <= tol else None


@dataclass(frozen=True)
class ClassifyResult:
    kind: str            # "quadratic_power", "pure_power", or "none"
    c1: float = math.nan
    c2: float = math.nan


FIT_TOL = 1e-6


def classify_inverted_radial(u: RadialFn, alpha: float) -> ClassifyResult:
    """Decide whether u is (c1 r^2 + c2)^(alpha/2), c1 r^alpha, or neither.

    u^(2/alpha) is fit to the linear model c1 r^2 + c2 by least squares with
    relative weights; membership requires pointwise relative fit residual
    <= FIT_TOL.  Pure powers are recognized by the intercept-free fit
    passing the same residual test (exact members have c2 = 0).
    """
    if alpha == 0.0:
        raise DomainError("alpha = 0 is a degenerate case, not classified")
    if np.any(u.values <= 0.0):
        raise DomainError("classification needs strictly positive samples")
    r2 = u.grid.nodes ** 2
    y = np.exp((2.0 / alpha) * np.log(u.values))
    w = 1.0 / y
    A = np.stack([r2 * w, np.ones_like(r2) * w], axis=1)
    coef, *_ = np.linalg.lstsq(A, y * w, rcond=None)
    c1, c2 = float(coef[0]), float(coef[1])
    fit = c1 * r2 + c2
    ok_two = np.all(fit > 0.0) and float(np.max(np.abs(y - fit) / y)) <= FIT_TOL
    a_vec = r2 * w
    c1_pow = float(np.dot(a_vec, y * w) / np.dot(a_vec, a_vec))
    fit_pow = c1_pow * r2
    ok_pow = c1_pow > 0.0 and float(np.max(np.abs(y - fit_pow) / y)) <= FIT_TOL
    if ok_pow:
        return ClassifyResult("pure_power", c1_pow ** (0.5 * alpha))
    if ok_two and c2 > 0.0 and c1 >= -FIT_TOL * abs(c2):
        return ClassifyResult("quadratic_power", max(c1, 0.0), c2)
    return ClassifyResult("none")


def ode_check_1d(x, u, alpha: float) -> float:
    """Max |third difference of u^(2/alpha)| / (2h^3) on a uniform mesh.

    Vanishes (to roundoff amplified by h^-3) exactly on the family
    [a(x-x0)^2 + b]^(alpha/2); at least 7 samples required.
    """
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.size < 7 or x.shape != u.shape:
        raise DomainError("need >= 7 samples on a common mesh")
    h = x[1] - x[0]
    if h <= 0.0 or np.max(np.abs(np.diff(x) - h)) > 1e-9 * abs(h):
        raise DomainError("samples must be uniformly spaced")
    if np.any(u <= 0.0):
        raise DomainError("samples must be strictly positive")
    y = np.exp((2.0 / alpha) * np.log(u))
    third = y[4:] - 2.0 * y[3:-1] + 2.0 * y[1:-3] - y[:-4]
    return float(np.max(np.abs(third)) / (2.0 * h ** 3))
