"""Fixed-point solution of the Euler-Lagrange system and the family fit.

The iteration f <- [T((Pf)^(q-1))]^(1/(p-1)), q = np/(n-1), renormalized
each step, is the nonlinear power method for the p -> q norm of P (Boyd,
Linear Algebra Appl. 9, 1974; Higham, Numer. Math. 62, 1992).  For an exact
adjoint pair Hoelder's inequality makes its Rayleigh quotient |Pf|_q / |f|_p
nondecreasing; here that holds only up to quadrature, since T is the
kernel-symmetric row rule rather than the transpose of the discrete P, the
gauge interpolates, and the quotient reads the polar half-space rule.  The
gauge scales each iterate to unit L^p norm and dilates it so that the
log-mean radius exp<log r> of its L^p mass is 1, placing it on its
dilation orbit as the existence theory does to restore compactness; for a
bubble of either family at its critical p that radius is lambda, as the
half-mass radius is.  The solve returns the last iterate it measured times
its ``calibrate`` amplitude.  No convergence theorem backs the iteration;
divergence is detected and reported with the trace.

An ascent's live starts are the columns of one batch (``grids.stack``), so
a round reads the stack once and does the bookkeeping once for them all:
norms, tail fits, the log-mean radii (one weighted sum), one ``pchip`` and
the dilation.  The batch contract: a column takes its solo run's
iterations, and its sides, gauge factors, residuals and Rayleigh quotients
agree with that run's to 1e-7 (the float32 loop's sgemm sums in another
order than a sgemv); runs repeat bit for bit.

The module also hosts the symmetry classification: the one family fit,
which decides whether a radial profile is a bubble A (lam/(lam^2+r^2))^e of
either closed-form family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, SolverDivergence
# kept importable as halfext.solver.poisson_extend, a name bench/ reads; the
# loop reads the stack through extremals.el_sides_batch
from .extension import poisson_extend  # noqa: F401
from .extremals import (ExtremalSpec, calibrate, el_sides_batch,
                        extremal_profile, or_divergence, rayleigh_quotient)
from .grids import (HalfspaceGrid, RadialFn, RadialGrid, dilate_boundary,
                    lp_norm_boundary, mesh_n, stack, write_csv)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int
    tol_residual: float

    def __post_init__(self):
        if not (self.max_iters >= 1 and self.tol_residual > 0.0):
            raise DomainError("max_iters and tol_residual must be positive")


class IterationTrace:
    """Residual, Rayleigh quotient and gauge factor per EL iteration."""

    def __init__(self):
        self.residuals, self.rayleighs, self.lambdas = [], [], []
        self.converged, self.message = False, ""

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


def concentration_radius(f: RadialFn, p: float):
    """Log-mean radius exp<log r> of the L^p mass |f|^p r^(d-1) dr.

    One weighted sum on the mesh's own rule, over the |f|^p of the L^p
    norm.  R is dilation-equivariant, and it is lambda for either bubble
    family at its critical p: that mass is invariant under r -> lambda^2/r.
    The name predates the log-mean gauge and stays for bench/tracing.py.
    A batch gets one R per column; zero or non-finite mass is DomainError.
    """
    density = np.abs(f.values) ** p
    total = f.grid.weights @ density
    if np.any(total <= 0.0) or not np.all(np.isfinite(total)):
        raise DomainError("mass profile is degenerate; cannot fix the gauge")
    return np.exp((f.grid.weights * np.log(f.grid.nodes)) @ density / total)


def normalize_mass_half(f: RadialFn, p: float):
    """Dilation factor lambda putting the log-mean radius of f's L^p mass
    (``concentration_radius``) at 1.

    Returns (lambda, dilated function); the input is L^p-normalized first.
    A batch gets each column's lambda and samples as alone, to roundoff.
    The name predates the log-mean gauge and stays for bench/tracing.py.
    """
    norm = lp_norm_boundary(f, p)
    if np.any(norm <= 0.0):
        raise DomainError("cannot normalize the zero function")
    fn = f.scaled(1.0 / norm)
    lam = 1.0 / concentration_radius(fn, p)
    return lam, dilate_boundary(fn, lam, p)


def _el_solves(n: int, p: float, inits, cfg: SolverConfig,
               hs_grid: HalfspaceGrid) -> list:
    """``el_fixed_point`` from each start of ``inits``, in lockstep: the live
    starts are the columns of one batch, with one ``el_sides_batch``,
    ``rayleigh_quotient`` and ``normalize_mass_half`` a round for them all;
    a start leaves when it converges, diverges or reaches max_iters.
    Returns per start (solution, trace) or the SolverDivergence it ends
    with."""
    out = [None] * len(inits)
    traces = [IterationTrace() for _ in inits]
    live = list(range(len(inits)))      # the start of each batch column
    lam, f = normalize_mass_half(stack(inits), p)
    while live:
        lams = np.broadcast_to(lam, (len(live),))
        fs = [f.column(j) for j in range(len(live))]
        batch = el_sides_batch(fs, p, hs_grid)
        found = [j for j, sides in enumerate(batch)
                 if not isinstance(sides, DivergenceError)]
        try:        # the quotients of the columns with sides, together
            quotients = np.atleast_1d(rayleigh_quotient(
                f if len(found) == len(fs) else stack([fs[j] for j in found]),
                n, p, hs_grid)) if found else []
        except DivergenceError:         # some column's tail: each alone
            quotients = [or_divergence(rayleigh_quotient, fs[j], n, p,
                                       hs_grid) for j in found]
        quotients = dict(zip(found, quotients))
        going, powers = [], []
        for j, (i, sides) in enumerate(zip(live, batch)):
            trace, lam_j = traces[i], float(lams[j])
            residual = rayleigh = math.nan
            try:
                if isinstance(sides, DivergenceError):
                    raise sides
                lhs, rhs = sides
                a, residual = calibrate(n, p, lhs, rhs)
                if isinstance(quotients[j], DivergenceError):
                    raise quotients[j]
                rayleigh = float(quotients[j])
            except DivergenceError as exc:
                # the failed iterate's row, NaN where it stopped short
                trace.append(residual, rayleigh, lam_j)
                trace.message = f"divergent iterate: {exc}"
                out[i] = SolverDivergence(trace.message, trace)
                out[i].__cause__ = exc
                continue
            trace.append(residual, rayleigh, lam_j)
            if residual <= cfg.tol_residual:
                trace.converged = True
                trace.message = f"residual {residual:.3e} <= tol"
            elif len(trace) >= 50 and residual > 10.0 * trace.residuals[-50]:
                trace.message = "residual grew 10x over 50 iterations"
                out[i] = SolverDivergence(trace.message, trace)
                continue
            elif len(trace) == cfg.max_iters:
                trace.message = f"no convergence in {cfg.max_iters} iterations"
            else:
                going.append(i)
                powers.append(rhs)
                continue
            out[i] = fs[j].scaled(a), trace
        live = going
        if live:
            # no declared tail: the start's (a Gaussian's is inf) is not
            # the iterate's, so the tail fit decides
            rhs = powers[0] if len(powers) == 1 else np.stack(powers, axis=-1)
            lam, f = normalize_mass_half(RadialFn(
                f.grid, rhs ** (1.0 / (p - 1.0)), nonnegative=True), p)
    return out


def el_fixed_point(n: int, p: float, init: RadialFn, cfg: SolverConfig,
                   hs_grid: HalfspaceGrid):
    """Euler-Lagrange solve by the power method for the p -> q norm of P.

    Returns (solution, trace).  The solution is the trace's last iterate
    times its calibration amplitude: it solves the unit-coefficient system
    to within the last residual, converged or not.  The trace's Rayleigh
    quotients read the polar half-space rule.  Raises SolverDivergence
    (trace attached) when the residual grows tenfold over 50 iterations or
    an iterate diverges; a divergent iterate gets its own trace row, NaN
    for what it could not compute.  n = hs_grid.n (checked first).
    """
    n = mesh_n(n, hs_grid.radial)
    result, = _el_solves(n, p, [init], cfg, hs_grid)
    if isinstance(result, SolverDivergence):
        raise result
    return result


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
    drawn with ``seed``, all solved together by ``_el_solves``.  Raises
    SolverDivergence, with the last trial's trace, when no trial records a
    finite quotient."""
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = np.random.default_rng(seed)
    inits = [initial_profiles(hs_grid.radial, rng) for _ in range(trials)]
    best = -math.inf
    for result in _el_solves(hs_grid.n, p, inits, cfg, hs_grid):
        trace = result.trace if isinstance(result, SolverDivergence) \
            else result[1]
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
    The window ends at the mesh's last node in it, so the error moves with
    the mesh: r <= 10 ends at r = 5.8, 8.1 and 9.5 for N = 17, 48 and 160.
    The shapes are ``ExtremalSpec.profile`` at n = f.grid.d + 1; another n
    or an unknown ``kind`` is DomainError.  lam is searched in [e^-3, e^3]
    only (the log-mean gauge puts members near lam = 1); a lam on its edge
    makes the error an upper bound on the family's misfit: an exact dual
    member with lam = 25 comes back as lam = e^3 with error 0.051, and the
    conformal fit of the n = 3 EL solutions at p = 4/3 and 1.6 lands on e^-3.
    """
    n = mesh_n(n, f.grid)
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
