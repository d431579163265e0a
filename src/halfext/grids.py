"""Quadrature meshes and norms for radial / axisymmetric functions.

A RadialGrid holds Gauss nodes r_1 < ... < r_N on (0, inf) together with
weights that already include the surface Jacobian r^(d-1), so that

    integral_0^inf g(r) r^(d-1) dr  ~=  sum_i weights_i * g(r_i).

Two node mappings are supported: ``tan`` (r = scale*tan(theta); every mesh
the experiments build, because power-law tails become smooth on the mapped
interval and the scale-1 node set is exactly closed under r -> 1/r) and
``linear`` (Gauss nodes on the bounded interval (0, scale), built only by
tests).

Boundary functions of |xi| live in RadialFn, axisymmetric half-space
functions u(|x'|, x_n) in AxisymFn on a product HalfspaceGrid, and non-radial
planar functions in PolarFn on a radius x angle mesh.  L^p norms carry
divergence guards driven by the declared tail exponent of the data and by an
empirical log-log fit over the outermost decade of samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator, RectBivariateSpline

from .errors import DivergenceError, DomainError
from .kernel import sphere_area
from .quadrature import half_line_rule, panel_rule

_TAIL_FIT_MIN_POINTS = 6
# nodes of the polar half-space rule: rho (tan map) and phi (Gauss-Legendre)
POLAR_RHO, POLAR_PHI = 64, 16


@dataclass(eq=False)
class RadialGrid:
    """Quadrature mesh for radial functions on R^d (d = n-1 for boundaries)."""

    d: int
    nodes: np.ndarray
    weights: np.ndarray          # include the r^(d-1) Jacobian
    r_max: float
    mapping: str = "tan"
    scale: float = 1.0

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.d < 1:
            raise DomainError(f"grid dimension must be >= 1, got {self.d}")
        if self.nodes.size < 16:
            raise DomainError("radial grids need at least 16 nodes")
        if np.any(np.diff(self.nodes) <= 0.0) or self.nodes[0] <= 0.0:
            raise DomainError("nodes must be strictly increasing and positive")
        if np.any(self.weights < 0.0):
            raise DomainError("weights must be nonnegative")
        if self.mapping not in ("tan", "linear"):
            raise DomainError(f"unknown mapping {self.mapping!r}")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def sphere(self) -> float:
        """Surface measure of S^(d-1), recomputed from d on every access."""
        return sphere_area(self.d)

    def parameter(self, r):
        """Monotone parameter coordinate used for interpolation stencils."""
        r = np.asarray(r, dtype=float)
        if self.mapping == "tan":
            return np.arctan(r / self.scale)
        return r / self.scale

    def local_spacing(self, r):
        """Approximate node spacing of the mesh near radius r."""
        r = np.asarray(r, dtype=float)
        if self.mapping == "tan":
            dtheta = (np.pi / 2.0) / self.size
            return self.scale * dtheta * (1.0 + (r / self.scale) ** 2)
        return np.full_like(r, self.scale / self.size)

    def quad(self, samples) -> float:
        """Apply the grid rule: sum_i w_i * samples_i."""
        return float(np.dot(self.weights, np.asarray(samples, dtype=float)))


def build_radial_grid(d: int, N: int, mapping: str = "tan",
                      scale: float = 1.0) -> RadialGrid:
    """Gauss-Legendre mesh for radial integrals on R^d.

    tan: r = scale*tan(theta), theta in (0, pi/2); linear: r in (0, scale).
    The weights include the r^(d-1) surface Jacobian.
    """
    if d < 1 or int(d) != d:
        raise DomainError(f"dimension d must be a positive integer, got {d}")
    if N < 16:
        raise DomainError(f"need at least 16 nodes, got N={N}")
    if scale <= 0.0:
        raise DomainError(f"scale must be positive, got {scale}")
    if mapping == "tan":
        nodes, dr = half_line_rule(0.0, scale, N)
    else:
        # linear (RadialGrid rejects other names): bounded mesh on [0, scale]
        # with near-uniform cells, for planar convolution work where every
        # cell must resolve the kernel width
        nodes, dr = panel_rule(0.0, scale, N)
    weights = dr * nodes ** (d - 1)
    return RadialGrid(d=d, nodes=nodes, weights=weights, r_max=float(nodes[-1]),
                      mapping=mapping, scale=scale)


def _fit_tail_exponent(nodes: np.ndarray, values: np.ndarray) -> float:
    """Log-log decay slope over the outermost decade of strictly positive samples.

    Returns +inf for (numerically) compactly supported tails, nan if the data
    does not determine a slope.
    """
    r_hi = nodes[-1]
    sel = nodes >= 0.1 * r_hi
    # mapped meshes may put only a couple of nodes in the outer radius
    # decade; widen to the last eighth of the mesh in that case
    if sel.sum() < max(_TAIL_FIT_MIN_POINTS, nodes.size // 8):
        sel = np.arange(nodes.size) >= nodes.size - max(
            _TAIL_FIT_MIN_POINTS, nodes.size // 8)
    v = np.abs(values[sel])
    r = nodes[sel]
    tiny = 1e-300
    good = v > tiny
    if good.sum() < _TAIL_FIT_MIN_POINTS:
        # outer window (numerically) vanishes: effectively compact support
        return math.inf
    slope = np.polyfit(np.log(r[good]), np.log(v[good]), 1)[0]
    return float(-slope)


@dataclass(eq=False)
class RadialFn:
    """Samples of a radial function on a RadialGrid, with tail metadata.

    ``tail_exponent`` is the assumed decay power (f ~ C r^-beta), nan when
    undeclared; it is cross-checked against an empirical fit when norms are
    taken.
    """

    grid: RadialGrid
    values: np.ndarray
    value_at_zero: float = math.nan
    tail_exponent: float = math.nan
    nonnegative: bool = False
    _interp: object = field(default=None, repr=False)
    # None marks an unset fit: the fit itself may return nan
    _fitted: object = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise DomainError("values must match the grid nodes")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")
        if self.nonnegative and np.any(self.values < 0.0):
            raise DomainError("function flagged nonnegative has negative samples")
        if math.isnan(self.value_at_zero):
            # even extension: quadratic in r^2 through the first two nodes
            r1, r2 = self.grid.nodes[:2]
            f1, f2 = self.values[:2]
            self.value_at_zero = float((f1 * r2 ** 2 - f2 * r1 ** 2)
                                       / (r2 ** 2 - r1 ** 2))

    def fitted_tail(self) -> float:
        if self._fitted is None:
            self._fitted = _fit_tail_exponent(self.grid.nodes, self.values)
        return self._fitted

    def tail(self) -> float:
        """The declared tail exponent, else the fitted one."""
        beta = self.tail_exponent
        return self.fitted_tail() if math.isnan(beta) else beta

    def _build_interp(self):
        nodes = self.grid.nodes
        vals = self.values
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if np.all(vals > 0.0) and self.value_at_zero > 0.0:
                logf = PchipInterpolator(np.log(nodes), np.log(vals),
                                         extrapolate=False)
                self._interp = ("log", logf)
            else:
                x = np.concatenate(([0.0], self.grid.parameter(nodes)))
                y = np.concatenate(([self.value_at_zero], vals))
                self._interp = ("lin", PchipInterpolator(x, y,
                                                         extrapolate=False))

    def eval(self, r):
        """Evaluate at arbitrary radii.

        Below the first node: even quadratic through (0, value_at_zero) and the
        first nodes.  Beyond the last node: power-law continuation with the
        declared tail exponent (fitted slope if undeclared).
        """
        if self._interp is None:
            self._build_interp()
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        nodes = self.grid.nodes
        lo = r < nodes[0]
        hi = r > nodes[-1]
        mid = ~(lo | hi)
        kind, f = self._interp
        if kind == "log":
            with np.errstate(divide="ignore"):
                out[mid] = np.exp(f(np.log(r[mid])))
        else:
            out[mid] = f(self.grid.parameter(r[mid]))
        if np.any(lo):
            r1, r2 = nodes[:2]
            f0 = self.value_at_zero
            f1, f2 = self.values[:2]
            # quadratic in r^2 through (0, f0), (r1, f1), (r2, f2)
            a = ((f1 - f0) / r1 ** 2 - (f2 - f0) / r2 ** 2) / (r1 ** 2 - r2 ** 2)
            b = (f1 - f0) / r1 ** 2 - a * r1 ** 2
            out[lo] = f0 + b * r[lo] ** 2 + a * r[lo] ** 4
        if np.any(hi):
            beta = self.tail()
            fN = self.values[-1]
            if fN == 0.0 or math.isinf(beta):
                out[hi] = 0.0
            else:
                out[hi] = fN * (r[hi] / nodes[-1]) ** (-beta)
        return float(out[0]) if scalar else out

    def scaled(self, c: float) -> "RadialFn":
        return RadialFn(self.grid, c * self.values, c * self.value_at_zero,
                        self.tail_exponent, self.nonnegative and c >= 0.0)

    def to_csv(self, path) -> None:
        write_csv(path, ["r", "value"], self.grid.nodes, self.values)


def write_csv(path, header, *columns) -> None:
    """Write columns under a header row, each value as its repr.

    Values go through ``tolist``, so floats are written as Python floats
    (exact round trip) and integers as integers.
    """
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in rows)


def radial_fn_from_csv(grid: RadialGrid, path, **kwargs) -> RadialFn:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    if rows.shape[0] != grid.size or not np.allclose(rows[:, 0], grid.nodes,
                                                     rtol=1e-12, atol=0.0):
        raise DomainError("CSV radii do not match the grid nodes")
    return RadialFn(grid, rows[:, 1], **kwargs)


def sample_radial(grid: RadialGrid, fn, value_at_zero=None,
                  tail_exponent=math.nan, nonnegative=False) -> RadialFn:
    """Sample a callable profile fn(r) onto a grid."""
    vals = np.asarray(fn(grid.nodes), dtype=float)
    f0 = fn(0.0) if value_at_zero is None else value_at_zero
    return RadialFn(grid, vals, float(f0), tail_exponent, nonnegative)


@dataclass(eq=False)
class HalfspaceGrid:
    """Product mesh (|x'| x height) for axisymmetric half-space functions."""

    radial: RadialGrid
    heights: RadialGrid          # d == 1: plain dt weights, tan mapping

    def __post_init__(self):
        if self.heights.d != 1:
            raise DomainError("height grid must have d == 1 (plain dt measure)")

    @property
    def n(self) -> int:
        """Half-space dimension implied by the boundary mesh."""
        return self.radial.d + 1

    def cell_measures(self) -> np.ndarray:
        """Measure of each (r_j, t_k) cell, shape (N_r, N_t)."""
        return self.radial.sphere * np.outer(self.radial.weights,
                                             self.heights.weights)


def polar_halfspace_rule(n: int):
    """(r, t, weights) of a rule for axisymmetric integrals over R^n_+.

    One row per ray phi in (0, pi/2) (Gauss-Legendre), one column per rho on
    the scale-1 tan map: r = rho cos(phi), t = rho sin(phi), weights
    w_rho w_phi rho r^(n-2) |S^(n-2)|.
    """
    rho, w_rho = half_line_rule(0.0, 1.0, POLAR_RHO)
    phi, w_phi = panel_rule(0.0, 0.5 * np.pi, POLAR_PHI)
    r, t = np.outer(np.cos(phi), rho), np.outer(np.sin(phi), rho)
    weights = sphere_area(n - 1) * np.outer(w_phi, w_rho * rho) * r ** (n - 2)
    return r, t, weights


@dataclass(eq=False)
class AxisymFn:
    """Samples u(r_j, t_k) of an axisymmetric half-space function."""

    grid: HalfspaceGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        want = (self.grid.radial.size, self.grid.heights.size)
        if self.values.shape != want:
            raise DomainError(f"values must have shape {want}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")

    def to_csv(self, path) -> None:
        r, t = self.grid.radial.nodes, self.grid.heights.nodes
        write_csv(path, ["r", "t", "value"], np.repeat(r, t.size),
                  np.tile(t, r.size), self.values.ravel())


@dataclass(eq=False)
class PolarGrid:
    """Radius x angle mesh for non-radial planar functions (d = 2 only)."""

    radial: RadialGrid
    n_angles: int

    def __post_init__(self):
        if self.radial.d != 2:
            raise DomainError("polar grids are planar: radial.d must be 2")
        if self.n_angles < 8:
            raise DomainError("need at least 8 angular cells")

    @property
    def angles(self) -> np.ndarray:
        """Uniform midpoint angles on [0, 2*pi)."""
        m = self.n_angles
        return (np.arange(m) + 0.5) * (2.0 * np.pi / m)

    def cell_measures(self) -> np.ndarray:
        """Cell measures dA = w_r * dphi, shape (N_r, n_angles)."""
        dphi = 2.0 * np.pi / self.n_angles
        return np.outer(self.radial.weights, np.full(self.n_angles, dphi))

    def points(self):
        """Cartesian coordinates of all cells, two (N_r, n_angles) arrays."""
        r = self.radial.nodes[:, None]
        phi = self.angles[None, :]
        return r * np.cos(phi), r * np.sin(phi)


@dataclass(eq=False)
class PolarFn:
    """Samples v(r_j, phi_m) on a PolarGrid."""

    grid: PolarGrid
    values: np.ndarray
    _spline: object = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        want = (self.grid.radial.size, self.grid.n_angles)
        if self.values.shape != want:
            raise DomainError(f"values must have shape {want}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("values must be finite")

    def lp_norm(self, p: float) -> float:
        mass = np.sum(self.grid.cell_measures() * np.abs(self.values) ** p)
        return float(mass ** (1.0 / p))

    def _build_spline(self):
        # periodic padding in the angle, then a plain bicubic spline
        pad = 4
        phi = self.grid.angles
        phi_ext = np.concatenate([phi[-pad:] - 2 * np.pi, phi, phi[:pad] + 2 * np.pi])
        vals = np.concatenate([self.values[:, -pad:], self.values,
                               self.values[:, :pad]], axis=1)
        xs = self.grid.radial.parameter(self.grid.radial.nodes)
        self._spline = RectBivariateSpline(xs, phi_ext, vals, kx=3, ky=3)

    def eval_xy(self, x, y):
        """Evaluate at Cartesian points (clamped to the radial mesh range)."""
        if self._spline is None:
            self._build_spline()
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rho = np.hypot(x, y)
        phi = np.mod(np.arctan2(y, x), 2.0 * np.pi)
        rho = np.clip(rho, self.grid.radial.nodes[0], self.grid.radial.r_max)
        return self._spline.ev(self.grid.radial.parameter(rho), phi)


def lp_norm_boundary(f: RadialFn, p: float) -> float:
    """L^p(R^d) norm of a radial boundary function by grid quadrature.

    The tan-mapped Gauss rule integrates the full half-line, so no additive
    tail term is applied; the declared/fitted tail exponents only gate
    divergence: the slower of the two must give p * beta > d.  Requires the
    estimated truncation remainder to stay below 1% of the truncated integral.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    d = f.grid.d
    beta = min(f.tail(), f.fitted_tail())
    # small slack absorbs fit noise on exactly-critical tails
    if p * beta <= d + 1e-6:
        raise DivergenceError(
            f"L^{p} norm divergent: tail exponent {beta:.4g} gives "
            f"p*beta = {p * beta:.4g} <= d = {d}")
    total = f.grid.quad(np.abs(f.values) ** p)
    if not math.isinf(beta):
        r_hi = f.grid.r_max
        tail = abs(f.values[-1]) ** p * r_hi ** d / (p * beta - d)
        if total > 0.0 and tail > 0.01 * total:
            raise DomainError(
                "truncation tail exceeds 1% of the integral; decay too slow "
                "for this mesh")
    return float((f.grid.sphere * total) ** (1.0 / p))


def lp_norm_halfspace(u: AxisymFn, p: float) -> float:
    """L^p(R^n_+) norm of an axisymmetric function by product quadrature."""
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    absu = np.abs(u.values) ** p
    cells = u.grid.cell_measures()
    total = float(np.sum(cells * absu))
    if total > 0.0:
        # divergence guard: outermost radial/height decades must be negligible
        r = u.grid.radial.nodes
        t = u.grid.heights.nodes
        outer_r = float(np.sum((cells * absu)[r >= 0.1 * r[-1], :]))
        outer_t = float(np.sum((cells * absu)[:, t >= 0.1 * t[-1]]))
        if outer_r > 0.01 * total or outer_t > 0.01 * total:
            raise DivergenceError(
                "outermost decade carries >1% of the integral; "
                f"L^{p} mass does not decay on this mesh")
    return float(total ** (1.0 / p))


def dilate_boundary(f: RadialFn, lam: float, p: float) -> RadialFn:
    """The L^p-preserving dilation f -> lam^(-d/p) f(./lam) on the same mesh."""
    if lam <= 0.0:
        raise DomainError(f"dilation factor must be positive, got {lam}")
    d = f.grid.d
    c = lam ** (-d / p)
    vals = c * f.eval(f.grid.nodes / lam)
    return RadialFn(f.grid, vals, value_at_zero=c * f.value_at_zero,
                    tail_exponent=f.tail_exponent, nonnegative=f.nonnegative)


def default_halfspace_grid(boundary: RadialGrid) -> HalfspaceGrid:
    """Half-space mesh on a boundary grid's radial factor and max(48, 3N/5)
    heights, the one height rule.  Each call builds a new height mesh;
    operators are cached by mesh content, so equal meshes share one."""
    N_t = max(48, (3 * boundary.size) // 5)
    return HalfspaceGrid(boundary, build_radial_grid(1, N_t))


def distribution_mass(u, level: float) -> float:
    """Measure of the superlevel set {x : u(x) > level} by cell quadrature,
    for any samples whose grid has ``cell_measures()`` (AxisymFn, PolarFn)."""
    if level <= 0.0:
        raise DomainError(f"level must be positive, got {level}")
    cells = u.grid.cell_measures()
    return float(np.sum(cells[u.values > level]))


def weak_lp_norm(u: AxisymFn, p: float) -> float:
    """Weak-L^p quasi-norm sup_t t*|{|u| > t}|^(1/p), over sampled levels.

    The supremum is evaluated at the sampled values (left limits, so a level
    contributes the measure of {|u| >= level}); this under-estimates the
    continuum supremum by at most one grid cell.
    """
    if p <= 0.0:
        raise DomainError(f"p must be positive, got {p}")
    absu = np.abs(u.values).ravel()
    cells = u.grid.cell_measures().ravel()
    if not np.any(absu > 0.0):
        return 0.0
    order = np.argsort(absu)[::-1]
    v = absu[order]
    cum = np.cumsum(cells[order])
    # at level v_k the set {|u| >= v_k} has measure cum at the LAST index of
    # the tied block; take maximum over all positions (ties handled for free)
    cand = v * cum ** (1.0 / p)
    return float(np.max(cand))
