"""Quadrature meshes and norms for radial / axisymmetric functions.

A RadialGrid holds Gauss nodes r_1 < ... < r_N on (0, inf) together with
weights that already include the surface Jacobian r^(d-1), so that

    integral_0^inf g(r) r^(d-1) dr  ~=  sum_i weights_i * g(r_i).

The nodes are Gauss nodes in theta mapped by r = tan(theta): power-law tails
become smooth, the nodes are closed under the Kelvin map r -> 1/r, and the
rule is Gauss-Legendre in the stereographic polar angle 2*theta too.

Boundary functions of |xi| live in RadialFn, axisymmetric half-space
functions u(|x'|, x_n) in AxisymFn on a product HalfspaceGrid, non-radial
planar ones in PolarFn on a radius x angle mesh; each takes samples under one
contract (``_samples``): finite floats of exactly its mesh's shape, else
DomainError.  L^p norms carry divergence guards from the declared tail
exponent of the data and a log-log fit over the last eighth of the mesh.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

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

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def sphere(self) -> float:
        """Surface measure of S^(d-1), recomputed from d on every access."""
        return sphere_area(self.d)

    def parameter(self, r):
        """The mesh angle arctan(r), the coordinate of interpolation stencils."""
        return np.arctan(np.asarray(r, dtype=float))

    def local_spacing(self, r):
        """Approximate node spacing of the mesh near radius r."""
        x = np.asarray(r, dtype=float)
        return ((np.pi / 2.0) / self.size) * (1.0 + x ** 2)


def mesh_n(n: int, grid: RadialGrid) -> int:
    """grid.d + 1, the n a boundary mesh fixes; any other ``n`` DomainError."""
    if n != grid.d + 1:
        raise DomainError(f"n={n} disagrees with the mesh's n={grid.d + 1}")
    return grid.d + 1


def build_radial_grid(d: int, N: int, mapping: str = "tan",
                      scale: float = 1.0) -> RadialGrid:
    """Gauss-Legendre mesh for radial integrals on R^d.

    r = tan(theta), theta in (0, pi/2), weights with the r^(d-1) Jacobian;
    ``mapping`` and ``scale`` accept only ``"tan"`` and 1.0.
    """
    if int(d) != d:
        raise DomainError(f"dimension d must be an integer, got {d}")
    if mapping != "tan":
        raise DomainError(f"unknown mapping {mapping!r}")
    if scale != 1.0:
        raise DomainError(f"the tan rule has scale 1.0, got {scale!r}")
    nodes, dr = half_line_rule(0.0, 1.0, N)
    return RadialGrid(d, nodes, dr * nodes ** (d - 1))


def _samples(values, shape: tuple) -> np.ndarray:
    """Float samples of the mesh's shape, every one finite, else DomainError."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape or not np.all(np.isfinite(values)):
        raise DomainError(f"samples must be a finite array of shape {shape}")
    return values


def _fit_tail_exponent(nodes: np.ndarray, values: np.ndarray):
    """Log-log decay slope of |f| over the last eighth of the mesh (at least
    _TAIL_FIT_MIN_POINTS nodes): the least-squares line in closed form
    through the samples with |f| > 1e-300, of either sign, each column of
    values (N, B) alone.  +inf, a (numerically) compactly supported tail,
    when fewer than _TAIL_FIT_MIN_POINTS of those samples are nonzero."""
    k = max(_TAIL_FIT_MIN_POINTS, nodes.size // 8)
    x = np.log(nodes[-k:])
    v = np.ascontiguousarray(np.abs(values[-k:]).T)
    good = v > 1e-300
    count = good.sum(axis=-1, keepdims=True)
    y = np.log(np.where(good, v, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = np.where(good, x - (good * x).sum(axis=-1, keepdims=True) / count,
                      0.0)
        dy = y - (good * y).sum(axis=-1, keepdims=True) / count
        slope = (dx * dy).sum(axis=-1) / (dx * dx).sum(axis=-1)
    beta = np.where(count[..., 0] < _TAIL_FIT_MIN_POINTS, math.inf, -slope)
    return float(beta) if values.ndim == 1 else beta


def pchip(x, y):
    """scipy's PchipInterpolator(x, y, extrapolate=False) on 3 or more nodes:
    Fritsch-Butland harmonic-mean slopes (0 at a sign change or flat secant),
    shape-kept one-sided end slopes, the same cubics, NaN outside the nodes.

    y of shape (N, B) holds B functions on the same knots, one per column:
    the interpolant then takes points of shape (..., B), or (..., 1) for
    points every column shares, finds their cells with one ``searchsorted``
    and gives shape (..., B), each column's arithmetic that of y[:, b] alone.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    # three-point end slopes: 0 against the end secant's sign, else at most
    # 3 times it where the two end secants differ in sign
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    cap = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
    e = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(cap, 3.0 * m0, e))
    d = np.concatenate((e[:1], inner, e[1:]))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c3, c2 = t / h, (m - d[:-1]) / h - t
    # (cell, column) pairs index the flattened coefficients
    cols = y[0].size
    y, d, c2, c3 = y.ravel(), d.ravel(), c2.ravel(), c3.ravel()

    def interp(xp):
        xp = np.asarray(xp, dtype=float)
        i = np.searchsorted(x[1:-1], xp, side="right")
        s = xp - x[i]
        if cols > 1:
            i = i * cols + np.arange(cols)
        s2 = s * s
        v = y[i] + d[i] * s + c2[i] * s2 + c3[i] * (s2 * s)
        return np.where((xp >= x[0]) & (xp <= x[-1]), v, np.nan)

    return interp


@dataclass(eq=False)
class RadialFn:
    """Samples of a radial function on a RadialGrid, with tail metadata.

    ``tail_exponent`` is the assumed decay power (f ~ C r^-beta), nan when
    undeclared; it is cross-checked against an empirical fit when norms are
    taken.  A batch (``stack``) holds B >= 2 functions' samples as the
    columns of ``values`` (N, B), its metadata per column; every method and
    norm does each column's arithmetic as for that function alone.
    """

    grid: RadialGrid
    values: np.ndarray
    value_at_zero: float = math.nan
    tail_exponent: float = math.nan
    nonnegative: bool = False
    _interp: object = field(default=None, repr=False)
    # None until the first fit; the fit is +inf or a finite slope
    _fitted: object = field(default=None, repr=False)

    def __post_init__(self):
        batch = np.shape(self.values)[1:2]
        self.values = _samples(self.values, self.grid.nodes.shape
                               + (batch if batch != (1,) else ()))
        if self.nonnegative and np.any(self.values < 0.0):
            raise DomainError("function flagged nonnegative has negative samples")
        if np.ndim(self.value_at_zero) == 0 and math.isnan(self.value_at_zero):
            # even extension: quadratic in r^2 through the first two nodes
            r1, r2 = self.grid.nodes[:2]
            f1, f2 = self.values[:2]
            v0 = (f1 * r2 ** 2 - f2 * r1 ** 2) / (r2 ** 2 - r1 ** 2)
            self.value_at_zero = v0 if v0.ndim else float(v0)

    def column(self, j: int) -> "RadialFn":
        """Function j of a batch, with its metadata and fitted tail (a
        function is its own column 0)."""
        if self.values.ndim == 1:
            return self

        def pick(v):
            return v if np.ndim(v) == 0 else float(v[j])
        f = RadialFn(self.grid, np.ascontiguousarray(self.values[:, j]),
                     pick(self.value_at_zero), pick(self.tail_exponent),
                     self.nonnegative)
        f._fitted = pick(self.fitted_tail())
        return f

    def fitted_tail(self) -> float:
        if self._fitted is None:
            self._fitted = _fit_tail_exponent(self.grid.nodes, self.values)
        return self._fitted

    def tail(self) -> float:
        """The declared tail exponent, else the fitted one (per column)."""
        beta = self.tail_exponent
        if np.ndim(beta) == 0:
            return self.fitted_tail() if math.isnan(beta) else beta
        undeclared = np.isnan(beta)
        return np.where(undeclared, self.fitted_tail(), beta) \
            if undeclared.any() else beta

    def _build_interp(self):
        nodes, vals, v0 = self.grid.nodes, self.values, self.value_at_zero
        log = (vals > 0.0).all(axis=0) & (np.asarray(v0) > 0.0)
        mixed, parts = log.any() and not log.all(), []
        if log.any():
            logf = pchip(np.log(nodes), np.log(vals[:, log] if mixed else vals))
            parts.append((log, lambda r: np.exp(logf(np.log(r)))))
        if not log.all():
            y, y0 = (vals[:, ~log], v0[~log]) if mixed else (vals, v0)
            lin = pchip(np.concatenate(([0.0], self.grid.parameter(nodes))),
                        np.concatenate(([y0], y)))
            parts.append((~log, lambda r: lin(self.grid.parameter(r))))

        def interp(r):      # r: (..., B), or (..., 1) for every column
            r = np.broadcast_to(r, r.shape[:-1] + log.shape)
            out = np.empty(r.shape)
            for cols, part in parts:
                out[..., cols] = part(r[..., cols])
            return out
        self._interp = parts[0][1] if len(parts) == 1 else interp

    def eval(self, r):
        """Evaluate at arbitrary radii.

        Between nodes: ``pchip`` of log f in log r if f > 0 (value_at_zero
        too), else of f in the mesh parameter from (0, value_at_zero).  Below
        the first node: even quadratic through (0, value_at_zero) and the
        first nodes.  Beyond the last node: power-law continuation with the
        declared tail exponent (fitted slope if undeclared).  A batch
        evaluates column b at the radii r[b]: r's leading axis has length B,
        or 1 for radii every column shares, and the result has that axis B
        long; each column picks its own branch, as it would alone.
        """
        if self._interp is None:
            self._build_interp()
        r = np.asarray(r, dtype=float)
        nodes = self.grid.nodes
        vals = self.values.reshape(nodes.size, -1)
        # the batch axis last, as pchip takes it; a function is a batch of 1
        rt = r.reshape(len(r), -1).T if self.values.ndim == 2 else r[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._interp(rt)          # NaN off the nodes
        lo, hi = rt < nodes[0], rt > nodes[-1]
        if lo.any():
            r1, r2 = nodes[:2]
            f0 = self.value_at_zero
            f1, f2 = vals[:2]
            # quadratic in r^2 through (0, f0), (r1, f1), (r2, f2)
            a = ((f1 - f0) / r1 ** 2 - (f2 - f0) / r2 ** 2) / (r1 ** 2 - r2 ** 2)
            b = (f1 - f0) / r1 ** 2 - a * r1 ** 2
            out = np.where(lo, f0 + b * rt ** 2 + a * rt ** 4, out)
        if hi.any():
            # x > 1 there, so an infinite beta (or fN = 0) continues with 0
            hi = np.broadcast_to(hi, out.shape)
            x, fN, beta = (np.broadcast_to(a, out.shape)[hi] for a in
                           (rt / nodes[-1], vals[-1], self.tail()))
            out[hi] = fN * x ** -beta
        if self.values.ndim == 2:
            return np.ascontiguousarray(out.T).reshape((-1,) + r.shape[1:])
        return float(out[..., 0]) if r.ndim == 0 else out[..., 0]

    def scaled(self, c: float) -> "RadialFn":
        """c times f, f's tail fit kept; a batch takes one c per column."""
        return RadialFn(self.grid, c * self.values, c * self.value_at_zero,
                        self.tail_exponent,
                        self.nonnegative and not np.less(c, 0.0).any(),
                        _fitted=self._fitted)

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


def sample_radial(grid: RadialGrid, fn, tail_exponent=math.nan,
                  nonnegative=False) -> RadialFn:
    """Sample a callable profile fn(r) onto a grid, with fn(0) at zero."""
    vals = np.asarray(fn(grid.nodes), dtype=float)
    return RadialFn(grid, vals, float(fn(0.0)), tail_exponent, nonnegative)


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
    the tan map: r = rho cos(phi), t = rho sin(phi), weights
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
        self.values = _samples(self.values, (self.grid.radial.size,
                                             self.grid.heights.size))


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

    def __post_init__(self):
        self.values = _samples(self.values, (self.grid.radial.size,
                                             self.grid.n_angles))

    def lp_norm(self, p: float) -> float:
        mass = np.sum(self.grid.cell_measures() * np.abs(self.values) ** p)
        return float(mass ** (1.0 / p))


def lp_norm_boundary(f: RadialFn, p: float):
    """L^p(R^d) norm of a radial boundary function by grid quadrature.

    The tan-mapped Gauss rule integrates the full half-line, so no additive
    tail term is applied; the declared/fitted tail exponents only gate
    divergence: the slower of the two must give p * beta > d.  Requires the
    estimated truncation remainder to stay below 1% of the truncated integral.
    A batch gets one norm per column; its slowest tail gates it.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    d = f.grid.d
    beta = np.minimum(f.tail(), f.fitted_tail())
    # small slack absorbs fit noise on exactly-critical tails
    if p * beta.min() <= d + 1e-6:
        raise DivergenceError(
            f"L^{p} norm divergent: tail exponent {beta.min():.4g} gives "
            f"p*beta = {p * beta.min():.4g} <= d = {d}")
    total = f.grid.weights @ np.abs(f.values) ** p
    # an infinite beta has no tail: the remainder below reads 0 there
    tail = np.abs(f.values[-1]) ** p * f.grid.r_max ** d / (p * beta - d)
    if ((total > 0.0) & (tail > 0.01 * total)).any():
        raise DomainError(
            "truncation tail exceeds 1% of the integral; decay too slow "
            "for this mesh")
    return (f.grid.sphere * total) ** (1.0 / p)


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
    """The L^p-preserving dilation f -> lam^(-d/p) f(./lam) on the same mesh,
    with f's fitted tail; a batch takes one lam per column, all in one
    evaluation, and a column whose lam is 1 keeps its samples."""
    column = np.asarray(lam)[..., None]       # a batch's lam, one per row
    if (column <= 0.0).any():
        raise DomainError(f"dilation factor must be positive, got {lam}")
    keep = column == 1.0
    if keep.all():
        return f
    c = lam ** (-f.grid.d / p)
    vals = np.asarray(c)[..., None] * f.eval(f.grid.nodes / column)
    vals = np.where(keep, f.values.T, vals)
    # a power law keeps its exponent: f's tail fit is the dilation's
    return RadialFn(f.grid, np.ascontiguousarray(vals.T),
                    value_at_zero=c * f.value_at_zero,
                    tail_exponent=f.tail_exponent, nonnegative=f.nonnegative,
                    _fitted=f._fitted)


def stack(fs) -> RadialFn:
    """The batch of the RadialFns ``fs`` on one mesh (one function is
    itself): their samples as columns, their metadata per column."""
    grid = fs[0].grid
    if any(f.grid is not grid for f in fs):
        raise DomainError("a batch's functions must share one mesh")
    if len(fs) == 1:
        return fs[0]
    return RadialFn(grid, np.stack([f.values for f in fs], axis=-1),
                    np.array([f.value_at_zero for f in fs]),
                    np.array([f.tail_exponent for f in fs]),
                    all(f.nonnegative for f in fs))


def default_halfspace_grid(boundary: RadialGrid) -> HalfspaceGrid:
    """Half-space mesh on a boundary grid's radial factor and max(48, 3N/5)
    heights, the one height rule.  Each call builds a new height mesh;
    operators are cached by mesh content, so equal meshes share one."""
    N_t = max(48, (3 * boundary.size) // 5)
    return HalfspaceGrid(boundary, build_radial_grid(1, N_t))


def distribution(values, measures):
    """The distribution function of sampled data, from one sort.

    Returns (v, mu): the values in decreasing order (stable, so ties keep
    their input order) and the running total of their cell measures, so
    that mu[k] is the measure of the cells holding v[0], ..., v[k].
    """
    values, measures = np.asarray(values, float), np.asarray(measures, float)
    if values.shape != measures.shape:
        raise DomainError("values and measures must align")
    if np.any(measures < 0.0):
        raise DomainError("cell measures must be nonnegative")
    order = np.argsort(-values.ravel(), kind="stable")
    return values.ravel()[order], np.cumsum(measures.ravel()[order])


def distribution_mass(u, levels):
    """Measures of the superlevel sets {x : u(x) > s} at an array of levels
    s, by cell quadrature and one sort, for any samples whose grid has
    ``cell_measures()`` (AxisymFn, PolarFn).  A scalar level gives a float."""
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0.0):
        raise DomainError(f"levels must be positive, got {np.min(levels)}")
    v, mu = distribution(u.values, u.grid.cell_measures())
    # -v ascends; k counts the values above each level
    k = np.searchsorted(-v, -levels, side="left")
    mass = np.concatenate(([0.0], mu))[k]
    return float(mass) if levels.ndim == 0 else mass

