"""Poisson extension of radial boundary data and its dual, via ring kernels.

For radial f on R^{n-1}, the extension (Pf)(x) = (P_{x_n} * f)(x') collapses
to a 1-D integral against the ring kernel

    K(r, s, t) = (2/(n omega_n)) * t * integral over S^{n-2} of
                 dsigma(w) / (r^2 + s^2 - 2 r s w_1 + t^2)^(n/2),

so that (Pf)(r, t) = integral_0^inf K(r, s, t) f(s) s^(n-2) ds.  K is
symmetric in (r, s), and the same kernel drives the dual operator
(Tu)(s) = integral K(s, r, t) u(r, t) r^(n-2) dr dt.  Boundary data lives on
the half-space mesh's radial factor, so one square stack of per-height
matrices M[k], cached by mesh content, discretizes both: Pf reads M[k] @ f,
Tu reads M[k] @ u[:, k].

The angular integral has closed forms in the dimensions used here:

    n = 2:  K = (1/pi) * [ t/((r-s)^2+t^2) + t/((r+s)^2+t^2) ]
    n = 3:  K = (t/pi) * 2 E(m) / ( ((r-s)^2+t^2) * sqrt((r+s)^2+t^2) ),
            m = 4 r s / ((r+s)^2 + t^2)   (complete elliptic integral E)
    n = 4:  K = 4 t / ( pi * ((r-s)^2+t^2) * ((r+s)^2+t^2) )

and one Gauss hypergeometric function for every n >= 5.  With h = n/2 - 1,
the polar angle theta and u = sin^2(theta/2), the angular integral is the
Euler integral 2^(n-3) int_0^1 (u(1-u))^(h-1) (a + 4 r s u)^(-n/2) du,
a = (r-s)^2 + t^2, which is B(h, h) a^(-n/2) 2F1(n/2, h; 2h; -4rs/a); the
Pfaff transformation (DLMF 15.6.1, 15.8.1) turns it into

    K = (2/(n omega_n)) |S^(n-3)| 2^(n-3) B(h, h) t 2F1(h-1, h; 2h; m)
        / ( ((r-s)^2+t^2) * ((r+s)^2+t^2)^h ),

which at n = 3 is the E(m) form and at n = 4 the rational one.  Here
c - a - b = 1, so 2F1 stays finite as m -> 1 (s -> r, t -> 0).  The angular
integral on Gauss-Legendre panels (``method="gl"``, refined toward
theta = 0, where the integrand peaks as t -> 0) is kept as the oracle.

As t -> 0 the kernel concentrates in an O(t) spike at s = r.  Rows of the
discretized operator whose height cannot be resolved by the radial mesh are
built with geometrically refined panels around the diagonal (width t at
s = r, growing by 8; below r/2 merged with a ladder resolving the mesh's
decades) and a local cubic interpolation stencil: a plain matrix.  One row
rule, ``_kernel_matrix``, builds the per-height stacks, the polar rows and
``extend_at`` (one height per point), so they agree row for row.

Every per-point panel quadrature here (refined rows, kernel mass, the
angular integrals) lays out the breakpoints of all its points in one array
call, builds their rules in one ``composite_rules`` call and evaluates the
integrand once over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import beta, digamma, ellipe, hyp2f1

from .errors import DivergenceError, DomainError
from .grids import (POLAR_PHI, POLAR_RHO, AxisymFn, HalfspaceGrid, RadialFn,
                    RadialGrid, polar_halfspace_rule)
from .kernel import kernel_constant, sphere_area
from .quadrature import GROW, composite_rules, panel_rule, peak_breaks

# rows with height below PEAK_FACTOR * (local mesh spacing) get refined panels
PEAK_FACTOR = 6.0
_PANEL_ORDER = 16
# growth of the refined rows' panels away from the diagonal s = r
_DIAGONAL_GROW = 8.0
_RING_ORDER = 24
_RING_BLOCK = 512      # entries per angular batch: bounds the nodes held


def _ring_closed(n: int, r, s, t):
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    amm = (r - s) ** 2 + t * t
    app = (r + s) ** 2 + t * t
    if n == 2:
        return (t / np.pi) * (1.0 / amm + 1.0 / app)
    if n == 3:
        m = np.minimum(4.0 * r * s / app, 1.0)
        return (t / np.pi) * 2.0 * ellipe(m) / (amm * np.sqrt(app))
    if n == 4:
        return 4.0 * t / (np.pi * amm * app)
    # n >= 5: B(h, h) 2F1(h-1, h; 2h; 1-w) with h = n/2 - 1 and w = 1 - m,
    # free of cancellation.  hyp2f1 returns its z = 1 limit once w < 1e-13,
    # so below 1e-11 take the expansion at z = 1 (DLMF 15.8.10, c-a-b = 1),
    # whose first dropped term is O(w^2 log w)
    h = 0.5 * n - 1.0
    w = amm / app
    d0 = digamma(h) + digamma(h + 1.0) + 2.0 * np.euler_gamma - 1.0
    bf = np.where(w < 1e-11, 1.0 / h + (h - 1.0) * w * (np.log(w) + d0),
                  beta(h, h) * hyp2f1(h - 1.0, h, 2.0 * h, 1.0 - w))
    c = kernel_constant(n) * sphere_area(n - 2) * 2.0 ** (n - 3)
    return c * t * bf / (amm * app ** h)


def _angular_integral(n: int, r, s, t, terms, core) -> np.ndarray:
    """Per entry, integral of core(h, *terms) sin(theta)^(n-3) on (0, pi).

    ``terms(r, s, t)`` gives the integrand's per-entry factors once per
    entry; they are gathered at the entry's angular nodes and passed to
    ``core`` with h = sin(theta/2)^2.  Panels are refined geometrically
    toward theta = 0, where the integrand peaks with width
    sqrt(((r-s)^2 + t^2) / (r s)) as t -> 0.
    """
    r, s, t = np.broadcast_arrays(np.asarray(r, float), np.asarray(s, float),
                                  np.asarray(t, float))
    shape = r.shape
    rr, ss, tt = r.ravel(), s.ravel(), t.ravel()
    out = np.empty(rr.size)
    for lo in range(0, rr.size, _RING_BLOCK):
        r, s, t = (x[lo:lo + _RING_BLOCK] for x in (rr, ss, tt))
        with np.errstate(divide="ignore", invalid="ignore"):
            width = np.sqrt(((r - s) ** 2 + t * t) / (r * s))
        width = np.where((r * s > 0.0) & (width < np.pi / 2.0), width, np.pi)
        th, w, offsets = composite_rules(
            peak_breaks(0.0, width, 0.0, np.pi, GROW), _RING_ORDER)
        k = np.repeat(np.arange(r.size), np.diff(offsets))
        vals = w * core(np.sin(0.5 * th) ** 2,
                        *(x[k] for x in terms(r, s, t)))
        if n != 3:
            vals *= np.sin(th) ** (n - 3)
        out[lo:lo + r.size] = np.add.reduceat(vals, offsets[:-1])
    return out.reshape(shape)


def ring_kernel(n: int, r, s, t, method: str = "closed"):
    """Ring kernel K(r, s, t); symmetric in (r, s), broadcasts over arrays.

    ``method`` is "closed" (the closed forms above, every n >= 2) or "gl":
    the angular integral on Gauss-Legendre panels, kept as the independent
    oracle for the closed forms.
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got n={n}")
    if np.any(np.asarray(t) <= 0.0):
        raise DomainError("height t must be positive")
    if method not in ("closed", "gl"):
        raise DomainError(f"unknown ring kernel method {method!r}")
    if method == "closed" or n == 2:
        out = _ring_closed(n, r, s, t)
        return float(out) if np.ndim(out) == 0 else out

    def terms(r, s, t):
        return (r - s) ** 2 + t * t, 4.0 * r * s

    def core(h, amm, b):
        # a - b cos(theta) = amm + b (1 - cos(theta)), free of cancellation
        return (amm + b * h) ** (-0.5 * n)

    out = (kernel_constant(n) * np.asarray(t, float) * sphere_area(n - 2)
           * _angular_integral(n, r, s, t, terms, core))
    return float(out) if out.ndim == 0 else out


def qt_ring(n: int, r, s, t):
    """Ring reduction of Q_t (used by the commutator bound)."""
    if n == 2:
        r, s, t = (np.asarray(x, dtype=float) for x in (r, s, t))
        out = kernel_constant(2) * (np.abs(r - s) / ((r - s) ** 2 + t * t)
                                    + (r + s) / ((r + s) ** 2 + t * t))
        return float(out) if out.ndim == 0 else out

    def terms(r, s, t):
        return (r - s) ** 2, 4.0 * r * s, t * t

    def core(h, d2, b, t2):
        R2 = d2 + b * h
        return np.sqrt(R2) * (R2 + t2) ** (-0.5 * n)

    out = (kernel_constant(n) * sphere_area(n - 2)
           * _angular_integral(n, r, s, t, terms, core))
    return float(out) if out.ndim == 0 else out


def _lagrange_stencils(grid: RadialGrid, query: np.ndarray):
    """Local 4-point cubic Lagrange stencils in the grid's parameter coordinate.

    Returns (columns, weights), both shaped (len(query), 4); stencils clamp at
    the mesh ends, so slightly-outside queries extrapolate politely.  The
    denominators prod_{b!=a}(x_a - x_b) belong to the mesh's N-3 windows and
    are computed once per window.  The differences, their product and the
    weights are then built one stencil column at a time, on arrays of one
    value per query.  A query that hits a node exactly gets the unit row.
    """
    xn = grid.parameter(grid.nodes)
    xq = grid.parameter(query)
    start = np.clip(np.searchsorted(xn, xq) - 2, 0, grid.size - 4)
    four = np.arange(4)
    windows = np.lib.stride_tricks.sliding_window_view(xn, 4)   # (N-3, 4)
    pair = windows[:, :, None] - windows[:, None, :]
    pair[:, four, four] = 1.0
    denom = np.prod(pair, axis=2).T                 # (4, N-3)
    diff = [xq - xn[start + a] for a in four]
    full = diff[0] * diff[1] * diff[2] * diff[3]
    weights = np.empty((xq.size, 4))
    for a, d in enumerate(diff):
        weights[:, a] = full / (np.where(d == 0.0, 1.0, d) * denom[a][start])
    for a, d in enumerate(diff):
        weights[d == 0.0] = four == a
    return start[:, None] + four, weights


def _diagonal_rules(r_out, t, in_grid: RadialGrid):
    """Rules resolving the kernel diagonal at each (r_out, t) and the data.

    Breakpoints: the peak at s = r (width t, growing by 8) and, below r/2
    only, a ladder for the mesh's decades (scale/64, growing by 4).
    """
    peaks = peak_breaks(r_out, np.maximum(t, 1e-9), 0.0, in_grid.r_max,
                        _DIAGONAL_GROW)
    ladder = peak_breaks(0.0, in_grid.scale / 64.0, 0.0, in_grid.r_max, GROW)
    # from r/2 up the peak's own panels cover every decade: ladder points
    # there become zeros, zero-width panels that composite_rules skips
    ladder = np.where(ladder < 0.5 * r_out[:, None], ladder, 0.0)
    return composite_rules(np.sort(np.hstack([peaks, ladder]), axis=1),
                           _PANEL_ORDER)


def _kernel_matrix(kernel, out_nodes: np.ndarray, in_grid: RadialGrid,
                   t) -> np.ndarray:
    """Matrix taking in-grid samples to kernel integrals at out_nodes.

    ``kernel(r, s, t)`` is a ring kernel (of P_t or Q_t), broadcasting.
    ``t`` is one height per output node, or one height for all of them.
    The kernel is evaluated on the plain grid rule only for the rows the
    mesh resolves.  The other rows are diagonal-refined panels composed with
    the cubic stencils, summed into the row by one ``np.bincount`` over flat
    (row, column) indices, in quadrature-node order.
    """
    t = np.broadcast_to(np.asarray(t, dtype=float), out_nodes.shape)
    refine = t < PEAK_FACTOR * in_grid.local_spacing(out_nodes)
    plain, flagged = np.nonzero(~refine)[0], np.nonzero(refine)[0]
    M = np.empty((out_nodes.size, in_grid.size))
    M[plain] = (kernel(out_nodes[plain, None], in_grid.nodes[None, :],
                       t[plain, None]) * in_grid.weights[None, :])
    if flagged.size == 0:
        return M
    r, t = out_nodes[flagged], t[flagged]
    s, w, offsets = _diagonal_rules(r, t, in_grid)
    rows = np.repeat(np.arange(flagged.size), np.diff(offsets))
    coeff = w * kernel(r[rows], s, t[rows]) * s ** (in_grid.d - 1)
    cols, lw = _lagrange_stencils(in_grid, s)
    at = (rows * in_grid.size)[:, None] + cols
    sums = np.bincount(at.ravel(), (coeff[:, None] * lw).ravel(),
                       minlength=flagged.size * in_grid.size)
    M[flagged] = sums.reshape(flagged.size, in_grid.size)
    return M


@dataclass(eq=False)
class PoissonOperator:
    """Discretized extension/dual pair: one square stack, read both ways.

    ``extend`` (M[k] @ f) and ``dual`` (M[k] @ u[:, k]) are BLAS products
    that read the C-contiguous stack in place: it holds 20 MB at N=160,
    N_t=96, so neither direction may copy or transpose it; ``extension_norm``
    reads the 1.3 MB of polar rows.  Built once per n and mesh content by
    ``get_operator``, whose cache holds operators up to a byte budget.
    """

    n: int
    halfspace: HalfspaceGrid
    matrices: np.ndarray          # (N_t, N, N), C-contiguous
    polar_rows: np.ndarray        # (POLAR_PHI * POLAR_RHO, N), ray by ray
    polar_weights: np.ndarray     # (POLAR_PHI * POLAR_RHO,)

    @property
    def dual_matrices(self) -> np.ndarray:
        # the stack the dual reads, under the name the benchmark hooks use
        return self.matrices

    def extend(self, f_values: np.ndarray) -> np.ndarray:
        """(Pf)(r_j, t_k) for boundary samples f, shape (N, N_t).

        One GEMV: the stack seen as an (N_t N, N) matrix (a view, as the
        stack is C-contiguous) times f; the result is returned as the
        transposed view of its (N_t, N) reshape.
        """
        n_t, n_out, n_in = self.matrices.shape
        flat = self.matrices.reshape(n_t * n_out, n_in)
        return (flat @ f_values).reshape(n_t, n_out).T

    def dual(self, u_values: np.ndarray) -> np.ndarray:
        """(Tu)(s_i) = sum_k wt_k (M[k] @ u[:, k]) for samples u(r_j, t_k).

        One batched matmul over the heights, each M[k] read in place against
        its weighted column of u, then a sum over k.
        """
        wt = self.halfspace.heights.weights
        v = (u_values * wt).T[:, :, None]             # (N_t, N, 1)
        return np.matmul(self.matrices, v).sum(axis=0)[:, 0]


_OPERATOR_CACHE: dict = {}     # least recently used first
_CACHE_BYTES = 64 * 2 ** 20    # budget of stacks and polar rows held
# get_operator's traffic since import: the CLI reports one run's deltas
CACHE_COUNTS = {"builds": 0, "hits": 0, "evictions": 0}


def cache_held_bytes() -> int:
    """Bytes of the stacks and polar rows the operator cache holds."""
    return sum(op.matrices.nbytes + op.polar_rows.nbytes
               for op in _OPERATOR_CACHE.values())


def operator_nbytes(halfspace: HalfspaceGrid) -> int:
    """Bytes of the stack and polar rows an operator on this mesh holds."""
    n_r, n_t = halfspace.radial.size, halfspace.heights.size
    return 8 * n_r * (n_t * n_r + POLAR_RHO * POLAR_PHI)


def _mesh_key(grid: RadialGrid) -> tuple:
    """Everything the operator build reads from a mesh, compared by value."""
    return (grid.d, grid.mapping, grid.scale, grid.r_max,
            grid.nodes.tobytes(), grid.weights.tobytes())


def _matrix_stack(n: int, grid: RadialGrid, heights: RadialGrid) -> np.ndarray:
    # one height per call: all heights at once would hold N_t N^2
    # temporaries; each is written into the one preallocated stack
    stack = np.empty((heights.size, grid.size, grid.size))
    for k, t in enumerate(heights.nodes):
        stack[k] = _kernel_matrix(partial(ring_kernel, n), grid.nodes, grid, t)
    return stack


def get_operator(n: int, boundary: RadialGrid,
                 halfspace: HalfspaceGrid) -> PoissonOperator:
    """The operator for (n, half-space mesh), built on a miss.

    ``boundary`` must equal the radial mesh in content (DomainError if not).
    Keyed by mesh content, so meshes built separately but equal share one
    operator; the cache keeps the most recently used operators that fit in
    ``_CACHE_BYTES``, and always the newest, even one over it alone.
    """
    if boundary.d != n - 1 or halfspace.n != n:
        raise DomainError("grid dimensions are inconsistent with n")
    radial, heights = halfspace.radial, halfspace.heights
    key = (n, _mesh_key(radial), _mesh_key(heights))
    if _mesh_key(boundary) != key[1]:
        raise DomainError(
            "boundary data must live on the half-space's radial mesh")
    if key in _OPERATOR_CACHE:
        CACHE_COUNTS["hits"] += 1
        _OPERATOR_CACHE[key] = _OPERATOR_CACHE.pop(key)     # now the newest
        return _OPERATOR_CACHE[key]
    # make room before the build, so the evicted stacks are freed first
    need = operator_nbytes(halfspace)
    while _OPERATOR_CACHE and cache_held_bytes() + need > _CACHE_BYTES:
        _OPERATOR_CACHE.pop(next(iter(_OPERATOR_CACHE)))
        CACHE_COUNTS["evictions"] += 1
    r, t, weights = polar_halfspace_rule(n)
    # polar rows one ray per call, as _matrix_stack goes one height per call
    rows = [_kernel_matrix(partial(ring_kernel, n), r_ray, radial, t_ray)
            for r_ray, t_ray in zip(r, t)]
    op = PoissonOperator(n, halfspace, _matrix_stack(n, radial, heights),
                         np.concatenate(rows), weights.ravel())
    CACHE_COUNTS["builds"] += 1
    _OPERATOR_CACHE[key] = op
    return op


def _check_integrable(f: RadialFn) -> None:
    beta = f.tail()
    if not math.isnan(beta) and beta <= 0.0:
        raise DivergenceError(
            f"boundary data with tail exponent {beta:.3g} <= 0 is not "
            "integrable against the kernel")


def poisson_extend(f: RadialFn, grid: HalfspaceGrid) -> AxisymFn:
    """Harmonic extension of radial boundary data onto a half-space mesh."""
    _check_integrable(f)
    op = get_operator(grid.n, f.grid, grid)
    return AxisymFn(grid, op.extend(f.values))


def extension_norm(f: RadialFn, q: float, halfspace: HalfspaceGrid) -> float:
    """|Pf|_{L^q(R^n_+)} on the polar half-space rule (``polar_rows`` @ f).

    Its tan map reaches rho = inf, where |Pf| ~ rho^-beta, beta = min(tail of
    f, n-1), makes the mapped integrand ~ (pi/2 - theta)^(q beta - n - 1), so
    q beta < n + 1 raises DivergenceError: a far field the rule cannot take."""
    n = halfspace.n
    beta = min(f.tail(), n - 1.0)
    if q * beta < n + 1 - 1e-6:     # slack: fit noise at critical decay
        raise DivergenceError(
            f"far field of Pf too slow for the polar rule: q*beta = "
            f"{q * beta:.4g} < n + 1 (L^{q}, |Pf| ~ |x|^-{beta:.4g})")
    op = get_operator(n, f.grid, halfspace)
    u = op.polar_rows @ f.values
    return float(np.dot(op.polar_weights, np.abs(u) ** q) ** (1.0 / q))


def dual_extend(u: AxisymFn) -> RadialFn:
    """(Tu)(s) = integral of P(x, s) u(x) dx on the half-space's radial mesh.

    The dual reads the same square stack as the extension, so its output
    lives on ``u.grid.radial``, the mesh boundary data is extended from.
    """
    radial = u.grid.radial
    op = get_operator(u.grid.n, radial, u.grid)
    return RadialFn(radial, op.dual(u.values))


def extend_at(f: RadialFn, r, t) -> np.ndarray:
    """Pointwise (Pf)(r, t) at arbitrary heights t > 0 (no mesh in t).

    Each point is one row of the operator's row rule at its own height, so
    at the nodes of a half-space mesh this equals ``poisson_extend``.
    """
    _check_integrable(f)
    r, t = np.broadcast_arrays(np.atleast_1d(np.asarray(r, dtype=float)),
                               np.atleast_1d(np.asarray(t, dtype=float)))
    if np.any(t <= 0.0):
        raise DomainError("heights must be positive")
    rows = _kernel_matrix(partial(ring_kernel, f.grid.d + 1), r.ravel(),
                          f.grid, t.ravel())
    return (rows @ f.values).reshape(r.shape)


def kernel_mass(n: int, s, t: float) -> np.ndarray:
    """Quadrature of K(., s, t) r^(n-2) dr over (0, inf), one per entry of s
    (an array); exactly 1 in theory."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    breaks = peak_breaks(s, max(t, 1e-6), 0.0,
                         np.maximum(np.maximum(8.0 * s, 64.0 * t), 16.0), GROW)
    r, w, offsets = composite_rules(breaks, 24, np.maximum(s, max(t, 1.0)))
    s_rep = np.repeat(s, np.diff(offsets))
    contrib = w * ring_kernel(n, r, s_rep, t) * r ** (n - 2)
    return np.add.reduceat(contrib, offsets[:-1])


def slab_mass(profiles, a: float) -> np.ndarray:
    """Integrals of Pf over the slab {0 < x_n < a}, one per profile.

    ``profiles`` is a sequence of nonnegative integrable RadialFn on one
    mesh.  Computed honestly: the spatial integral at each height uses
    diagonal-refined panels (independently of the Fubini identity it is
    meant to check), then 24-point Gauss quadrature in the height.  The slab
    integral is linear in f and its kernel masses depend only on the mesh and
    a, so the per-node weights ``sphere * weights * sum_t wt * masses_t`` are
    built once and each profile costs one dot product.  For f >= 0 with unit
    mass the result equals a.
    """
    if a <= 0.0:
        raise DomainError(f"slab height must be positive, got {a}")
    if not profiles:
        raise DomainError("slab mass needs at least one profile")
    grid = profiles[0].grid
    for f in profiles:
        if _mesh_key(f.grid) != _mesh_key(grid):
            raise DomainError("slab mass profiles must share one mesh")
        if np.any(f.values < 0.0):
            raise DomainError("slab mass is defined for nonnegative data")
        _check_integrable(f)
    n = grid.d + 1
    t_nodes, t_weights = panel_rule(0.0, a, 24)
    masses = sum(wt * kernel_mass(n, grid.nodes, float(t))
                 for t, wt in zip(t_nodes, t_weights))
    weights = grid.sphere * grid.weights * masses
    return np.array([f.values for f in profiles]) @ weights


def commutator_gap(f: RadialFn, phi_lip: float, phi: RadialFn,
                   t: float) -> float:
    """Largest violation of the Lipschitz commutator bound at height t.

    Returns max over the grid of |P_t*(phi f) - phi (P_t*f)| minus
    phi_lip * t * (Q_t*f); nonpositive up to quadrature error when phi_lip
    really dominates the Lipschitz seminorm of phi.
    """
    if phi_lip < 0.0:
        raise DomainError("Lipschitz seminorm must be >= 0")
    if t <= 0.0:
        raise DomainError(f"height t must be positive, got {t}")
    if np.any(f.values < 0.0):
        raise DomainError("the commutator bound is stated for f >= 0")
    if phi.grid is not f.grid:
        raise DomainError("phi must be sampled on the same grid as f")
    n, g = f.grid.d + 1, f.grid
    P_t = _kernel_matrix(partial(ring_kernel, n), g.nodes, g, t)
    Q_t = _kernel_matrix(partial(qt_ring, n), g.nodes, g, t)
    lhs = np.abs(P_t @ (phi.values * f.values)
                 - phi.values * (P_t @ f.values))
    rhs = phi_lip * t * (Q_t @ f.values)
    return float(np.max(lhs - rhs))
