"""Poisson extension of radial boundary data and its dual, via ring kernels.

For radial f on R^{n-1}, the extension (Pf)(x) = (P_{x_n} * f)(x') collapses
to a 1-D integral against the ring kernel

    K(r, s, t) = (2/(n omega_n)) * t * integral over S^{n-2} of
                 dsigma(w) / (r^2 + s^2 - 2 r s w_1 + t^2)^(n/2),

so that (Pf)(r, t) = integral_0^inf K(r, s, t) f(s) s^(n-2) ds.  K is
symmetric in (r, s), and the same kernel drives the dual operator
(Tu)(s) = integral K(s, r, t) u(r, t) r^(n-2) dr dt.

The angular integral has closed forms in the dimensions used here:

    n = 2:  K = (1/pi) * [ t/((r-s)^2+t^2) + t/((r+s)^2+t^2) ]
    n = 3:  K = (t/pi) * 2 E(m) / ( ((r-s)^2+t^2) * sqrt((r+s)^2+t^2) ),
            m = 4 r s / ((r+s)^2 + t^2)   (complete elliptic integral E)
    n = 4:  K = 4 t / ( pi * ((r-s)^2+t^2) * ((r+s)^2+t^2) )

and a Gauss-Legendre fallback in the polar angle for n >= 5 (with panel
subdivision near theta = 0, where the integrand peaks as t -> 0).

As t -> 0 the kernel concentrates in an O(t) spike at s = r.  Rows of the
discretized operator whose height cannot be resolved by the radial mesh are
rebuilt with geometrically refined panels around the diagonal, composed with
a local cubic interpolation stencil, so the operator stays a plain matrix.
One row rule, ``_kernel_matrix``, builds every such matrix: the operator's
per-height stacks, ``boundary_convolution`` (P_t or Q_t at one height) and
``extend_at`` (one height per point), so all three agree row for row.

Every per-point panel quadrature here (refined rows, kernel mass, the
angular integrals) lays out the breakpoints of all its points in one array
call, builds their rules in one ``composite_rules`` call and evaluates the
integrand once over them.
Operators are cached by mesh content: meshes built separately but equal
share one operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ellipe

from .errors import DivergenceError, DomainError
from .grids import AxisymFn, HalfspaceGrid, RadialFn, RadialGrid
from .kernel import kernel_constant, sphere_area
from .quadrature import composite_rules, gauss_legendre, peak_breaks

# rows with height below PEAK_FACTOR * (local mesh spacing) get refined panels
PEAK_FACTOR = 6.0
_PANEL_ORDER = 16
_RING_ORDER = 64
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
    raise DomainError(f"no closed ring kernel for n={n}")


def _angular_integral(n: int, r, s, t, core) -> np.ndarray:
    """Per entry, integral of core(theta, r, s, t) sin(theta)^(n-3) on (0, pi).

    Panels are refined geometrically toward theta = 0, where the integrand
    peaks with width sqrt(((r-s)^2 + t^2) / (r s)) as t -> 0.
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
            peak_breaks(0.0, width, 0.0, np.pi), _RING_ORDER)
        k = np.repeat(np.arange(r.size), np.diff(offsets))
        vals = w * core(th, r[k], s[k], t[k]) * np.sin(th) ** (n - 3)
        out[lo:lo + r.size] = np.add.reduceat(vals, offsets[:-1])
    return out.reshape(shape)


def ring_kernel(n: int, r, s, t, method: str = "auto"):
    """Ring kernel K(r, s, t); symmetric in (r, s), broadcasts over arrays.

    ``method`` is "closed" (n in {2, 3, 4}), "gl" (angular Gauss panels,
    n >= 3), or "auto" (closed form when available).
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got n={n}")
    if np.any(np.asarray(t) <= 0.0):
        raise DomainError("height t must be positive")
    if method == "auto":
        method = "closed" if n <= 4 else "gl"
    if method == "closed":
        out = _ring_closed(n, r, s, t)
        return float(out) if np.ndim(out) == 0 else out
    if method != "gl":
        raise DomainError(f"unknown ring kernel method {method!r}")
    if n == 2:
        return ring_kernel(n, r, s, t, method="closed")

    def core(th, r, s, t):
        # a - b cos(theta) = amm + b (1 - cos(theta)), free of cancellation
        return ((r - s) ** 2 + t * t
                + 4.0 * r * s * np.sin(0.5 * th) ** 2) ** (-0.5 * n)

    out = (kernel_constant(n) * np.asarray(t, float) * sphere_area(n - 2)
           * _angular_integral(n, r, s, t, core))
    return float(out) if out.ndim == 0 else out


def qt_ring(n: int, r, s, t):
    """Ring reduction of Q_t (used by the commutator bound)."""
    if n == 2:
        r, s, t = (np.asarray(x, dtype=float) for x in (r, s, t))
        out = kernel_constant(2) * (np.abs(r - s) / ((r - s) ** 2 + t * t)
                                    + (r + s) / ((r + s) ** 2 + t * t))
        return float(out) if out.ndim == 0 else out

    def core(th, r, s, t):
        R2 = (r - s) ** 2 + 4.0 * r * s * np.sin(0.5 * th) ** 2
        return np.sqrt(R2) * (R2 + t * t) ** (-0.5 * n)

    out = (kernel_constant(n) * sphere_area(n - 2)
           * _angular_integral(n, r, s, t, core))
    return float(out) if out.ndim == 0 else out


def _lagrange_stencils(grid: RadialGrid, query: np.ndarray):
    """Local 4-point cubic Lagrange stencils in the grid's parameter coordinate.

    Returns (columns, weights), both shaped (len(query), 4); stencils clamp at
    the mesh ends, so slightly-outside queries extrapolate politely.  The
    denominators prod_{b!=a}(x_a - x_b) belong to the mesh's N-3 windows and
    are computed once per window, then looked up by each query's window.
    """
    xn = grid.parameter(grid.nodes)
    xq = grid.parameter(query)
    start = np.clip(np.searchsorted(xn, xq) - 2, 0, grid.size - 4)
    four = np.arange(4)
    windows = np.lib.stride_tricks.sliding_window_view(xn, 4)   # (N-3, 4)
    pair = windows[:, :, None] - windows[:, None, :]
    pair[:, four, four] = 1.0
    denom = np.prod(pair, axis=2)[start]            # (Q, 4)
    cols = start[:, None] + four[None, :]
    diff = xq[:, None] - xn[cols]                   # (Q, 4)
    full = np.prod(diff, axis=1)
    safe = np.where(diff == 0.0, 1.0, diff)
    weights = full[:, None] / (safe * denom)
    hits = diff == 0.0
    rows_hit = hits.any(axis=1)
    weights[rows_hit] = hits[rows_hit].astype(float)
    return cols, weights


def _diagonal_rules(r_out, t, in_grid: RadialGrid):
    """Rules resolving the kernel diagonal at each (r_out, t) and the data.

    Each point's breakpoints are its diagonal peak merged with a geometric
    ladder resolving the decades of the mesh itself.
    """
    peaks = peak_breaks(r_out, np.maximum(t, 1e-9), 0.0, in_grid.r_max)
    ladder = peak_breaks(0.0, in_grid.scale / 64.0, 0.0, in_grid.r_max)
    ladder = np.broadcast_to(ladder, (len(peaks), ladder.size))
    return composite_rules(np.sort(np.hstack([peaks, ladder]), axis=1),
                           _PANEL_ORDER)


def _kernel_matrix(kernel, out_nodes: np.ndarray, in_grid: RadialGrid,
                   t) -> np.ndarray:
    """Matrix taking in-grid samples to kernel integrals at out_nodes.

    ``kernel(r, s, t)`` is a ring kernel (of P_t or Q_t), broadcasting.
    ``t`` is one height per output node, or one height for all of them.
    Rows the mesh resolves are the plain grid rule; the others are
    diagonal-refined panels composed with the cubic stencils.
    """
    t = np.broadcast_to(np.asarray(t, dtype=float), out_nodes.shape)
    M = kernel(out_nodes[:, None], in_grid.nodes[None, :], t[:, None])
    M = M * in_grid.weights[None, :]
    flagged = np.nonzero(t < PEAK_FACTOR * in_grid.local_spacing(out_nodes))[0]
    if flagged.size == 0:
        return M
    s, w, offsets = _diagonal_rules(out_nodes[flagged], t[flagged], in_grid)
    rows = np.repeat(flagged, np.diff(offsets))
    coeff = w * kernel(out_nodes[rows], s, t[rows]) * s ** (in_grid.d - 1)
    cols, lw = _lagrange_stencils(in_grid, s)
    M[flagged, :] = 0.0
    np.add.at(M, (np.repeat(rows, 4), cols.ravel()),
              (coeff[:, None] * lw).ravel())
    return M


@dataclass(eq=False)
class PoissonOperator:
    """Discretized extension/dual pair on a fixed boundary x half-space mesh.

    Built once per n and mesh content by ``get_operator`` (equal meshes built
    separately share one operator).  Both directions are BLAS products that
    read the C-contiguous stacks in place: a stack holds 20 MB at N=160,
    N_t=96, so neither direction may copy or transpose it.
    """

    n: int
    boundary: RadialGrid
    halfspace: HalfspaceGrid
    matrices: np.ndarray          # (N_t, N_out, N_in), C-contiguous
    dual_matrices: np.ndarray     # (N_t, N_bnd, N_rad); same array if grids match

    def extend(self, f_values: np.ndarray) -> np.ndarray:
        """(Pf)(r_j, t_k) for boundary samples f, shape (N_r, N_t).

        One GEMV: the stack seen as an (N_t N_out, N_in) matrix (a view, as
        the stack is C-contiguous) times f; the result is returned as the
        transposed view of its (N_t, N_out) reshape.
        """
        n_t, n_out, n_in = self.matrices.shape
        flat = self.matrices.reshape(n_t * n_out, n_in)
        return (flat @ f_values).reshape(n_t, n_out).T

    def dual(self, u_values: np.ndarray) -> np.ndarray:
        """(Tu)(s_i) = sum_k wt_k (D[k] @ u[:, k]) for samples u(r_j, t_k).

        One batched matmul over the heights, each D[k] read in place against
        its weighted column of u, then a sum over k.
        """
        wt = self.halfspace.heights.weights
        v = (u_values * wt).T[:, :, None]             # (N_t, N_rad, 1)
        return np.matmul(self.dual_matrices, v).sum(axis=0)[:, 0]


_OPERATOR_CACHE: dict = {}
_CACHE_LIMIT = 12      # operators hold ~2 N_t N^2 doubles; cap the cache


def _mesh_key(grid: RadialGrid) -> tuple:
    """Everything the operator build reads from a mesh, compared by value."""
    return (grid.d, grid.mapping, grid.scale, grid.r_max,
            grid.nodes.tobytes(), grid.weights.tobytes())


def _matrix_stack(n: int, out_grid: RadialGrid, in_grid: RadialGrid,
                  heights: RadialGrid) -> np.ndarray:
    # one height per call: all heights at once would hold N_t N^2 temporaries
    return np.stack([_kernel_matrix(partial(ring_kernel, n), out_grid.nodes,
                                    in_grid, t) for t in heights.nodes])


def get_operator(n: int, boundary: RadialGrid,
                 halfspace: HalfspaceGrid) -> PoissonOperator:
    """The operator for (n, boundary mesh, half-space mesh), built on a miss.

    Keyed by mesh content, so it is shared by meshes built separately but
    equal; the cache keeps the last ``_CACHE_LIMIT`` operators.
    """
    if boundary.d != n - 1 or halfspace.n != n:
        raise DomainError("grid dimensions are inconsistent with n")
    radial, heights = halfspace.radial, halfspace.heights
    key = (n, _mesh_key(boundary), _mesh_key(radial), _mesh_key(heights))
    op = _OPERATOR_CACHE.get(key)
    if op is not None:
        return op
    mats = _matrix_stack(n, radial, boundary, heights)
    dual_mats = (mats if key[1] == key[2]
                 else _matrix_stack(n, boundary, radial, heights))
    op = PoissonOperator(n, boundary, halfspace, mats, dual_mats)
    if len(_OPERATOR_CACHE) >= _CACHE_LIMIT:
        _OPERATOR_CACHE.pop(next(iter(_OPERATOR_CACHE)))
    _OPERATOR_CACHE[key] = op
    return op


def _check_integrable(f: RadialFn) -> None:
    beta = f.tail_exponent
    if math.isnan(beta):
        beta = f.fitted_tail()
    if not math.isnan(beta) and beta <= 0.0:
        raise DivergenceError(
            f"boundary data with tail exponent {beta:.3g} <= 0 is not "
            "integrable against the kernel")


def poisson_extend(f: RadialFn, grid: HalfspaceGrid) -> AxisymFn:
    """Harmonic extension of radial boundary data onto a half-space mesh."""
    n = grid.n
    if f.grid.d != n - 1:
        raise DomainError("boundary data dimension does not match the mesh")
    _check_integrable(f)
    op = get_operator(n, f.grid, grid)
    return AxisymFn(grid, op.extend(f.values))


def dual_extend(u: AxisymFn, out_grid: RadialGrid) -> RadialFn:
    """(Tu)(s) = integral of P(x, s) u(x) dx sampled on a boundary mesh.

    The output mesh may differ from the half-space's radial mesh; the dual
    matrices then come from the operator of that mesh pair.
    """
    n = u.grid.n
    if out_grid.d != n - 1:
        raise DomainError("output grid dimension does not match the mesh")
    return RadialFn(out_grid, get_operator(n, out_grid, u.grid).dual(u.values))


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


def _kernel_mass_many(n: int, s_arr: np.ndarray, t: float) -> np.ndarray:
    """Quadrature of K(., s, t) r^(d-1) dr over (0, inf) for many s at once."""
    d = n - 1
    s_arr = np.asarray(s_arr, dtype=float)
    breaks = peak_breaks(s_arr, max(t, 1e-6), 0.0,
                         np.maximum(np.maximum(8.0 * s_arr, 64.0 * t), 16.0))
    r, w, offsets = composite_rules(breaks, 24,
                                    np.maximum(s_arr, max(t, 1.0)))
    s_rep = np.repeat(s_arr, np.diff(offsets))
    contrib = w * ring_kernel(n, r, s_rep, t) * r ** (d - 1)
    return np.add.reduceat(contrib, offsets[:-1])


def kernel_mass(n: int, s: float, t: float) -> float:
    """Quadrature of K(., s, t) r^(d-1) dr over (0, inf); exactly 1 in theory."""
    return float(_kernel_mass_many(n, np.asarray([s]), t)[0])


def slab_mass(f: RadialFn, a: float, n_heights: int = 24) -> float:
    """Integral of Pf over the slab {0 < x_n < a}.

    Computed honestly: the spatial integral at each height uses diagonal-
    refined panels (independently of the Fubini identity it is meant to
    check), then Gauss quadrature in the height.  For f >= 0 with unit mass
    the result equals a.
    """
    if a <= 0.0:
        raise DomainError(f"slab height must be positive, got {a}")
    if np.any(f.values < 0.0):
        raise DomainError("slab mass is defined for nonnegative data")
    _check_integrable(f)
    n = f.grid.d + 1
    x, w = gauss_legendre(n_heights)
    t_nodes = 0.5 * a * (x + 1.0)
    t_weights = 0.5 * a * w
    sphere = f.grid.sphere
    total = 0.0
    for t, wt in zip(t_nodes, t_weights):
        masses = _kernel_mass_many(n, f.grid.nodes, float(t))
        level = sphere * float(np.dot(f.grid.weights, f.values * masses))
        total += wt * level
    return total


def boundary_convolution(f: RadialFn, t: float,
                         kernel: str = "P") -> np.ndarray:
    """(P_t * f) or (Q_t * f) sampled on f's own grid (radial data only)."""
    if t <= 0.0:
        raise DomainError(f"height t must be positive, got {t}")
    rings = {"P": ring_kernel, "Q": qt_ring}
    if kernel not in rings:
        raise DomainError(f"unknown kernel {kernel!r}")
    ring = partial(rings[kernel], f.grid.d + 1)
    return _kernel_matrix(ring, f.grid.nodes, f.grid, t) @ f.values


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
    phif = RadialFn(f.grid, phi.values * f.values,
                    phi.value_at_zero * f.value_at_zero,
                    tail_exponent=f.tail_exponent)
    lhs = np.abs(boundary_convolution(phif, t)
                 - phi.values * boundary_convolution(f, t))
    rhs = phi_lip * t * boundary_convolution(f, t, kernel="Q")
    return float(np.max(lhs - rhs))
