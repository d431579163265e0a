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
Tu reads M[k] @ u[:, k].  It is held as two float32 halves (Dekker's split,
fl32(M) and the remainder): the Euler-Lagrange loop reads the high half
alone, pointwise Pf and Tu both, summed in float64 a height at a time.

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
c - a - b = 1, so 2F1 stays finite as m -> 1 (s -> r, t -> 0).  Both are
summed on numpy alone from w = 1 - m, which does not cancel as m -> 1: E by
Cephes' minimax pair, 2F1 by its Gauss or log series after the quadratic
transformation DLMF 15.8.13 (``_ring_log``).  The angular integral on
Gauss-Legendre panels (``method="gl"``, refined toward theta = 0, where the
integrand peaks as t -> 0) is kept as the oracle.

As t -> 0 the kernel concentrates in an O(t) spike at s = r.  Rows whose
height the radial mesh cannot resolve sum geometrically refined panels
around the diagonal (width t at s = r, growing by 8; below r/2 merged with a
ladder resolving the mesh's decades) per window of 4 nodes into moments of
y^0..y^3, contracted with the window's cubic basis: a plain matrix.  One row
rule, ``_kernel_matrix``, builds the stack, the polar rows and ``extend_at``,
each row on its own, so they agree row for row, bitwise.  Every per-point
panel quadrature here (refined rows, kernel masses, the gl angular integral)
builds its rules and evaluates its integrand in the runs of at most
``quadrature._BLOCK`` nodes that ``quadrature.rule_runs`` walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DivergenceError, DomainError
from .grids import (POLAR_PHI, POLAR_RHO, AxisymFn, HalfspaceGrid, RadialFn,
                    RadialGrid, mesh_n, polar_halfspace_rule)
from .kernel import kernel_constant, sphere_area
from .quadrature import (GROW, blocks, half_line_rule, panel_rule,
                         peak_breaks, rule_runs)

# rows with height below PEAK_FACTOR * (local mesh spacing) get refined panels
PEAK_FACTOR = 6.0
_PANEL_ORDER = 16
# growth of the refined rows' panels away from the diagonal s = r
_DIAGONAL_GROW = 8.0
_RING_ORDER = 24


# E(m) = P(x) - x log(x) Q(x), x = 1 - m: the minimax pair of Cephes'
# ellpe.c, listed from the highest degree as there
_ELLIPE_P = (
    1.535525773010133e-4, 2.5088849216360204e-3, 8.687868165658896e-3,
    1.0735094905607619e-2, 7.773954925167871e-3, 7.583952894135147e-3,
    1.1568843681057412e-2, 2.1831799601555724e-2, 5.680519456178606e-2,
    4.4314718056099084e-1, 1.0)[::-1]
_ELLIPE_Q = tuple(-c for c in (
    3.2795489857648585e-5, 1.0096279267935672e-3, 6.506094899769275e-3,
    1.6886216399331133e-2, 2.6176974245449364e-2, 3.348339048882249e-2,
    4.271809265189315e-2, 5.85936634471101e-2, 9.374999971976443e-2,
    2.499999999998883e-1))[::-1]
# Gauss series are summed on [0, 0.6], the ring kernel's log series on [0, 0.4]
_GAUSS_MAX = 0.6


def _horner(c, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[...] = c[-1]
    # one side of _ring_hyp's split is often empty: skip its numpy calls
    for ck in c[-2::-1] if x.size else ():
        out *= x
        out += ck
    return out


def _log_poly(x, p, q) -> np.ndarray:
    # p(x) + x log(x) q(x) for coefficients p, q from degree 0 up, over the
    # whole array (callers pass one block) with two temporaries of its size;
    # an empty q drops the log part.  x log x -> 0 at x = 0; the clamp
    # changes no x above 1e-300
    x = np.asarray(x, dtype=float)
    out = _horner(p, x, np.empty(x.shape))
    if q:
        xlogx = np.maximum(x, 1e-300, out=np.empty(x.shape))
        np.log(xlogx, out=xlogx)
        xlogx *= x
        xlogx *= _horner(q, x, np.empty(x.shape))
        out += xlogx
    return out


@lru_cache
def _series(z: float, first: float, a, b, c, d) -> tuple:
    # t_0 = first, t_{k+1} = t_k (a+k)(b+k) / ((c+k)(d+k)), up to the first
    # t_k z^k below 1e-17 |t_0| with a ratio times z below 3/4: the power
    # series to roundoff on [0, z]
    t, r = [first], math.inf
    while abs(r) * z >= 0.75 or abs(t[-1] / first) * z ** (len(t) - 1) > 1e-17:
        k = len(t) - 1
        r = (a + k) * (b + k) / ((c + k) * (d + k))
        t.append(t[-1] * r)
    return tuple(t)


def hyp2f1(a: float, b: float, c: float, z) -> np.ndarray:
    """2F1(a, b; c; z) on 0 <= z <= 0.6: its Gauss series, to roundoff."""
    return _log_poly(z, _series(_GAUSS_MAX, 1.0, a, b, c, 1.0), ())


@lru_cache
def _ring_log(h: float) -> tuple:
    # B(h, h) 2F1(h-1, h; 2h; 1-w) = (1+w)^(1-h) 2^(h-1) B(h, h) F(x), the
    # quadratic transformation DLMF 15.8.13, with F = 2F1(a, b; a+b+1; x),
    # x = ((1-w)/(1+w))^2, a = (h-1)/2, b = h/2.  For y = 1 - x = 4w/(1+w)^2
    # <= 0.4, DLMF 15.8.10 (c - a - b = 1) gives 2^(h-1) B(h, h) F =
    # (1/h) [1 + a b sum_k e_k y^(k+1) (log y + d_k)] with e_k = (a+1)_k
    # (b+1)_k / (k! (k+1)!), d_k = psi(a+1+k) + psi(b+1+k) - psi(k+1) -
    # psi(k+2), and d_0 = 2 (psi(h+1) + gamma) - 2 log 2 - 1 by the
    # duplication formula.  Its terms grow like k^(h-3/2) y^k; those of the
    # same series in w grow like k^(2h-2) w^k, and their cancellation costs
    # 3e-12 at h = 3.5 on w <= 1/2.  Returns (p, q), degree 0 up.
    a, b = 0.5 * (h - 1.0), 0.5 * h
    e = np.array(_series(1.0 - _GAUSS_MAX, a * b / h, a + 1, b + 1, 1, 2))
    # psi(h+1) + gamma, from psi(1) + gamma = 0 or psi(1/2) + gamma = -log 4
    psi = np.sum(1 / np.arange(h % 1 or 1, h + 0.5)) - math.log(4) * (h % 1 > 0)
    k = np.arange(e.size)
    step = 1 / (a + 1 + k) + 1 / (b + 1 + k) - 1 / (k + 1.0) - 1 / (k + 2.0)
    d = 2.0 * psi - math.log(4.0) - 1.0 + np.cumsum(step) - step
    return tuple(np.append(1.0 / h, e * d)), tuple(e)


def _ring_hyp(h: float, w) -> np.ndarray:
    # B(h, h) 2F1(h-1, h; 2h; 1-w) on 0 < w <= 1 for h = n/2 - 1, n >= 5:
    # the Gauss series in x = ((1-w)/(1+w))^2 <= 0.6, the log series below;
    # w is a numpy array or scalar
    x = ((1.0 - w) / (1.0 + w)) ** 2
    far = x <= _GAUSS_MAX
    out = np.empty_like(w)
    beta = math.exp(2.0 * math.lgamma(h) - math.lgamma(2.0 * h))
    out[far] = 2.0 ** (h - 1.0) * beta * hyp2f1(0.5 * h - 0.5, 0.5 * h,
                                                   h + 0.5, x[far])
    out[~far] = _log_poly((4.0 * w / (1.0 + w) ** 2)[~far], *_ring_log(h))
    return out * (1.0 + w) ** (1.0 - h)


def _ring_closed(n: int, r, s, t):
    r, s, t = (np.asarray(x, dtype=float) for x in (r, s, t))
    amm = (r - s) ** 2 + t * t
    app = (r + s) ** 2 + t * t
    if n == 2:
        return (t / np.pi) * (1.0 / amm + 1.0 / app)
    if n == 3:
        ell = _log_poly(amm / app, _ELLIPE_P, _ELLIPE_Q)
        ell *= (t / np.pi) * 2.0
        ell /= amm * np.sqrt(app)
        return ell
    if n == 4:
        return 4.0 * t / (np.pi * amm * app)
    # n >= 5: B(h, h) 2F1(h-1, h; 2h; m) with h = n/2 - 1
    h = 0.5 * n - 1.0
    c = kernel_constant(n) * sphere_area(n - 2) * 2.0 ** (n - 3)
    return c * t * _ring_hyp(h, amm / app) / (amm * app ** h)


def _angular_integral(n: int, r, s, t, k: int) -> np.ndarray:
    """Per entry, integral of |z|^k (|z|^2 + t^2)^(-n/2) sin(theta)^(n-3)
    over theta in (0, pi), with |z|^2 = (r-s)^2 + 4 r s sin(theta/2)^2.

    |z| is the distance from a point at radius r to the point of the ring
    of radius s at polar angle theta, free of cancellation; k = 0 gives the
    ring integral of P_t and k = 1 that of Q_t.  Panels are refined
    geometrically toward theta = 0, where the integrand peaks with width
    sqrt(((r-s)^2 + t^2) / (r s)) as t -> 0.
    """
    r, s, t = np.broadcast_arrays(np.asarray(r, float), np.asarray(s, float),
                                  np.asarray(t, float))
    shape, rr, ss, tt = r.shape, r.ravel(), s.ravel(), t.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.sqrt(((rr - ss) ** 2 + tt * tt) / (rr * ss))
    width = np.where((rr * ss > 0.0) & (width < np.pi / 2.0), width, np.pi)
    out = np.empty(rr.size)
    runs = rule_runs(lambda e: peak_breaks(0.0, width[e], 0.0, np.pi, GROW),
                     np.arange(rr.size), _RING_ORDER, 0)
    for e, th, w, offsets in runs:
        r, s, t = rr[e], ss[e], tt[e]
        i = np.repeat(np.arange(e.size), np.diff(offsets))
        z2 = ((r - s) ** 2)[i] + (4.0 * r * s)[i] * np.sin(0.5 * th) ** 2
        vals = w * z2 ** (0.5 * k) * (z2 + (t * t)[i]) ** (-0.5 * n)
        if n != 3:
            vals *= np.sin(th) ** (n - 3)
        out[e] = np.add.reduceat(vals, offsets[:-1])
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
    out = (kernel_constant(n) * np.asarray(t, float) * sphere_area(n - 2)
           * _angular_integral(n, r, s, t, 0))
    return float(out) if out.ndim == 0 else out


def qt_ring(n: int, r, s, t):
    """Ring reduction of Q_t (used by the commutator bound)."""
    if n == 2:
        r, s, t = (np.asarray(x, dtype=float) for x in (r, s, t))
        out = kernel_constant(2) * (np.abs(r - s) / ((r - s) ** 2 + t * t)
                                    + (r + s) / ((r + s) ** 2 + t * t))
        return float(out) if out.ndim == 0 else out
    out = (kernel_constant(n) * sphere_area(n - 2)
           * _angular_integral(n, r, s, t, 1))
    return float(out) if out.ndim == 0 else out


def _window_cubics(grid: RadialGrid):
    """(centre, inv_h, basis): the cubic Lagrange basis of each window j of
    4 mesh nodes, j..j+3; node j+a weighs sum_m basis[j, a, m] y^m at
    y = (x - centre[j]) * inv_h[j], x the parameter coordinate."""
    x = np.lib.stride_tricks.sliding_window_view(grid.parameter(grid.nodes), 4)
    centre, inv_h = 0.5 * (x[:, 1] + x[:, 2]), 1.0 / (x[:, 2] - x[:, 1])
    y = (x - centre[:, None]) * inv_h[:, None]
    basis = np.empty(y.shape + (4,))
    for a in range(4):
        p, q, u = np.delete(y, a, axis=1).T
        basis[:, a] = np.transpose([-p * q * u, p * q + p * u + q * u,
                                    -(p + q + u), np.ones_like(p)]) \
            / ((y[:, a] - p) * (y[:, a] - q) * (y[:, a] - u))[:, None]
    return centre, inv_h, basis


def _diagonal_breaks(r_out, t, r_max: float, ladder: np.ndarray):
    """Breakpoints resolving the kernel diagonal at each (r_out, t) and the
    data, one row per point: the peak at s = r (width t, growing by 8) and,
    below r/2 only, the mesh's ``ladder`` of decades (1/64, growing by 4).
    """
    peaks = peak_breaks(r_out, np.maximum(t, 1e-9), 0.0, r_max,
                        _DIAGONAL_GROW)
    # from r/2 up the peak's own panels cover every decade: ladder points
    # there become zeros, zero-width panels that composite_rules skips
    ladder = np.where(ladder < 0.5 * r_out[:, None], ladder, 0.0)
    return np.sort(np.hstack([peaks, ladder]), axis=1)


def _refined_rows(kernel, out_nodes, t, refine, in_grid: RadialGrid, write):
    """Write the rows ``refine`` (indices) by the refined rule of
    ``_kernel_matrix``, in runs of at most ``quadrature._BLOCK`` nodes."""
    n_in, xn = in_grid.size, in_grid.parameter(in_grid.nodes)
    centre, inv_h, basis = _window_cubics(in_grid)
    ladder = peak_breaks(0.0, 1.0 / 64.0, 0.0, in_grid.r_max, GROW)
    runs = rule_runs(
        lambda i: _diagonal_breaks(out_nodes[i], t[i], in_grid.r_max, ladder),
        refine, _PANEL_ORDER, 0)
    for rows, s, w, offsets in runs:
        r, tr = out_nodes[rows], t[rows]
        row = np.repeat(np.arange(rows.size), np.diff(offsets))
        # each node's window, and a new list of moments, before the kernel
        # call: the last run's arrays go before the call makes its own
        y = in_grid.parameter(s)
        start = np.clip(np.searchsorted(xn, y) - 2, 0, n_in - 4)
        y -= centre[start]
        y *= inv_h[start]
        moments = []
        term = w * kernel(r[row], s, tr[row])
        term *= s ** (in_grid.d - 1)
        row = row * (n_in - 3) + start        # each node's (row, window)
        for _ in range(4):
            moments.append(np.bincount(row, term, rows.size * (n_in - 3))
                           .reshape(rows.size, n_in - 3))
            term *= y
        refined = np.zeros((rows.size, n_in))
        for c in range(4):
            part = moments[0] * basis[:, c, 0]
            for m in range(1, 4):
                part += moments[m] * basis[:, c, m]
            refined[:, c:c + n_in - 3] += part
        write(rows, refined)


def _kernel_matrix(kernel, out_nodes: np.ndarray, in_grid: RadialGrid,
                   t) -> np.ndarray:
    """Matrix taking in-grid samples to kernel integrals at out_nodes.

    ``kernel(r, s, t)`` is a ring kernel (of P_t or Q_t), broadcasting; ``t``
    is one height per output node, or one for all.  Rows the mesh resolves
    are the plain grid rule; the others sum refined terms times y^m per
    (row, window) in node order (``np.bincount``) and contract them with
    ``_window_cubics`` (``_refined_rows``).  Plain rows go in blocks of at
    most N (a stack height) and ``quadrature._BLOCK`` kernel entries;
    refined rows in runs of at most ``_BLOCK`` nodes across heights, each
    row on its own: its bits depend on neither.
    """
    M = np.empty((np.size(out_nodes), in_grid.size))
    _write_rows(kernel, out_nodes, in_grid, t, M.__setitem__)
    return M


def _write_rows(kernel, out_nodes, in_grid: RadialGrid, t, write) -> None:
    # the rows of _kernel_matrix, each block handed to write(rows, block)
    t = np.broadcast_to(np.asarray(t, dtype=float), out_nodes.shape)
    refine = t < PEAK_FACTOR * in_grid.local_spacing(out_nodes)
    # refined rows first, in a call of their own: their runs' temporaries
    # are freed before the plain rows make the rest of a stack resident
    # (the stack's 2 MB huge pages; a build's peak RSS)
    _refined_rows(kernel, out_nodes, t, np.flatnonzero(refine), in_grid,
                  write)
    # plain rows per block: at most one height of the stack, whose ring-kernel
    # call per height bench/test_bench.py counts, and at most _BLOCK entries
    step = blocks(np.full(in_grid.size, in_grid.size))[0][1]
    for lo in range(0, out_nodes.size, step):
        plain = lo + np.flatnonzero(~refine[lo:lo + step])
        if plain.size:
            write(plain, kernel(out_nodes[plain, None], in_grid.nodes[None, :],
                                t[plain, None]) * in_grid.weights)


@dataclass(eq=False)
class PoissonOperator:
    """Discretized extension/dual pair: one square stack M, read both ways.

    M is held as Dekker's split, ``matrices`` = fl32(M) and ``low`` =
    fl32(M - matrices), C-contiguous float32: 20 MB at N=160, N_t=96, a
    float64 stack's bytes.  The loop's ``extend`` and ``dual`` read
    ``matrices`` alone by float32 BLAS, once for a whole batch;
    ``poisson_extend`` and ``dual_extend`` read M a float64 ``height`` at a
    time, ``extension_norm`` the 1.3 MB of float64 polar rows.  Built once
    per n and mesh content by ``get_operator``, whose cache holds operators
    up to a byte budget; the row rule writes both halves block by block, so
    a build holds about 4.6 MB of temporaries beside them (n=3, N=160).
    """

    halfspace: HalfspaceGrid
    matrices: np.ndarray          # (N_t, N, N) float32, C-contiguous: fl32(M)
    low: np.ndarray               # (N_t, N, N) float32: fl32(M - matrices)
    polar_rows: np.ndarray        # (POLAR_PHI * POLAR_RHO, N), ray by ray
    polar_weights: np.ndarray     # (POLAR_PHI * POLAR_RHO,)

    @property
    def dual_matrices(self) -> np.ndarray:
        # the stack the dual reads, under the name the benchmark hooks use
        return self.matrices

    def extend(self, f_values: np.ndarray) -> np.ndarray:
        """(Pf)(r_j, t_k), shape (N, N_t), or (N, N_t, B) for a batch f
        (N, B): sgemm on ``matrices`` for all ``_unit_columns(f)`` at once;
        float64 out, each column a contiguous (N_t, N) block in memory."""
        f32, scale = _unit_columns(np.reshape(f_values, (len(f_values), -1)))
        pf = np.multiply(np.matmul(self.matrices, f32).transpose(2, 0, 1),
                         scale[:, None, None], order="C").transpose(2, 1, 0)
        return pf.reshape(pf.shape[:2] + np.shape(f_values)[1:])

    def dual(self, u_values: np.ndarray) -> np.ndarray:
        """(Tu)(s_i) = sum_k wt_k (M[k] @ u[:, k]), shape (N,), or (N, B)
        for a batch u (N, N_t, B): one sgemm per height on ``matrices`` for
        all ``_unit_columns(u)``, then the sum over k in float64."""
        u, scale = _unit_columns(u_values.reshape(u_values.shape[:2] + (-1,)))
        v = np.swapaxes(u, 0, 1)                            # (N_t, N, B)
        products = np.matmul(self.matrices, v).reshape(len(v), -1)
        Tu = (self.halfspace.heights.weights @ products).reshape(len(u), -1)
        return (Tu * scale).reshape(u_values.shape[:1] + u_values.shape[2:])

    def height(self, k: int) -> np.ndarray:
        """M[k] in float64 from both halves, for the pointwise paths."""
        return np.add(self.matrices[k], self.low[k], dtype=float)


# (x / s in float32, s), s the largest |entry| of each column of x (..., B),
# 1 for a zero column: the cast cannot overflow, and a times x casts to the
# same float32 as x (but where a float64 rounding of x / s crosses a float32
# tie), so the loop's sides scale with the iterate's amplitude; an entry that
# casts below float32's smallest normal is 0 (sgemm on a subnormal is slow)
def _unit_columns(x: np.ndarray) -> tuple:
    top = np.abs(x).max(axis=tuple(range(x.ndim - 1)))
    scale = np.where(top > 0.0, top, 1.0)
    # in x's memory order: the loop's batch axis is not the innermost
    unit = np.divide(x, scale, out=np.empty_like(x, np.float32))
    unit[np.abs(unit) < np.finfo(np.float32).tiny] = 0.0
    return unit, scale


_OPERATOR_CACHE: dict = {}     # least recently used first
_CACHE_BYTES = 64 * 2 ** 20    # budget of stacks and polar rows held
# get_operator's traffic since import: the CLI reports one run's deltas
CACHE_COUNTS = {"builds": 0, "hits": 0, "evictions": 0}


def operator_nbytes(halfspace: HalfspaceGrid) -> int:
    """Bytes of the stack and polar rows an operator on this mesh holds."""
    n_r, n_t = halfspace.radial.size, halfspace.heights.size
    return 8 * n_r * (n_t * n_r + POLAR_RHO * POLAR_PHI)


def cache_held_bytes() -> int:
    """Bytes the operator cache holds, ``operator_nbytes`` of each mesh."""
    return sum(operator_nbytes(op.halfspace)
               for op in _OPERATOR_CACHE.values())


def _mesh_key(grid: RadialGrid) -> tuple:
    """Everything the operator build reads from a mesh, compared by value."""
    return (grid.d, grid.nodes.tobytes(), grid.weights.tobytes())


def _matrix_stack(n: int, grid: RadialGrid, heights: RadialGrid) -> tuple:
    # the rows of every height, each block split as the row rule writes it:
    # the float32 high part and the float32 remainder of the float64 rows
    shape = (heights.size * grid.size, grid.size)
    high, low = np.empty(shape, np.float32), np.empty(shape, np.float32)

    def split(rows, block):
        high[rows] = block
        block -= high[rows]
        low[rows] = block

    _write_rows(partial(ring_kernel, n), np.tile(grid.nodes, heights.size),
                grid, np.repeat(heights.nodes, grid.size), split)
    shape = (heights.size, grid.size, grid.size)
    return high.reshape(shape), low.reshape(shape)


def get_operator(n: int, boundary: RadialGrid,
                 halfspace: HalfspaceGrid) -> PoissonOperator:
    """The operator for (n, half-space mesh), built on a miss.

    ``boundary`` must equal the radial mesh in content (DomainError if not).
    Keyed by mesh content, so meshes built separately but equal share one
    operator; the cache keeps the most recently used operators that fit in
    ``_CACHE_BYTES``, and always the newest, even one over it alone.
    """
    mesh_n(n, halfspace.radial)
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
    polar = _kernel_matrix(partial(ring_kernel, n), r.ravel(), radial,
                           t.ravel())
    op = PoissonOperator(halfspace, *_matrix_stack(n, radial, heights),
                         polar, weights.ravel())
    CACHE_COUNTS["builds"] += 1
    _OPERATOR_CACHE[key] = op
    return op


def check_integrable(beta) -> None:
    """DivergenceError unless the kernel integrates each tail r^-beta."""
    if np.any(beta <= 0.0):
        raise DivergenceError(
            f"boundary data with tail exponent {np.nanmin(beta):.3g} <= 0 is "
            "not integrable against the kernel")


def poisson_extend(f: RadialFn, grid: HalfspaceGrid) -> AxisymFn:
    """Harmonic extension of radial boundary data onto a half-space mesh."""
    check_integrable(f.tail())
    op = get_operator(grid.n, f.grid, grid)
    return AxisymFn(grid, np.stack([op.height(k) @ f.values for k in
                                    range(grid.heights.size)], axis=1))


def extension_norm(f: RadialFn, q: float, halfspace: HalfspaceGrid):
    """|Pf|_{L^q(R^n_+)} on the polar half-space rule (``polar_rows`` @ f).

    Its tan map reaches rho = inf, where |Pf| ~ rho^-beta, beta = min(tail of
    f, n-1), makes the mapped integrand ~ (pi/2 - theta)^(q beta - n - 1), so
    q beta < n + 1 raises DivergenceError: a far field the rule cannot take.
    A batch gets one norm per column from one product with the polar rows;
    its slowest tail gates it."""
    n = halfspace.n
    beta = np.minimum(f.tail(), n - 1.0).min()
    if q * beta < n + 1 - 1e-6:     # slack: fit noise at critical decay
        raise DivergenceError(
            f"far field of Pf too slow for the polar rule: q*beta = "
            f"{q * beta:.4g} < n + 1 (L^{q}, |Pf| ~ |x|^-{beta:.4g})")
    op = get_operator(n, f.grid, halfspace)
    return (op.polar_weights @ np.abs(op.polar_rows @ f.values) ** q) \
        ** (1 / q)


def dual_extend(u: AxisymFn) -> RadialFn:
    """(Tu)(s) = integral of P(x, s) u(x) dx on the half-space's radial mesh.

    The dual reads the same square stack as the extension, so its output
    lives on ``u.grid.radial``, the mesh boundary data is extended from.
    """
    radial, wt = u.grid.radial, u.grid.heights.weights
    op = get_operator(u.grid.n, radial, u.grid)
    return RadialFn(radial, sum(wt[k] * (op.height(k) @ u.values[:, k])
                               for k in range(wt.size)))


def extend_at(f: RadialFn, r, t) -> np.ndarray:
    """Pointwise (Pf)(r, t) at arbitrary heights t > 0 (no mesh in t).

    Each point is one row of the operator's row rule at its own height, so
    at the nodes of a half-space mesh this equals ``poisson_extend``.
    """
    check_integrable(f.tail())
    r, t = np.broadcast_arrays(np.atleast_1d(np.asarray(r, dtype=float)),
                               np.atleast_1d(np.asarray(t, dtype=float)))
    if np.any(t <= 0.0):
        raise DomainError("heights must be positive")
    rows = _kernel_matrix(partial(ring_kernel, f.grid.d + 1), r.ravel(),
                          f.grid, t.ravel())
    return (rows @ f.values).reshape(r.shape)


def kernel_mass(n: int, s, t) -> np.ndarray:
    """Quadrature of K(., s, t) r^(n-2) dr over (0, inf), one per entry of s
    and t, which broadcast (s at least 1-D); exactly 1 in theory.

    24-point panels around the peak r = s (width t, growing by the diagonal's
    ``_DIAGONAL_GROW``) cover [0, top], top = max(2s, 8t, 2), and a 24-point
    tan-mapped tail scaled to top covers [top, inf).  Entries go in runs of
    at most ``quadrature._BLOCK`` nodes (``rule_runs``), each on its own.
    """
    s, t = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=float)),
                               np.asarray(t, dtype=float))
    shape, s, t = s.shape, s.ravel(), t.ravel()
    top = np.maximum(np.maximum(2.0 * s, 8.0 * t), 2.0)
    width, out = np.maximum(t, 1e-6), np.empty(s.size)
    # the nodes of an entry: 24 per nonempty panel and 24 of the tail
    runs = rule_runs(lambda e: peak_breaks(s[e], width[e], 0.0, top[e],
                                           _DIAGONAL_GROW),
                     np.arange(s.size), 24, 24)
    for e, r, w, offsets in runs:
        rep = np.diff(offsets)
        contrib = w * ring_kernel(n, r, np.repeat(s[e], rep),
                                  np.repeat(t[e], rep)) * r ** (n - 2)
        r, w = half_line_rule(top[e, None], top[e, None], 24)
        tail = w * ring_kernel(n, r, s[e, None], t[e, None]) * r ** (n - 2)
        out[e] = np.add.reduceat(contrib, offsets[:-1]) + tail.sum(axis=1)
    return out.reshape(shape)


def slab_mass(profiles, a: float) -> np.ndarray:
    """Integrals of Pf over the slab {0 < x_n < a}, one per profile.

    ``profiles`` is a sequence of nonnegative integrable RadialFn on one
    mesh.  Computed honestly, apart from the Fubini identity it checks: at
    each of 24 Gauss heights t, ``kernel_mass``'s rule (panels growing by 8
    from width t at r = s up to max(2s, 8t, 2), then a tail scaled to that
    top) integrates the kernel.  The slab integral is linear in f and its
    kernel masses depend only on the mesh and a, so the per-node weights
    ``sphere * weights * sum_t wt * masses_t`` are built once, from one
    ``kernel_mass`` call over every (t, s) pair summed over t in node order,
    and each profile costs one dot product.  For unit mass it reads a.
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
        check_integrable(f.tail())
    n = grid.d + 1
    t_nodes, t_weights = panel_rule(0.0, a, 24)
    # one pass over the slab's (t, s) pairs, summed over t in node order
    masses = sum(wt * m for wt, m in
                 zip(t_weights, kernel_mass(n, grid.nodes, t_nodes[:, None])))
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
