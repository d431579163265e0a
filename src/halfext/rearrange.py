"""Symmetric decreasing rearrangement and convolution-norm monotonicity.

The rearrangement f* of a nonnegative sampled function is computed in
measure space, from the distribution function ``grids.distribution``: the
values in decreasing order (stable, so ties keep their original order and
the result is deterministic) and the running total mu of their cell
measures.  f* takes the k-th value on the shell between the discs of area
mu[k-1] and mu[k], so equimeasurability and L^p preservation are exact up
to float summation order.

riesz_gain quantifies the convolution-norm monotonicity
|P_t * f|_q <= |P_t * f*|_q.  Both norms are evaluated through the same
direct planar quadrature route (n = 3 boundaries only), so the comparison is
exact for already-radial data and the systematic quadrature bias cancels in
the difference.

The planar convolution sums P_t(|x - y|) over every pair of polar cells, but
the mesh is invariant under rotation by one angular cell: the kernel rows of
the targets at one angle are those of any other angle with the sources
rotated.  It therefore evaluates N_r^2 m kernel entries (the targets at the
first angle) in place of (N_r m)^2, and applies them to the m rotations of
the data with one matrix product.  This is the same cell quadrature with the
same terms, not an angular Fourier expansion.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grids import PolarFn, PolarGrid, RadialFn, distribution
from .kernel import pt_profile, unit_ball_volume
from .quadrature import blocks


def symmetric_rearrangement(f: PolarFn) -> RadialFn:
    """Radial non-increasing rearrangement of planar data, on f's radial mesh.

    The output is the layer-cake step function evaluated at the mesh nodes.
    """
    if not isinstance(f, PolarFn):
        raise DomainError("expected a PolarFn")
    if np.any(f.values < 0.0):
        raise DomainError("rearrangement is defined for nonnegative data")
    grid = f.grid.radial
    v, mu = distribution(f.values, f.grid.cell_measures())
    rho = (mu / unit_ball_volume(2)) ** (1.0 / 2)
    idx = np.searchsorted(rho, grid.nodes, side="left")
    vals = np.where(idx < v.size, v[np.minimum(idx, v.size - 1)], 0.0)
    return RadialFn(grid, vals, value_at_zero=float(v[0]),
                    tail_exponent=np.inf, nonnegative=True)


def planar_convolution(f: PolarFn, t: float) -> PolarFn:
    """(P_t * f) at f's own cells by direct cell quadrature, P_t of R^3_+.

    The polar angles are uniform midpoints, so the kernel rows of the targets
    at angle index j are those at angle index 0 with the sources rotated by
    j cells.  Only the angle-0 block ``block[i, k, l] = P_t(|x(i,0) - x(k,l)|)``
    is evaluated (N_r^2 m entries, distances from the Cartesian points), and
    one GEMM applies it to the m cyclic shifts of the weighted source:
    ``out[i, j] = sum_{k,d} block[i, k, d] src[k, (j + d) mod m]``.  It is
    filled ``quadrature._BLOCK`` entries at a time, the same bits in any.
    """
    return _convolve(_kernel_block(f.grid, t), f)


def _kernel_block(grid: PolarGrid, t: float) -> np.ndarray:
    # block[i, k * m + l] = P_t(|x(i,0) - x(k,l)|), (N_r, N_r m)
    if t <= 0.0:
        raise DomainError(f"height t must be positive, got {t}")
    x, y = grid.points()
    n_r, m = x.shape
    block = np.empty((n_r, n_r * m))
    for lo, hi in blocks(np.full(n_r, n_r * m)):
        dx = x[lo:hi, 0, None, None] - x
        dy = y[lo:hi, 0, None, None] - y
        block[lo:hi].flat = pt_profile(3, t, np.sqrt(dx * dx + dy * dy))
    return block


def _convolve(block: np.ndarray, f: PolarFn) -> PolarFn:
    # the GEMM of ``planar_convolution`` with a built block
    n_r, m = f.values.shape
    src = f.values * f.grid.cell_measures()
    shift = np.arange(m)
    # [k, d, j], C-ordered so that the GEMM reads it without a copy
    shifts = np.take(src, (shift[:, None] + shift[None, :]) % m, axis=1)
    return PolarFn(f.grid, block @ shifts.reshape(n_r * m, m))


def radial_to_polar(f: RadialFn, pg: PolarGrid) -> PolarFn:
    """Expand a radial function as a constant-in-angle field on its own mesh."""
    if pg.radial is not f.grid:
        raise DomainError("the polar grid must be built on f's radial mesh")
    return PolarFn(pg, np.repeat(f.values[:, None], pg.n_angles, axis=1))


def riesz_gain(f: PolarFn, t: float, q: float) -> float:
    """|P_t * f*|_q - |P_t * f|_q over the boundary plane (>= 0 in theory).

    Both terms use the same planar quadrature; in particular the gain is
    exactly zero (not merely small up to quadrature) for radial
    non-increasing input, whose rearrangement reproduces the samples.
    """
    if q < 1.0:
        raise DomainError(f"q must be >= 1, got {q}")
    fstar = radial_to_polar(symmetric_rearrangement(f), f.grid)
    block = _kernel_block(f.grid, t)        # one block for f and f*
    norm_orig = _convolve(block, f).lp_norm(q)
    norm_star = _convolve(block, fstar).lp_norm(q)
    return float(norm_star - norm_orig)
