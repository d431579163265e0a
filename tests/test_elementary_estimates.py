"""Finite-sweep verification of the elementary single-height estimates.

Three bounds with unspecified constants are checked empirically: the
compensated ratios are computed over parameter sweeps and must stay bounded
with the predicted scaling, the constants themselves being outputs rather
than assertions (they have no closed form).
"""

import numpy as np
import pytest

from halfext.extension import extend_at
from halfext.grids import RadialFn, build_radial_grid, lp_norm_boundary, \
    sample_radial


@pytest.fixture(scope="module")
def grid():
    return build_radial_grid(2, 160, "tan", 1.0)


def _single_height_norm(g_vals, grid, p):
    f = RadialFn(grid, np.abs(g_vals), tail_exponent=np.inf)
    return lp_norm_boundary(f, p)


def test_young_type_height_decay(grid):
    # |P_t * f|_q <= c t^(-(n-1)(1/p - 1/q)) |f|_p: for p = 1 the
    # compensated ratio tends to the kernel constant as t grows
    f = sample_radial(grid, lambda r: np.exp(-r ** 2), nonnegative=True)
    p, q = 1.0, 2.0
    decay = -(3 - 1) * (1 / p - 1 / q)
    norm_f = lp_norm_boundary(f, p)
    ratios = []
    for t in np.geomspace(0.25, 64.0, 9):
        conv = extend_at(f, grid.nodes, float(t))
        ratios.append(_single_height_norm(conv, grid, q)
                      / (t ** decay * norm_f))
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
    # bounded sweep, and the t -> inf limit stabilizes (kernel dominance)
    assert np.max(ratios) / np.min(ratios) < 10.0
    assert ratios[-1] == pytest.approx(ratios[-2], rel=0.05)


def test_exterior_support_bound(grid):
    # f vanishing inside radius R: sup over B_{R/2} of P_t * f decays like
    # t * R^(-(n-1)/p - 1) |f|_p; the compensated constant is R-stable
    p = 2.0
    t = 0.5
    consts = []
    for R in (2.0, 4.0, 8.0, 16.0):
        vals = np.where(grid.nodes >= R,
                        (grid.nodes / R) ** -4.0, 0.0)
        f = RadialFn(grid, vals, value_at_zero=0.0, tail_exponent=4.0,
                     nonnegative=True)
        conv = extend_at(f, grid.nodes, t)
        inner = grid.nodes <= R / 2
        sup_inner = float(np.max(conv[inner]))
        consts.append(sup_inner
                      / (t * R ** (-(3 - 1) / p - 1)
                         * lp_norm_boundary(f, p)))
    consts = np.asarray(consts)
    assert np.all(np.isfinite(consts)) and np.all(consts > 0.0)
    assert np.max(consts) / np.min(consts) < 4.0


def test_compact_support_envelope(grid):
    # f supported in |xi| <= R: |(P_t * f)(xi)| is controlled by
    # c(n) t |f|_1 / (((|xi| - R)^+)^2 + t^2)^(n/2) for every xi
    R = 1.5
    vals = np.where(grid.nodes <= R,
                    np.maximum(1.0 - (grid.nodes / R) ** 2, 0.0), 0.0)
    f = RadialFn(grid, vals, value_at_zero=1.0, tail_exponent=np.inf,
                 nonnegative=True)
    mass = lp_norm_boundary(f, 1.0)
    for t in (0.3, 1.0, 3.0):
        conv = extend_at(f, grid.nodes, float(t))
        gap = np.maximum(grid.nodes - R, 0.0)
        envelope = t * mass / (gap ** 2 + t ** 2) ** 1.5
        ratio = conv / envelope
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0.0)
        # an O(1) constant closes the bound at every node and height
        assert float(np.max(ratio)) < 1.0
