import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfext.errors import DomainError
from halfext.extremals import ExtremalSpec, extremal_profile
from halfext.grids import (PolarFn, PolarGrid, RadialGrid, build_radial_grid,
                           distribution_mass)
from halfext.kernel import pt_profile
from halfext.quadrature import panel_rule
from halfext.rearrange import (planar_convolution, radial_to_polar,
                               rearrangement_steps, riesz_gain,
                               symmetric_rearrangement)


@pytest.fixture(scope="module")
def polar_small():
    return PolarGrid(build_radial_grid(2, 48, "tan", 1.0), 32)


def bounded_grid(d, N, R):
    # Gauss nodes on the bounded interval (0, R), near-uniform cells: every
    # cell resolves the kernel width of a planar convolution
    nodes, dr = panel_rule(0.0, R, N)
    return RadialGrid(d, nodes, dr * nodes ** (d - 1))


def two_bump(pg):
    x, y = pg.points()
    vals = (np.exp(-((x - 1.2) ** 2 + y ** 2) * 3.0)
            + 0.8 * np.exp(-((x + 1.5) ** 2 + (y - 0.4) ** 2) * 5.0))
    return PolarFn(pg, vals)


def test_fixed_point_nodewise(polar_small):
    f_r = extremal_profile(ExtremalSpec(3, "conformal"), polar_small.radial)
    f = radial_to_polar(f_r, polar_small)
    star = symmetric_rearrangement(f)
    assert np.array_equal(star.values, f_r.values)


def test_annulus_becomes_disk():
    # indicator of {a < r < b} rearranges to the disk of equal area
    g = bounded_grid(2, 128, 4.0)
    pg = PolarGrid(g, 16)
    a, b = 1.0, 2.0
    r = g.nodes[:, None] * np.ones((1, 16))
    f = PolarFn(pg, ((r > a) & (r < b)).astype(float))
    star = symmetric_rearrangement(f)
    onset = g.nodes[star.values > 0.5]
    r_star = math.sqrt(b ** 2 - a ** 2)
    assert onset.size > 0
    assert onset[-1] == pytest.approx(r_star, abs=2 * 4.0 / 128)
    # equimeasurability within one cell at every level
    cells = pg.cell_measures()
    m_orig = distribution_mass(f, 0.5)
    v, rho = rearrangement_steps(f.values.ravel(), cells.ravel(), 2)
    m_star = math.pi * rho[np.searchsorted(-v, -0.5, side="right") - 1] ** 2
    assert m_star == pytest.approx(m_orig, rel=1e-12)
    assert m_orig == pytest.approx(math.pi * (b ** 2 - a ** 2), rel=2e-2)


def test_two_bump_norm_preservation(polar_small):
    f = two_bump(polar_small)
    cells = polar_small.cell_measures()
    v, rho = rearrangement_steps(f.values.ravel(), cells.ravel(), 2)
    shells = np.diff(np.concatenate(([0.0], rho ** 2))) * math.pi
    for p in (1.0, 2.0, 4.0):
        orig = float(np.sum(cells * f.values ** p))
        star = float(np.dot(shells, v ** p))
        assert star == pytest.approx(orig, rel=1e-8)
    sampled = symmetric_rearrangement(f)
    assert np.all(np.diff(sampled.values) <= 0.0)   # unimodal and radial


def test_equimeasurability_all_levels(polar_small):
    f = two_bump(polar_small)
    cells = polar_small.cell_measures()
    v, rho = rearrangement_steps(f.values.ravel(), cells.ravel(), 2)
    cum = math.pi * rho ** 2
    max_cell = float(np.max(cells))
    for level in np.quantile(f.values, [0.3, 0.6, 0.9, 0.99]):
        m_orig = distribution_mass(f, level)
        k = np.searchsorted(-v, -level, side="left")
        m_star = cum[k - 1] if k > 0 else 0.0
        assert abs(m_star - m_orig) <= max_cell + 1e-12


def test_rearrangement_order_preserved(polar_small, rng):
    base = two_bump(polar_small).values
    extra = rng.uniform(0.0, 0.5, base.shape)
    f = PolarFn(polar_small, base)
    gplus = PolarFn(polar_small, base + extra)
    sf = symmetric_rearrangement(f)
    sg = symmetric_rearrangement(gplus)
    assert np.all(sg.values >= sf.values - 1e-15)


def test_rearrangement_rejects_negative(polar_small):
    f = PolarFn(polar_small, -np.ones((polar_small.radial.size,
                                       polar_small.n_angles)))
    with pytest.raises(DomainError):
        symmetric_rearrangement(f)


def test_riesz_gain_radial_is_exactly_zero(polar_small):
    f_r = extremal_profile(ExtremalSpec(3, "conformal"), polar_small.radial)
    f = radial_to_polar(f_r, polar_small)
    assert riesz_gain(f, 0.8, 4.0) == 0.0


def test_riesz_gain_two_bumps_strictly_positive(polar_small):
    gain = riesz_gain(two_bump(polar_small), 0.8, 4.0)
    assert gain > 1e-3


def test_riesz_gain_shifted_extremal():
    # translation invariance: the gain of a recentred family member vanishes
    # up to the O(h^2) distribution error of the cell sampling
    g = bounded_grid(2, 160, 40.0)
    pg = PolarGrid(g, 48)
    x, y = pg.points()
    f = PolarFn(pg, ExtremalSpec(3, "conformal").profile(np.hypot(x - 0.5, y)))
    gain = riesz_gain(f, 0.8, 4.0)
    assert -1e-8 <= gain <= 2e-4


def test_riesz_gain_random_inputs():
    # a mesh that resolves the bumps: on 48 x 32 quadrature error alone
    # drives 9 of 300 draws of this recipe below zero (to -1.3e-2, q = 2);
    # on 160 x 96 one is, at -1.5e-4, a near-radial draw whose exact gain is
    # about 0, and the 12 drawn here stay above +4e-3
    pg = PolarGrid(build_radial_grid(2, 160), 96)
    rng = np.random.default_rng(1)
    x, y = pg.points()
    worst = np.inf
    for _ in range(12):
        k = rng.integers(2, 5)
        vals = np.zeros_like(x)
        for _ in range(k):
            cx, cy = rng.uniform(-1.5, 1.5, 2)
            w = rng.uniform(0.3, 1.2)
            vals += rng.uniform(0.3, 1.5) * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2) / w ** 2)
        gain = riesz_gain(PolarFn(pg, vals), rng.uniform(0.4, 1.2),
                          rng.choice([2.0, 4.0]))
        worst = min(worst, gain)
    assert worst >= -1e-8


def _reference_planar_convolution(f, t):
    # the direct route: one row of P_t(|x - y|) per radius, every target
    # angle evaluated on its own
    x, y = f.grid.points()
    src = (f.values * f.grid.cell_measures()).ravel()
    xs, ys = x.ravel(), y.ravel()
    out = np.empty(x.shape)
    for j in range(x.shape[0]):
        dx = x[j][:, None] - xs[None, :]
        dy = y[j][:, None] - ys[None, :]
        out[j] = pt_profile(3, t, np.sqrt(dx * dx + dy * dy)) @ src
    return out


@pytest.mark.parametrize("pg", [
    PolarGrid(build_radial_grid(2, 48, "tan", 1.0), 32),
    PolarGrid(bounded_grid(2, 40, 4.0), 9),   # odd m
])
def test_planar_convolution_matches_direct_rows(pg):
    noise = np.random.default_rng(7).uniform(
        0.0, 1.0, (pg.radial.size, pg.n_angles))
    for f in (two_bump(pg), PolarFn(pg, noise)):
        for t in (0.3, 1.1):
            want = _reference_planar_convolution(f, t)
            got = planar_convolution(f, t).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_planar_convolution_rotation_equivariant(polar_small):
    # rotating the data by one angular cell rotates the output
    f = two_bump(polar_small)
    rolled = PolarFn(polar_small, np.roll(f.values, 1, axis=1))
    want = np.roll(planar_convolution(f, 0.6).values, 1, axis=1)
    got = planar_convolution(rolled, 0.6).values
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_whole_pipeline_monotonicity(polar_small):
    # slice-by-height monotonicity |P_t*f|_q <= |P_t*f*|_q on every height
    # the planar mesh resolves (kernel width below the cell size makes the
    # discrete convolution meaningless), and hence for the height integral
    f = two_bump(polar_small)
    star = radial_to_polar(symmetric_rearrangement(f), polar_small)
    q = 6.0
    total_f = total_star = 0.0
    for t in np.geomspace(0.25, 4.0, 8):
        nf = planar_convolution(f, float(t)).lp_norm(q) ** q
        ns = planar_convolution(star, float(t)).lp_norm(q) ** q
        assert ns >= nf * (1.0 - 1e-12)
        total_f += nf
        total_star += ns
    assert total_star >= total_f


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rearranged_is_radial_decreasing(seed):
    rng = np.random.default_rng(seed)
    g = build_radial_grid(2, 32, "tan", 1.0)
    pg = PolarGrid(g, 16)
    vals = rng.uniform(0.0, 1.0, (32, 16))
    star = symmetric_rearrangement(PolarFn(pg, vals))
    assert np.all(np.diff(star.values) <= 0.0)
    assert star.values[0] <= np.max(vals)


def test_rearrangement_d1_even_profile():
    # d = 1: even profiles on the line, ball volume 2r
    g = bounded_grid(1, 64, 3.0)
    r = g.nodes
    measures = 2.0 * g.weights          # both half-lines
    values = np.where((r > 1.0) & (r < 2.0), 1.0, 0.0)
    v, rho = rearrangement_steps(values, measures, 1)
    support = rho[np.searchsorted(-v, -0.5, side="right") - 1]
    assert support == pytest.approx(1.0, abs=2 * 3.0 / 64)


def test_radial_helpers_stay_on_their_own_mesh(polar_small):
    # no interpolation: the rearrangement takes planar samples only, and a
    # radial function expands onto polar cells over its own radii only
    f_r = extremal_profile(ExtremalSpec(3, "conformal"), polar_small.radial)
    with pytest.raises(DomainError, match="PolarFn"):
        symmetric_rearrangement(f_r)
    other = PolarGrid(build_radial_grid(2, 48, "tan", 1.0), 32)
    with pytest.raises(DomainError, match="radial mesh"):
        radial_to_polar(f_r, other)
