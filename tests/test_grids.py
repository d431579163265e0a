import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfext.errors import DivergenceError, DomainError
from halfext.grids import (AxisymFn, HalfspaceGrid, PolarGrid, RadialFn,
                           RadialGrid, build_radial_grid, dilate_boundary,
                           distribution_mass, lp_norm_boundary,
                           lp_norm_halfspace, polar_halfspace_rule,
                           radial_fn_from_csv, sample_radial, weak_lp_norm)
from halfext.kernel import sphere_area


def test_tan_grid_gaussian():
    for N in (64, 128):
        g = build_radial_grid(2, N, "tan", 1.0)
        assert g.quad(np.exp(-g.nodes ** 2)) == pytest.approx(0.5, abs=1e-10)


def test_tan_grid_cauchy():
    g = build_radial_grid(1, 128, "tan", 1.0)
    assert g.quad(1 / (1 + g.nodes ** 2)) == pytest.approx(math.pi / 2,
                                                           abs=1e-10)


def test_tan_grid_coarse():
    g = build_radial_grid(2, 16, "tan", 1.0)
    assert g.quad(np.exp(-g.nodes ** 2)) == pytest.approx(0.5, abs=1e-4)


def test_linear_grid_bounded():
    g = build_radial_grid(2, 64, "linear", 3.0)
    assert g.r_max <= 3.0
    assert g.quad(np.ones_like(g.nodes)) == pytest.approx(9.0 / 2, abs=1e-12)


def test_grid_validation():
    with pytest.raises(DomainError):
        build_radial_grid(0, 64)
    with pytest.raises(DomainError):
        build_radial_grid(2, 8)
    with pytest.raises(DomainError):
        build_radial_grid(2, 64, "nope")


def test_radial_grid_rejects_unknown_mapping():
    # the mapping picks the stencil coordinate and the spacing estimate; a
    # mesh whose mapping names neither of the two rules has neither
    g = build_radial_grid(2, 24)
    for mapping in ("tna", "exp"):
        with pytest.raises(DomainError, match="unknown mapping"):
            RadialGrid(2, g.nodes, g.weights, g.r_max, mapping=mapping)
    for mapping in ("tan", "linear"):
        RadialGrid(2, g.nodes, g.weights, g.r_max, mapping=mapping)


def test_grid_refinement_invariant():
    vals = []
    for N in (128, 256):
        g = build_radial_grid(2, N, "tan", 1.0)
        f = sample_radial(g, lambda r: (1 + r ** 2) ** -0.5, tail_exponent=1.0)
        vals.append(lp_norm_boundary(f, 4.0))
    assert abs(vals[1] - vals[0]) < 1e-9


def test_lp_norm_boundary_values(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0)
    assert lp_norm_boundary(f, 4.0) == pytest.approx(math.pi ** 0.25,
                                                     abs=1e-12)
    f3 = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.5,
                       tail_exponent=3.0)
    assert lp_norm_boundary(f3, 4 / 3) == pytest.approx(math.pi ** 0.75,
                                                        abs=1e-12)
    zero = RadialFn(boundary3, np.zeros(boundary3.size), value_at_zero=0.0)
    assert lp_norm_boundary(zero, 2.0) == 0.0


def test_lp_norm_divergence_guard(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0)
    with pytest.raises(DivergenceError):
        lp_norm_boundary(f, 2.0)       # p*beta = 2 = d
    with pytest.raises(DomainError):
        lp_norm_boundary(f, 0.5)


def test_lp_norm_fitted_tail_guard(boundary3):
    # declared tail is wrong (fast); the fitted slope catches the divergence
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=5.0)
    with pytest.raises(DivergenceError):
        lp_norm_boundary(f, 2.0)


def test_fitted_tail_fits_once_per_function(boundary3, monkeypatch):
    from halfext import grids
    calls = []

    def fit(nodes, values):
        calls.append(values)
        return math.nan             # a fit that finds no slope
    monkeypatch.setattr(grids, "_fit_tail_exponent", fit)
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0)
    assert all(math.isnan(f.fitted_tail()) for _ in range(3))
    assert math.isnan(f.tail()) and len(calls) == 1
    # a new function, even one scaled from f, fits its own samples
    assert math.isnan(f.scaled(2.0).fitted_tail()) and len(calls) == 2


def test_lp_norm_halfspace_closed_form(halfspace3):
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 1) ** 2) ** -0.5)
    assert lp_norm_halfspace(u, 6.0) ** 6 == pytest.approx(math.pi / 6,
                                                           abs=1e-9)
    zero = AxisymFn(halfspace3, np.zeros_like(R))
    assert lp_norm_halfspace(zero, 2.0) == 0.0


def test_lp_norm_halfspace_monte_carlo_oracle(halfspace3, rng):
    # brute-force Monte Carlo of the same integral (importance in both axes)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 1) ** 2) ** -0.5)
    quad_val = lp_norm_halfspace(u, 6.0) ** 6
    m = 10_000_000
    us = rng.random(m)
    vs = rng.random(m)
    t = vs / (1 - vs)
    r = us / (1 - us)
    jac = (1 - vs) ** -2 * (1 - us) ** -2
    samples = 2 * math.pi * r * (r ** 2 + (t + 1) ** 2) ** -3 * jac
    mc = samples.mean()
    sigma = samples.std(ddof=1) / math.sqrt(m)
    assert abs(quad_val - mc) < 3 * sigma
    assert sigma < 5e-3


def test_polar_rule_exact_dual_extension_norm():
    # the dual family's extension (t+1)/|x+e_3|^3 has |.|_2^2 = pi/2
    r, t, w = polar_halfspace_rule(3)
    u = (t + 1) / (r ** 2 + (t + 1) ** 2) ** 1.5
    assert abs(np.sum(w * u ** 2) - math.pi / 2) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polar_rule_dual_extension_norms_every_q(n):
    # |(t+1)/|x+e_n|^n|_q^q = |S^(n-2)| B((n(q-1)+1)/2, (n-1)/2)
    # / (2((n-1)q - n)), by polar coordinates about -e_n
    from scipy.special import beta
    r, t, w = polar_halfspace_rule(n)
    assert r.shape == t.shape == w.shape
    u = (t + 1) / (r ** 2 + (t + 1) ** 2) ** (n / 2)
    for q in (2.0, 2.0 * n / (n - 2), 3.0):
        want = (sphere_area(n - 1) * beta((n * (q - 1) + 1) / 2, (n - 1) / 2)
                / (2 * ((n - 1) * q - n)))
        assert np.sum(w * u ** q) == pytest.approx(want, rel=1e-13)


def test_lp_norm_halfspace_constant_box():
    hs = HalfspaceGrid(build_radial_grid(2, 96), build_radial_grid(1, 64))
    R, T = np.meshgrid(hs.radial.nodes, hs.heights.nodes, indexing="ij")
    c = 1.7
    inside = (R < 2.0) & (T < 1.5)
    u = AxisymFn(hs, np.where(inside, c, 0.0))
    cells = hs.cell_measures()
    box = float(np.sum(cells[inside]))
    got = lp_norm_halfspace(u, 3.0)
    assert got == pytest.approx(c * box ** (1 / 3), rel=1e-12)
    # the quadrature measure itself approximates the true cylinder volume
    assert box == pytest.approx(math.pi * 4.0 * 1.5, rel=2e-2)


def test_lp_norm_halfspace_divergence():
    hs = HalfspaceGrid(build_radial_grid(2, 64), build_radial_grid(1, 48))
    R, T = np.meshgrid(hs.radial.nodes, hs.heights.nodes, indexing="ij")
    u = AxisymFn(hs, (1 + R ** 2 + T ** 2) ** -0.4)
    with pytest.raises(DivergenceError):
        lp_norm_halfspace(u, 2.0)


def test_weak_lp_norm_basics(halfspace3):
    zero = AxisymFn(halfspace3, np.zeros((halfspace3.radial.size,
                                          halfspace3.heights.size)))
    assert weak_lp_norm(zero, 1.5) == 0.0
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    from halfext.kernel import kernel_constant
    u = AxisymFn(halfspace3, kernel_constant(3) * T / (R ** 2 + T ** 2) ** 1.5)
    w = weak_lp_norm(u, 1.5)
    assert 0.0 < w < 10.0
    # exact positive homogeneity
    u2 = AxisymFn(halfspace3, 2.0 * u.values)
    assert weak_lp_norm(u2, 1.5) == pytest.approx(2.0 * w, rel=1e-15)


def test_weak_lp_norm_two_resolutions():
    vals = []
    for N_r, N_t in ((96, 64), (192, 128)):
        hs = HalfspaceGrid(build_radial_grid(2, N_r),
                           build_radial_grid(1, N_t))
        R, T = np.meshgrid(hs.radial.nodes, hs.heights.nodes, indexing="ij")
        from halfext.kernel import kernel_constant
        u = AxisymFn(hs, kernel_constant(3) * T / (R ** 2 + T ** 2) ** 1.5)
        vals.append(weak_lp_norm(u, 1.5))
    assert vals[0] == pytest.approx(vals[1], rel=2e-2)


def test_distribution_mass(halfspace3):
    shape = (halfspace3.radial.size, halfspace3.heights.size)
    zero = AxisymFn(halfspace3, np.zeros(shape))
    assert distribution_mass(zero, 0.5) == 0.0
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    inside = (R < 1.0) & (T < 1.0)
    u = AxisymFn(halfspace3, np.where(inside, 1.0, 0.0))
    m = float(np.sum(halfspace3.cell_measures()[inside]))
    assert distribution_mass(u, 0.5) == pytest.approx(m, rel=1e-14)
    with pytest.raises(DomainError):
        distribution_mass(u, 0.0)


def test_distribution_mass_monotone(halfspace3):
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 1) ** 2) ** -1.0)
    levels = np.geomspace(1e-6, 1.0, 30)
    masses = [distribution_mass(u, lv) for lv in levels]
    assert all(np.diff(masses) <= 0.0)


def test_layer_cake_consistency(halfspace3):
    # integral of u^p equals p * int t^(p-1) |{u>t}| dt, exactly for the
    # discrete step distribution
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 0.5) ** 2) ** -1.0)
    p = 3.0
    cells = halfspace3.cell_measures()
    direct = float(np.sum(cells * u.values ** p))
    vals = u.values.ravel()
    meas = cells.ravel()
    order = np.argsort(vals)[::-1]
    v = vals[order]
    cum = np.cumsum(meas[order])
    # p * int t^(p-1) M(t) dt over the step function M: exact stepwise sum
    v_ext = np.concatenate([v, [0.0]])
    layer = float(np.sum(cum * (v_ext[:-1] ** p - v_ext[1:] ** p)))
    assert layer == pytest.approx(direct, rel=1e-2)
    assert layer == pytest.approx(direct, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.1, 10.0), p=st.sampled_from([1.0, 2.0, 3.0]))
def test_norm_homogeneity(c, p):
    g = build_radial_grid(2, 32, "tan", 1.0)
    f = sample_radial(g, lambda r: np.exp(-r ** 2))
    assert lp_norm_boundary(f.scaled(c), p) == pytest.approx(
        c * lp_norm_boundary(f, p), rel=1e-13)


def test_dilation_preserves_lp(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0)
    base = lp_norm_boundary(f, 3.0)
    for lam in (0.25, 0.5, 2.0, 4.0):
        assert lp_norm_boundary(dilate_boundary(f, lam, 3.0), 3.0) == \
            pytest.approx(base, rel=1e-6)


def test_radial_fn_eval_interpolation(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0)
    r = np.array([0.0, 1e-5, 0.37, 1.41, 11.3, 500.0])
    assert np.max(np.abs(f.eval(r) - (1 + r ** 2) ** -1.0)
                  / (1 + r ** 2) ** -1.0) < 2e-6
    # beyond the mesh: power-law continuation
    big = 5.0 * boundary3.r_max
    assert f.eval(big) == pytest.approx((1 + big ** 2) ** -1.0, rel=1e-2)


def test_radial_fn_validation(boundary3):
    with pytest.raises(DomainError):
        RadialFn(boundary3, np.zeros(3))
    with pytest.raises(DomainError):
        RadialFn(boundary3, np.full(boundary3.size, np.nan))
    with pytest.raises(DomainError):
        RadialFn(boundary3, -np.ones(boundary3.size), nonnegative=True)


def test_csv_roundtrip(tmp_path, boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0)
    path = tmp_path / "profile.csv"
    f.to_csv(path)
    head = path.read_text().splitlines()[0]
    assert head == "r,value"
    back = radial_fn_from_csv(boundary3, path, tail_exponent=2.0)
    assert np.array_equal(back.values, f.values)


def test_axisym_csv(tmp_path):
    hs = HalfspaceGrid(build_radial_grid(2, 16), build_radial_grid(1, 16))
    u = AxisymFn(hs, np.ones((16, 16)))
    path = tmp_path / "u.csv"
    u.to_csv(path)
    assert path.read_text().splitlines()[0] == "r,t,value"


def test_polar_grid_measures():
    g = build_radial_grid(2, 64, "tan", 1.0)
    pg = PolarGrid(g, 32)
    # total measure of cells with r < 1 approximates the disk area
    x, y = pg.points()
    inside = np.hypot(x, y) < 1.0
    assert float(np.sum(pg.cell_measures()[inside])) == pytest.approx(
        math.pi, rel=2e-2)


def test_layer_cake_via_distribution_mass(halfspace3):
    # the literal form: integral of u^p vs p * int t^(p-1) |{u > t}| dt with
    # the mass evaluated through distribution_mass on a fine level grid
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 0.5) ** 2) ** -1.0)
    p = 3.0
    direct = float(np.sum(halfspace3.cell_measures() * u.values ** p))
    levels = np.geomspace(1e-7, float(np.max(u.values)), 4000)
    masses = np.array([distribution_mass(u, float(t)) for t in levels])
    layer = float(np.trapezoid(p * levels ** (p - 1) * masses, levels))
    assert layer == pytest.approx(direct, rel=1e-2)


def test_weak_type_constant_sweep(boundary3, halfspace3):
    # mass of {Pf > t} stays below c * t^(-n/(n-1)) for unit-mass data; the
    # constant is estimated by sweeping levels and must be O(1)
    from halfext.extension import poisson_extend
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -2.0,
                      tail_exponent=4.0, nonnegative=True)
    f = f.scaled(1.0 / lp_norm_boundary(f, 1.0))
    u = poisson_extend(f, halfspace3)
    levels = np.geomspace(1e-4, float(np.max(u.values)) * 0.8, 30)
    consts = [distribution_mass(u, float(t)) * t ** 1.5 for t in levels]
    assert 0.0 < max(consts) < 10.0


def test_truncation_guard():
    # p * beta = 2.1 barely exceeds d = 2: the tail beyond the last node
    # carries more than 1% of the integral, so the norm must be rejected
    # rather than silently mis-integrated
    g = build_radial_grid(2, 128)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -0.525, tail_exponent=1.05)
    with pytest.raises(DomainError, match="truncation tail exceeds 1%"):
        lp_norm_boundary(f, 2.0)
