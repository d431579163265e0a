import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfext.errors import DivergenceError, DomainError
from halfext.grids import (AxisymFn, HalfspaceGrid, PolarFn, PolarGrid,
                           RadialFn, build_radial_grid, dilate_boundary,
                           distribution, distribution_mass, lp_norm_boundary,
                           lp_norm_halfspace, pchip, polar_halfspace_rule,
                           sample_radial)
from halfext.kernel import sphere_area


def test_tan_grid_gaussian():
    for N in (64, 128):
        g = build_radial_grid(2, N, "tan", 1.0)
        assert g.weights @ np.exp(-g.nodes ** 2) == pytest.approx(0.5,
                                                                  abs=1e-10)


def test_tan_grid_cauchy():
    g = build_radial_grid(1, 128, "tan", 1.0)
    assert g.weights @ (1 / (1 + g.nodes ** 2)) == pytest.approx(math.pi / 2,
                                                                 abs=1e-10)


def test_tan_grid_coarse():
    g = build_radial_grid(2, 16, "tan", 1.0)
    assert g.weights @ np.exp(-g.nodes ** 2) == pytest.approx(0.5, abs=1e-4)


def test_grid_validation():
    with pytest.raises(DomainError):
        build_radial_grid(0, 64)
    with pytest.raises(DomainError):
        build_radial_grid(2, 8)
    with pytest.raises(DomainError):
        build_radial_grid(2, 64, "nope")


def test_radial_grid_rejects_unknown_mapping():
    # the unit tan rule is the one mesh; both arguments stay for callers
    # that name them
    for mapping in ("linear", "exp"):
        with pytest.raises(DomainError, match="unknown mapping"):
            build_radial_grid(2, 24, mapping)
    for scale in (0.5, 2.0, -1.0, 0.0):
        with pytest.raises(DomainError, match="scale 1.0"):
            build_radial_grid(2, 24, "tan", scale)
    assert build_radial_grid(2, 24, "tan", 1.0).size == 24


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


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.5, 6.0])
def test_fitted_tail_is_the_least_squares_line(boundary3, beta):
    # the closed-form slope is np.polyfit's over the last eighth of the
    # mesh, on a power tail and on a sign-changing tail alike (|f| is
    # fitted), and column by column on a batch; fewer than 6 nonzero
    # samples there are a compact tail
    from halfext.grids import _fit_tail_exponent
    r = boundary3.nodes
    k = boundary3.size // 8
    f = 3.7 * (1 + r ** 2) ** (-beta / 2) * (1 + 0.3 * np.sin(r))
    wavy = f * np.where(np.arange(r.size) % 3 == 0, -1.0, 1.0)
    for values in (f, wavy):
        want = -np.polyfit(np.log(r[-k:]), np.log(np.abs(values[-k:])), 1)[0]
        assert _fit_tail_exponent(r, values) == pytest.approx(want, rel=1e-13)
    short = f.copy()
    short[-k + 5:] = 0.0
    assert _fit_tail_exponent(r, short) == math.inf
    both = _fit_tail_exponent(r, np.stack([f, wavy, short], axis=-1))
    assert list(both) == [_fit_tail_exponent(r, v) for v in (f, wavy, short)]


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
    masses = distribution_mass(u, levels)
    assert masses.shape == levels.shape
    assert all(np.diff(masses) <= 0.0)


def small_halfspace():
    return HalfspaceGrid(build_radial_grid(2, 16), build_radial_grid(1, 16))


def tied_samples(rng, shape):
    # few distinct values, so most of them are tied, and some zero cells
    return rng.integers(-3, 4, shape) * 0.25


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_distribution_matches_stable_sort(seed):
    rng = np.random.default_rng(seed)
    values = tied_samples(rng, (16, 16))
    measures = rng.uniform(0.0, 2.0, (16, 16))
    measures[rng.uniform(size=(16, 16)) < 0.1] = 0.0     # empty cells
    v, mu = distribution(values, measures)
    # Python's sort is stable: ties keep their row-major input order
    order = sorted(range(values.size), key=lambda i: -values.flat[i])
    assert np.array_equal(v, values.ravel()[order])
    want = np.cumsum([measures.flat[i] for i in order])
    assert mu == pytest.approx(want, rel=1e-14, abs=0.0)


def test_distribution_ties_keep_input_order():
    v, mu = distribution([1.0, 2.0, 1.0, 2.0], [1.0, 10.0, 100.0, 1000.0])
    assert v.tolist() == [2.0, 2.0, 1.0, 1.0]
    assert mu.tolist() == [10.0, 1010.0, 1011.0, 1111.0]


def test_distribution_rejects_bad_input():
    with pytest.raises(DomainError, match="align"):
        distribution(np.ones(3), np.ones(4))
    with pytest.raises(DomainError, match="align"):
        distribution(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(DomainError, match="nonnegative"):
        distribution(np.ones(3), np.array([1.0, -1e-300, 1.0]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_distribution_mass_matches_masked_sums(seed):
    rng = np.random.default_rng(seed)
    hs = small_halfspace()
    u = AxisymFn(hs, tied_samples(rng, (16, 16)))
    cells = hs.cell_measures()
    # levels at sampled values (the superlevel set is strict) and between
    levels = np.concatenate([[0.25, 0.5, 0.75], rng.uniform(0.01, 1.0, 5)])
    masses = distribution_mass(u, levels)
    for level, mass in zip(levels, masses):
        want = float(np.sum(cells[u.values > level]))
        assert mass == pytest.approx(want, rel=1e-13, abs=0.0)
        assert distribution_mass(u, float(level)) == mass


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


PCHIP_KINDS = ("random", "monotone", "flat-segment", "3-node")


def _pchip_data(kind, rng):
    x = np.sort(rng.uniform(-3.0, 3.0, 3 if kind == "3-node" else 40))
    if kind == "monotone":
        return x, np.cumsum(rng.uniform(0.0, 1.0, x.size))
    if kind == "flat-segment":
        # runs of equal values, sign changes and exact zeros among the secants
        return x, np.round(rng.normal(size=x.size))
    return x, rng.normal(size=x.size)


@pytest.mark.parametrize("kind", PCHIP_KINDS)
def test_pchip_matches_scipy(kind):
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(PCHIP_KINDS.index(kind))
    for _ in range(20):
        x, y = _pchip_data(kind, rng)
        inside = np.concatenate([x, rng.uniform(x[0], x[-1], 400)])
        want = PchipInterpolator(x, y, extrapolate=False)(inside)
        np.testing.assert_allclose(pchip(x, y)(inside), want, rtol=1e-14,
                                   atol=0.0)
        outside = np.array([x[0] - 1e-9, x[-1] + 1e-9, x[0] - 5.0, x[-1] + 5.0])
        assert np.all(np.isnan(pchip(x, y)(outside)))


def test_radial_fn_validation(boundary3):
    with pytest.raises(DomainError):
        RadialFn(boundary3, np.zeros(3))
    with pytest.raises(DomainError):
        RadialFn(boundary3, np.full(boundary3.size, np.nan))
    with pytest.raises(DomainError):
        RadialFn(boundary3, -np.ones(boundary3.size), nonnegative=True)


@pytest.mark.parametrize("kind", ["RadialFn", "AxisymFn", "PolarFn"])
def test_sample_contract(kind):
    # the three sample types take their samples under one contract: a float
    # array of exactly the mesh's shape, every entry finite; a wrong shape
    # and a NaN raise with the one message
    g = build_radial_grid(2, 16)
    make, shape = {
        "RadialFn": (lambda v: RadialFn(g, v), (16,)),
        "AxisymFn": (lambda v: AxisymFn(HalfspaceGrid(
            g, build_radial_grid(1, 24)), v), (16, 24)),
        "PolarFn": (lambda v: PolarFn(PolarGrid(g, 8), v), (16, 8)),
    }[kind]
    good = make(np.ones(shape, dtype=int).tolist())
    assert good.values.dtype == float and good.values.shape == shape
    nan = np.ones(shape)
    nan.flat[5] = np.nan
    message = re.escape(f"samples must be a finite array of shape {shape}")
    for values in (np.ones(shape)[:-1], np.ones((*shape, 1)), nan,
                   np.full(shape, np.inf)):
        with pytest.raises(DomainError, match=message):
            make(values)


def test_csv_roundtrip(tmp_path, boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0)
    path = tmp_path / "profile.csv"
    f.to_csv(path)
    head = path.read_text().splitlines()[0]
    assert head == "r,value"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], boundary3.nodes)
    assert np.array_equal(back[:, 1], f.values)


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
    masses = distribution_mass(u, levels)
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
    consts = distribution_mass(u, levels) * levels ** 1.5
    assert 0.0 < np.max(consts) < 10.0


def test_truncation_guard():
    # p * beta = 2.1 barely exceeds d = 2: the tail beyond the last node
    # carries more than 1% of the integral, so the norm must be rejected
    # rather than silently mis-integrated
    g = build_radial_grid(2, 128)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -0.525, tail_exponent=1.05)
    with pytest.raises(DomainError, match="truncation tail exceeds 1%"):
        lp_norm_boundary(f, 2.0)
