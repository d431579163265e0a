"""Extension/dual machinery exercised away from the n=3 workhorse case."""

import numpy as np
import pytest

from halfext.extension import extend_at, poisson_extend
from halfext.extremals import rayleigh_quotient
from halfext.grids import (AxisymFn, build_radial_grid,
                           default_halfspace_grid, lp_norm_boundary,
                           lp_norm_halfspace, sample_radial)
from halfext.solver import SolverConfig, ascent_estimate_constant


@pytest.fixture(scope="module")
def boundary2():
    return build_radial_grid(1, 160, "tan", 1.0)


@pytest.fixture(scope="module")
def boundary4():
    return build_radial_grid(3, 128, "tan", 1.0)


def test_extension_identity_n2(boundary2):
    # on the half-plane, (1+s^2)^-1 is pi times the unit-height profile, so
    # its extension is the shifted profile (t+1)/(s^2+(t+1)^2)
    f = sample_radial(boundary2, lambda s: (1 + s ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    rng = np.random.default_rng(1)
    r = rng.uniform(0.0, 4.0, 15)
    t = rng.uniform(0.05, 4.0, 15)
    got = extend_at(f, r, t)
    want = (t + 1) / (r ** 2 + (t + 1) ** 2)
    assert np.max(np.abs(got - want)) < 1e-8


def test_extension_identities_n4(boundary4):
    # n=4 conformal family: P((1+|xi|^2)^-1) = |x+e_4|^-2,
    # and the dual family P((1+|xi|^2)^-2) = (x_4+1)/|x+e_4|^4
    f1 = sample_radial(boundary4, lambda s: (1 + s ** 2) ** -1.0,
                       tail_exponent=2.0, nonnegative=True)
    f2 = sample_radial(boundary4, lambda s: (1 + s ** 2) ** -2.0,
                       tail_exponent=4.0, nonnegative=True)
    rng = np.random.default_rng(4)
    r = rng.uniform(0.0, 3.0, 15)
    t = rng.uniform(0.05, 3.0, 15)
    got1 = extend_at(f1, r, t)
    want1 = 1.0 / (r ** 2 + (t + 1) ** 2)
    assert np.max(np.abs(got1 - want1)) < 1e-7
    got2 = extend_at(f2, r, t)
    want2 = (t + 1) / (r ** 2 + (t + 1) ** 2) ** 2
    assert np.max(np.abs(got2 - want2)) < 1e-7


def test_rayleigh_n4_conformal(boundary4):
    from halfext.extremals import (ExtremalSpec, extremal_profile,
                                   sharp_constant)
    f = extremal_profile(ExtremalSpec(4, "conformal"), boundary4)
    # p = 2(n-1)/(n-2) = 3
    got = rayleigh_quotient(f, 4, 3.0, default_halfspace_grid(boundary4))
    assert got == pytest.approx(sharp_constant(4, "conformal"), abs=5e-4)


def test_rayleigh_n4_dual():
    from halfext.extremals import (ExtremalSpec, extremal_profile,
                                   sharp_constant)
    g = build_radial_grid(3, 160, "tan", 1.0)
    f = extremal_profile(ExtremalSpec(4, "dual"), g)
    # p = 2(n-1)/n = 3/2; 4.2e-8 measured on the polar rule
    got = rayleigh_quotient(f, 4, 1.5, default_halfspace_grid(g))
    assert got == pytest.approx(sharp_constant(4, "dual"), rel=1e-7)


def _random_profiles(grid, rng, count, e_min):
    out = []
    for _ in range(count):
        parts = [(rng.uniform(0.2, 2.0), rng.uniform(0.3, 4.0),
                  rng.uniform(e_min, e_min + 1.2))
                 for _ in range(rng.integers(1, 4))]

        def profile(r, parts=parts):
            return sum(a * (b + r ** 2) ** -e for a, b, e in parts)

        out.append(sample_radial(grid, profile,
                                 tail_exponent=2 * min(e for _, _, e in parts),
                                 nonnegative=True))
    return out


@pytest.mark.parametrize("n,p,e_min", [
    (3, 2.0, 0.8), (3, 4.0, 0.6), (3, 4 / 3, 1.2), (4, 3.0, 0.9)])
def test_strong_bound_at_stated_pairs(n, p, e_min, boundary4, boundary3):
    # |Pf|_{np/(n-1)} <= c |f|_p with c the Rayleigh maximum found by the
    # ascent solver (a consistency statement, not a fixed constant)
    grid = boundary3 if n == 3 else boundary4
    hs = default_halfspace_grid(grid)
    cfg = SolverConfig(max_iters=200, tol_residual=3e-4)
    c = ascent_estimate_constant(p, 2, 2, cfg, hs)
    rng = np.random.default_rng(int(10 * p) + n)
    q = n * p / (n - 1)
    for f in _random_profiles(grid, rng, 20, e_min):
        u = poisson_extend(f, hs)
        assert lp_norm_halfspace(u, q) <= c * lp_norm_boundary(f, p) \
            * (1 + 5e-3)


def test_dual_bound_random_battery(boundary3, halfspace3, rng):
    # |Tu|_{(n-1)p/(n-p)} <= c |u|_p over random axisymmetric data: the
    # ratio stays within a stable band and is dilation-consistent
    from halfext.extension import dual_extend
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    for p in (1.5, 2.0):
        target = 2 * p / (3 - p)
        ratios = []
        for _ in range(10):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.3, 2.0)
            e = rng.uniform(1.4, 2.2)
            u = AxisymFn(halfspace3,
                         (a + R ** 2 + (T + b) ** 2) ** -e)
            g = dual_extend(u)
            ratios.append(lp_norm_boundary(g, target)
                          / lp_norm_halfspace(u, p))
        ratios = np.asarray(ratios)
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
        assert np.max(ratios) / np.min(ratios) < 3.0
