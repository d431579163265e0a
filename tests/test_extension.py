import math

import numpy as np
import pytest
from scipy.integrate import quad

from halfext.errors import DivergenceError, DomainError
from halfext.extension import (commutator_gap, dual_extend, extend_at,
                               get_operator, kernel_mass, poisson_extend,
                               ring_kernel, slab_mass)
from halfext.grids import (AxisymFn, RadialFn, RadialGrid, build_radial_grid,
                           default_halfspace_grid, lp_norm_boundary,
                           lp_norm_halfspace, sample_radial)
from halfext.kernel import kernel_constant, pt_lp_norm, sphere_area


def conformal_data(grid):
    return sample_radial(grid, lambda r: (1 + r ** 2) ** -0.5,
                         tail_exponent=1.0, nonnegative=True)


def dual_data(grid):
    return sample_radial(grid, lambda r: (1 + r ** 2) ** -1.5,
                         tail_exponent=3.0, nonnegative=True)


def test_ring_kernel_at_zero_radius():
    for n in (2, 3, 4, 5):
        s, t = 1.5, 0.7
        want = sphere_area(n - 1) * kernel_constant(n) * t \
            / (s ** 2 + t ** 2) ** (n / 2) if n > 2 else None
        got = ring_kernel(n, 0.0, s, t, method="gl" if n >= 5 else "auto")
        if n == 2:
            want = kernel_constant(2) * 2 * t / (s ** 2 + t ** 2)
        assert got == pytest.approx(want, rel=1e-10)


def test_ring_kernel_adaptive_quadrature_oracle():
    # n=3, r=s=t=1: (1/(2 pi)) * int_0^{2 pi} (3 - 2 cos x)^(-3/2) dx
    val, _ = quad(lambda x: (3 - 2 * math.cos(x)) ** -1.5, 0, 2 * math.pi,
                  limit=200)
    want = val / (2 * math.pi)
    assert ring_kernel(3, 1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-10)


def test_ring_kernel_symmetric(rng):
    r, s, t = rng.uniform(0.1, 5.0, (3, 20))
    assert np.allclose(ring_kernel(3, r, s, t), ring_kernel(3, s, r, t),
                       rtol=1e-14)
    assert np.allclose(ring_kernel(4, r, s, t), ring_kernel(4, s, r, t),
                       rtol=1e-14)


def test_ring_kernel_gl_matches_closed(rng):
    for n in (3, 4):
        for _ in range(8):
            r, s, t = rng.uniform(0.05, 4.0, 3)
            assert ring_kernel(n, r, s, t, method="gl") == pytest.approx(
                ring_kernel(n, r, s, t, method="closed"), rel=1e-9)


def test_ring_kernel_errors():
    with pytest.raises(DomainError):
        ring_kernel(3, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ring_kernel(1, 1.0, 1.0, 1.0)


def test_extension_identity_conformal(boundary3, halfspace3):
    u = poisson_extend(conformal_data(boundary3), halfspace3)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    want = (R ** 2 + (T + 1) ** 2) ** -0.5
    # node-wise agreement where the mesh resolves both scales; the extreme
    # corners (outermost node, t far beyond the radial resolution) are
    # weightless in every norm and excluded here
    inner = (R <= 10.0) & (T <= 10.0)
    assert np.max(np.abs(u.values - want)[inner]) < 5e-8
    core = (R <= 100.0) & (T <= 100.0)
    assert np.max(np.abs(u.values - want)[core]) < 1e-6


def test_extension_identity_pointwise(boundary3):
    f = conformal_data(boundary3)
    assert extend_at(f, 0.0, 1.0)[0] == pytest.approx(0.5, abs=1e-9)
    f2 = dual_data(boundary3)
    assert extend_at(f2, 0.0, 1.0)[0] == pytest.approx(0.25, abs=1e-9)


def test_extension_zero(boundary3, halfspace3):
    zero = RadialFn(boundary3, np.zeros(boundary3.size), value_at_zero=0.0,
                    tail_exponent=np.inf)
    u = poisson_extend(zero, halfspace3)
    assert not np.any(u.values)


def test_extension_divergence_guard(boundary3, halfspace3):
    grow = sample_radial(boundary3, lambda r: 1 + 0 * r, tail_exponent=0.0)
    with pytest.raises(DivergenceError):
        poisson_extend(grow, halfspace3)


def test_dual_zero(boundary3, halfspace3):
    shape = (halfspace3.radial.size, halfspace3.heights.size)
    zero = AxisymFn(halfspace3, np.zeros(shape))
    assert not np.any(dual_extend(zero, boundary3).values)


def test_duality_pairing(boundary3, halfspace3):
    f = sample_radial(boundary3, lambda r: (0.5 + r ** 2) ** -1.2,
                      tail_exponent=2.4, nonnegative=True)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (1 + R ** 2 + (T + 0.5) ** 2) ** -2.0)
    lhs = float(np.dot(boundary3.sphere * boundary3.weights,
                       dual_extend(u, boundary3).values * f.values))
    rhs = float(np.sum(halfspace3.cell_measures() * u.values
                       * poisson_extend(f, halfspace3).values))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_dual_cross_grid(boundary3, halfspace3):
    # dual onto an independent output mesh stays consistent
    out = build_radial_grid(2, 96, "tan", 1.3)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 1) ** 2) ** -2.0)
    g1 = dual_extend(u, boundary3)
    g2 = dual_extend(u, out)
    probe = np.array([0.3, 1.0, 3.0])
    # two independent meshes and an interpolated comparison: a few 1e-6
    assert np.allclose(g1.eval(probe), g2.eval(probe), rtol=1e-5)


@pytest.mark.parametrize("cross", [False, True], ids=["same", "cross"])
@pytest.mark.parametrize("n", [3, 4])
def test_contractions_match_per_height_loop(n, cross):
    # the BLAS contractions against an explicit loop over the heights, on
    # the square same-mesh stack and on the 96-vs-160-node cross-grid pair
    radial = build_radial_grid(n - 1, 160, "tan", 1.0)
    hs = default_halfspace_grid(radial)
    boundary = build_radial_grid(n - 1, 96, "tan", 1.3) if cross else radial
    op = get_operator(n, boundary, hs)
    # C-contiguous stacks: the reshape in extend is a view, not a copy
    assert op.matrices.flags.c_contiguous
    assert op.dual_matrices.flags.c_contiguous
    rng = np.random.default_rng(n)
    f = rng.uniform(0.5, 1.5, boundary.size)
    u = rng.uniform(0.5, 1.5, (radial.size, hs.heights.size))
    wt = hs.heights.weights
    ext = np.stack([M @ f for M in op.matrices], axis=1)
    dual = sum(wt[k] * (D @ u[:, k]) for k, D in enumerate(op.dual_matrices))
    got_ext, got_dual = op.extend(f), op.dual(u)
    assert got_ext.shape == ext.shape and got_dual.shape == dual.shape
    assert np.max(np.abs(got_ext - ext)) <= 1e-13 * np.max(np.abs(ext))
    assert np.max(np.abs(got_dual - dual)) <= 1e-13 * np.max(np.abs(dual))


def test_operator_cache_keyed_by_mesh_content():
    # equal meshes built separately share one operator, built once; a mesh
    # with the same nodes and weights but another scale or mapping does not
    g1 = build_radial_grid(2, 24, "tan", 1.0)
    g2 = build_radial_grid(2, 24, "tan", 1.0)
    op = get_operator(3, g1, default_halfspace_grid(g1, 16))
    assert get_operator(3, g2, default_halfspace_grid(g2, 16)) is op
    assert op.dual_matrices is op.matrices
    for mapping, scale in (("tan", 2.0), ("exp", 1.0)):
        other = RadialGrid(2, g1.nodes.copy(), g1.weights.copy(), g1.r_max,
                           mapping=mapping, scale=scale)
        assert get_operator(3, other, default_halfspace_grid(other, 16)) \
            is not op


def test_dual_monte_carlo_oracle(boundary3, halfspace3, rng):
    # Tu at xi = 0 for u = |x + e_3|^(-4), via importance-sampled MC
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 1) ** 2) ** -2.0)
    got = dual_extend(u, boundary3)
    m = 4_000_000
    us, vs = rng.random((2, m))
    t = vs / (1 - vs)
    r = us / (1 - us)
    jac = (1 - vs) ** -2 * (1 - us) ** -2
    # P(x, 0) u(x) over the half-space, axisymmetric reduction
    vals = (2 * math.pi * r * jac
            * kernel_constant(3) * t / (r ** 2 + t ** 2) ** 1.5
            / (r ** 2 + (t + 1) ** 2) ** 2)
    mc = vals.mean()
    sigma = vals.std(ddof=1) / math.sqrt(m)
    assert abs(got.value_at_zero - mc) < 4 * sigma
    assert np.all(np.isfinite(got.values))


def test_kernel_mass_unity():
    for n in (2, 3, 4):
        for s, t in ((1.0, 0.001), (0.2, 2.0), (30.0, 0.05)):
            assert kernel_mass(n, s, t) == pytest.approx(1.0, abs=2e-8)


@pytest.mark.parametrize("n", [3, 4])
def test_operator_rows_integrate_unit_mass(n):
    # P1 = 1: every operator row integrates the unit-mass kernel, through the
    # plain rows, the refined rows, their stencils and the data ladder
    g = build_radial_grid(n - 1, 96)
    hs = default_halfspace_grid(g)
    u = get_operator(n, g, hs).extend(np.ones(g.size))
    R, T = np.meshgrid(hs.radial.nodes, hs.heights.nodes, indexing="ij")
    err = np.abs(u - 1.0)[(R < 10.0) & (T < 10.0)]
    assert np.max(err) <= 5e-3
    assert np.median(err) <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_extend_at_matches_operator_rows(n):
    # extend_at reads the operator's own rows: at the nodes of a half-space
    # mesh it is poisson_extend, refined rows and their stencils included
    g = build_radial_grid(n - 1, 96)
    hs = default_halfspace_grid(g)
    f = dual_data(g)
    want = poisson_extend(f, hs).values
    R, T = np.meshgrid(hs.radial.nodes, hs.heights.nodes, indexing="ij")
    got = extend_at(f, R, T)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_slab_mass_identity(boundary3):
    f = sample_radial(boundary3,
                      lambda r: (1 + r ** 2) ** -1.5 / (2 * math.pi),
                      tail_exponent=3.0, nonnegative=True)
    assert lp_norm_boundary(f, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert slab_mass(f, 0.7) == pytest.approx(0.7, abs=1e-6)
    # linear in f: doubled mass doubles the slab integral
    assert slab_mass(f.scaled(2.0), 1.0) == pytest.approx(2.0, abs=2e-6)
    # small slabs shrink proportionally
    assert slab_mass(f, 1e-3) == pytest.approx(1e-3, abs=1e-9)
    with pytest.raises(DomainError):
        slab_mass(f, 0.0)


def test_commutator_constant_phi(boundary3):
    f = dual_data(boundary3)
    phi = RadialFn(boundary3, np.full(boundary3.size, 0.7),
                   value_at_zero=0.7, tail_exponent=0.0)
    gap = commutator_gap(f, 0.0, phi, 1.0)
    assert gap == pytest.approx(0.0, abs=1e-14)


def test_commutator_lipschitz_bound(boundary3):
    f = dual_data(boundary3)
    phi = RadialFn(boundary3, np.minimum(boundary3.nodes, 1.0),
                   value_at_zero=0.0, tail_exponent=0.0)
    assert commutator_gap(f, 1.0, phi, 1.0) <= 1e-6
    assert commutator_gap(f, 1.0, phi, 0.3) <= 1e-6


def test_commutator_zero_f(boundary3):
    zero = RadialFn(boundary3, np.zeros(boundary3.size), value_at_zero=0.0,
                    tail_exponent=np.inf)
    phi = RadialFn(boundary3, np.minimum(boundary3.nodes, 1.0),
                   value_at_zero=0.0, tail_exponent=0.0)
    assert commutator_gap(zero, 1.0, phi, 1.0) == 0.0


def test_maximum_principle(boundary3, halfspace3):
    f = sample_radial(boundary3, lambda r: np.exp(-r ** 2) * (1 + 0.3 * r),
                      nonnegative=True)
    u = poisson_extend(f, halfspace3)
    assert np.max(u.values) <= np.max(f.values) * (1 + 1e-9)


def test_uniform_height_bound(boundary3, halfspace3):
    # |Pf|(x) <= |P_t|_{p'} |f|_p = c(n,p) x_n^{-(n-1)/p} |f|_p by Hoelder
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    p = 2.0
    q = p / (p - 1)
    norm_f = lp_norm_boundary(f, p)
    u = poisson_extend(f, halfspace3)
    for k in (0, 10, 40, 80):
        t = halfspace3.heights.nodes[k]
        bound = pt_lp_norm(3, q, t) * norm_f
        assert np.max(u.values[:, k]) <= bound * (1 + 1e-8)


def test_mean_value_property(boundary3):
    # harmonicity proxy: spherical means match center values to O(h^2)
    f = conformal_data(boundary3)
    centers = [(0.5, 1.0), (1.5, 2.0)]
    h = 0.15
    rng = np.random.default_rng(5)
    for (r0, t0) in centers:
        m = 400
        zs = rng.normal(size=(m, 3))
        zs /= np.linalg.norm(zs, axis=1)[:, None]
        pts = np.array([r0, 0.0, t0]) + h * zs
        rr = np.hypot(pts[:, 0], pts[:, 1])
        tt = pts[:, 2]
        sphere_mean = float(np.mean(extend_at(f, rr, tt)))
        center = extend_at(f, r0, t0)[0]
        exact_center = (r0 ** 2 + (t0 + 1) ** 2) ** -0.5
        # Monte Carlo mean has O(m^-1/2) noise; bound generously
        assert abs(sphere_mean - center) < 5e-2 * abs(center)
        assert center == pytest.approx(exact_center, abs=1e-9)


def test_strong_bound_consistency(boundary3, halfspace3, rng):
    # |Pf|_{np/(n-1)} <= c |f|_p with c the extremal Rayleigh quotient
    from halfext.extremals import sharp_constant
    c = sharp_constant(3, "conformal")
    p, q = 4.0, 6.0
    for _ in range(10):
        a, b, e = rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0), \
            rng.uniform(0.6, 1.6)
        f = sample_radial(boundary3, lambda r: a * (b + r ** 2) ** -e,
                          tail_exponent=2 * e, nonnegative=True)
        u = poisson_extend(f, halfspace3)
        assert lp_norm_halfspace(u, q) <= c * lp_norm_boundary(f, p) \
            * (1 + 1e-3)


def test_dual_bound_scaling(boundary3, halfspace3, rng):
    # (2.3)-type bound: the ratio |Tu|_{(n-1)p/(n-p)} / |u|_p is invariant
    # under dilations of u (checked by rescaling the same profile)
    p = 2.0
    target = (3 - 1) * p / (3 - p)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    base = (0.5 + R ** 2 + (T + 0.7) ** 2) ** -1.6
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        vals = lam ** (-3 / p) * ((0.5 + (R / lam) ** 2
                                   + (T / lam + 0.7) ** 2) ** -1.6)
        u = AxisymFn(halfspace3, vals)
        g = dual_extend(u, boundary3)
        num = lp_norm_boundary(g, target)
        den = lp_norm_halfspace(u, p)
        ratios.append(num / den)
    assert np.max(ratios) / np.min(ratios) == pytest.approx(1.0, abs=2e-3)
    assert base.shape == vals.shape
