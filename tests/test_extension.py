import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from halfext import extension
from halfext.errors import DivergenceError, DomainError
from halfext.extension import (_ELLIPE_P, _ELLIPE_Q, _PANEL_ORDER,
                               PEAK_FACTOR, _diagonal_breaks, _kernel_matrix,
                               _log_poly, _ring_hyp, _window_cubics,
                               commutator_gap, dual_extend, extend_at,
                               extension_norm, get_operator, kernel_mass,
                               poisson_extend, qt_ring, ring_kernel,
                               slab_mass)
from halfext.extremals import (ExtremalSpec, extremal_profile,
                               rayleigh_quotient, sharp_constant)
from halfext.grids import (AxisymFn, HalfspaceGrid, RadialFn,
                           build_radial_grid, default_halfspace_grid,
                           lp_norm_boundary, lp_norm_halfspace,
                           polar_halfspace_rule, sample_radial)
from halfext.kernel import kernel_constant, pt_lp_norm, sphere_area
from halfext.quadrature import GROW, composite_rules, peak_breaks


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
        if n == 2:
            want = kernel_constant(2) * 2 * t / (s ** 2 + t ** 2)
        methods = ("closed", "gl") if n >= 5 else ("closed",)
        for method in methods:
            got = ring_kernel(n, 0.0, s, t, method=method)
            assert got == pytest.approx(want, rel=1e-10)


def _ring_triples():
    # r = 0, r << s, r = s exactly, and s -> r as t -> 0, where
    # m = 4rs/((r+s)^2+t^2) -> 1: the last four fixed triples put 1 - m at
    # 2.5e-11, 2.5e-11, 2.8e-12 and 1.6e-14, deep in the log series' range
    fixed = [(0.0, 1.3, 0.4), (1e-4, 3.0, 0.2), (0.8, 0.8, 0.05),
             (1.0, 1.0, 1e-5), (1.0, 1.0 + 1e-7, 1e-5),
             (3.0, 3.0 * (1.0 + 1e-9), 1e-5), (40.0, 40.0, 1e-5)]
    gen = np.random.default_rng(5)
    r = 10.0 ** gen.uniform(-2.0, 1.0, 6)
    s = r * (1.0 + 10.0 ** gen.uniform(-6.0, 0.0, 6))
    t = 10.0 ** gen.uniform(-5.0, 0.5, 6)
    return fixed + list(zip(r, s, t))


@pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
def test_ring_kernel_closed_matches_mpmath(n):
    # the closed form against the defining angular integral in 30 digits,
    # with breakpoints at the peak width sqrt(((r-s)^2+t^2)/(r s)) and its
    # powers of 10
    mp = pytest.importorskip("mpmath")
    for r, s, t in _ring_triples():
        with mp.workdps(30):
            r_, s_, t_ = mp.mpf(r), mp.mpf(s), mp.mpf(t)
            amm = (r_ - s_) ** 2 + t_ ** 2

            def integrand(th):
                return ((amm + 4 * r_ * s_ * mp.sin(th / 2) ** 2) ** (-n / 2)
                        * mp.sin(th) ** (n - 3))
            width = mp.sqrt(amm / (r_ * s_)) if r > 0.0 else mp.pi
            breaks = [mp.mpf(0)] + [width * 10 ** k for k in range(8)
                                    if width * 10 ** k < mp.pi] + [mp.pi]
            want = float(mp.mpf(kernel_constant(n))
                         * mp.mpf(sphere_area(n - 2)) * t_
                         * mp.quad(integrand, breaks))
        assert abs(ring_kernel(n, r, s, t) / want - 1.0) <= 1e-13, (r, s, t)


def test_ellipe_series_matches_mpmath():
    # E(m) from x = 1 - m, against mpmath in enough digits to resolve
    # m = 1 - x, to 2 ulp: m = 0 (x = 1), m = 1 (x = 0, with no warning for
    # 0 log 0), x down to 1e-300, and uniform m
    mp = pytest.importorskip("mpmath")
    x = np.concatenate([[1.0, 0.0, 0.5], 10.0 ** -np.arange(1.0, 301.0, 13.0),
                        np.random.default_rng(3).uniform(0.0, 1.0, 40)])
    with np.errstate(all="raise"):
        got = _log_poly(x, _ELLIPE_P, _ELLIPE_Q)
    with mp.workdps(330):
        want = np.array([float(mp.ellipe(1 - mp.mpf(v))) for v in x])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), x[
        np.abs(got - want) > 2 * np.spacing(want)]
    assert got[1] == 1.0


@pytest.mark.parametrize("h", [1.5, 2.0, 2.5, 3.0, 3.5])
def test_ring_hyp_matches_mpmath(h):
    # B(h, h) 2F1(h-1, h; 2h; 1-w) on (0, 1] to 1e-14: w down to 1e-300,
    # both sides of the series switch at ((1-w)/(1+w))^2 = 0.6, and w = 1.
    # Below w = 1e-25 the reference is the expansion at z = 1 (c-a-b = 1),
    # 1/h + (h-1) w (log w + psi(h) + psi(h+1) + 2 gamma - 1), whose first
    # dropped term is O(w^2 log w)
    mp = pytest.importorskip("mpmath")
    switch = (1 - math.sqrt(0.6)) / (1 + math.sqrt(0.6))
    w = np.concatenate([10.0 ** -np.arange(0.0, 301.0, 20.0),
                        np.linspace(0.01, 1.0, 34),
                        [switch, np.nextafter(switch, 0.0), 1e-11]])
    got = _ring_hyp(h, w)
    with mp.workdps(40):
        d0 = mp.digamma(h) + mp.digamma(h + 1) + 2 * mp.euler - 1
        want = [1 / mp.mpf(h) + (h - 1) * v * (mp.log(v) + d0) if v < 1e-25
                else mp.beta(h, h) * mp.hyp2f1(h - 1, h, 2 * h, 1 - mp.mpf(v))
                for v in map(mp.mpf, w)]
    err = [float(abs(g / v - 1)) for g, v in zip(got, want)]
    assert max(err) <= 1e-14, w[int(np.argmax(err))]


def test_ring_kernel_adaptive_quadrature_oracle():
    # n=3, r=s=t=1: (1/(2 pi)) * int_0^{2 pi} (3 - 2 cos x)^(-3/2) dx
    val, _ = quad(lambda x: (3 - 2 * math.cos(x)) ** -1.5, 0, 2 * math.pi,
                  limit=200)
    want = val / (2 * math.pi)
    assert ring_kernel(3, 1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("r, s, t", [(1.0, 1.0005, 1e-3), (1.0, 1.0, 1e-3),
                                     (0.3, 2.0, 0.5), (2.5, 1.2, 4.0)])
def test_qt_ring_adaptive_quadrature_oracle(n, r, s, t):
    # qt_ring integrates Q_t(z) = c_n |z| / (|z|^2 + t^2)^(n/2) over the
    # ring |z'| = s; with w_1 = cos(theta), |z|^2 = (r-s)^2 + 4rs sin^2(theta/2)
    # and the ring measure is |S^(n-3)| sin(theta)^(n-3) dtheta: 2 dtheta at
    # n=3, 2 pi sin(theta) dtheta at n=4
    def integrand(th):
        R2 = (r - s) ** 2 + 4.0 * r * s * math.sin(0.5 * th) ** 2
        return (math.sqrt(R2) * (R2 + t * t) ** (-0.5 * n)
                * sphere_area(n - 2) * math.sin(th) ** (n - 3))
    width = math.sqrt(((r - s) ** 2 + t * t) / (r * s))
    val, _ = quad(integrand, 0.0, math.pi, points=[width, 10 * width],
                  limit=400, epsabs=0.0, epsrel=1e-13)
    assert qt_ring(n, r, s, t) == pytest.approx(kernel_constant(n) * val,
                                                rel=1e-12)


def test_ring_kernel_symmetric(rng):
    r, s, t = rng.uniform(0.1, 5.0, (3, 20))
    for n in (3, 4, 5, 6):
        assert np.allclose(ring_kernel(n, r, s, t), ring_kernel(n, s, r, t),
                           rtol=1e-14)


def test_ring_kernel_gl_matches_closed(rng):
    # one (16, 3) draw takes the same 48 numbers from the session generator
    # as the 16 draws of 3 this test made when it covered n = 3, 4 only
    r, s, t = rng.uniform(0.05, 4.0, (16, 3)).T
    # low heights, where the angular peak is narrow, from an own generator
    # so the session draws above do not shift
    low = np.random.default_rng(19)
    r = np.concatenate([r, low.uniform(0.05, 4.0, 16)])
    s = np.concatenate([s, low.uniform(0.05, 4.0, 16)])
    t = np.concatenate([t, 10.0 ** low.uniform(-6.0, -1.0, 16)])
    for n in (3, 4, 5, 6):
        gl = ring_kernel(n, r, s, t, method="gl")
        closed = ring_kernel(n, r, s, t, method="closed")
        assert np.max(np.abs(gl / closed - 1.0)) <= 1e-12


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
    assert not np.any(dual_extend(zero).values)


def test_duality_pairing(boundary3, halfspace3):
    f = sample_radial(boundary3, lambda r: (0.5 + r ** 2) ** -1.2,
                      tail_exponent=2.4, nonnegative=True)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (1 + R ** 2 + (T + 0.5) ** 2) ** -2.0)
    lhs = float(np.dot(boundary3.sphere * boundary3.weights,
                       dual_extend(u).values * f.values))
    rhs = float(np.sum(halfspace3.cell_measures() * u.values
                       * poisson_extend(f, halfspace3).values))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_operator_rejects_foreign_boundary_mesh():
    # boundary data lives on the half-space's radial mesh: a boundary mesh
    # with other content has no operator, in either direction
    g = build_radial_grid(2, 24, "tan", 1.0)
    hs = HalfspaceGrid(g, build_radial_grid(1, 16))
    for other in (build_radial_grid(2, 28, "tan", 1.0),
                  build_radial_grid(2, 32, "tan", 1.0)):
        with pytest.raises(DomainError, match="radial mesh"):
            get_operator(3, other, hs)
        with pytest.raises(DomainError, match="radial mesh"):
            poisson_extend(dual_data(other), hs)
    u = AxisymFn(hs, np.ones((g.size, hs.heights.size)))
    assert dual_extend(u).grid is g


@pytest.mark.parametrize("boundary", ["same", "equal"])
@pytest.mark.parametrize("n", [3, 4])
def test_contractions_match_per_height_loop(n, boundary):
    # the BLAS contractions against an explicit loop over the heights, on
    # the one square stack; boundary data on the radial mesh itself or on a
    # separately built equal mesh reads the same operator
    radial = build_radial_grid(n - 1, 160, "tan", 1.0)
    hs = default_halfspace_grid(radial)
    bnd = (radial if boundary == "same"
           else build_radial_grid(n - 1, 160, "tan", 1.0))
    op = get_operator(n, bnd, hs)
    assert op is get_operator(n, radial, hs)
    # a C-contiguous stack, which both matmuls read in place
    assert op.matrices.flags.c_contiguous
    assert op.dual_matrices is op.matrices
    rng = np.random.default_rng(n)
    f = rng.uniform(0.5, 1.5, radial.size)
    u = rng.uniform(0.5, 1.5, (radial.size, hs.heights.size))
    wt = hs.heights.weights
    ext = np.stack([M @ f for M in op.matrices], axis=1)
    dual = sum(wt[k] * (M @ u[:, k]) for k, M in enumerate(op.matrices))
    got_ext, got_dual = op.extend(f), op.dual(u)
    assert got_ext.shape == ext.shape and got_dual.shape == dual.shape
    assert np.max(np.abs(got_ext - ext)) <= 1e-13 * np.max(np.abs(ext))
    assert np.max(np.abs(got_dual - dual)) <= 1e-13 * np.max(np.abs(dual))


def test_contractions_take_a_batch_axis(boundary3, halfspace3):
    # one f is the GEMV over the (N_t N, N) view of the stack, bitwise; a
    # batch of one is the single call, bitwise; a batch of four (one GEMM
    # per height, each M[k] read once) matches per-column calls to 1e-15
    op = get_operator(3, boundary3, halfspace3)
    n_t, n, _ = op.matrices.shape
    rng = np.random.default_rng(11)
    F = rng.uniform(0.5, 1.5, (n, 4))
    U = rng.uniform(0.5, 1.5, (n, n_t, 4))
    flat = (op.matrices.reshape(n_t * n, n) @ F[:, 0]).reshape(n_t, n).T
    assert np.array_equal(op.extend(F[:, 0]), flat)
    assert np.array_equal(op.extend(F[:, :1])[..., 0], op.extend(F[:, 0]))
    assert np.array_equal(op.dual(U[..., :1])[:, 0], op.dual(U[..., 0]))
    ext, dual = op.extend(F), op.dual(U)
    assert ext.shape == (n, n_t, 4) and dual.shape == (n, 4)
    for j in range(4):
        one_ext, one_dual = op.extend(F[:, j]), op.dual(U[..., j])
        assert np.max(np.abs(ext[..., j] - one_ext)) \
            <= 1e-15 * np.max(np.abs(one_ext))
        assert np.max(np.abs(dual[:, j] - one_dual)) \
            <= 1e-15 * np.max(np.abs(one_dual))


def test_operator_cache_keyed_by_mesh_content():
    # equal meshes built separately share one operator, built once
    g1 = build_radial_grid(2, 24, "tan", 1.0)
    g2 = build_radial_grid(2, 24, "tan", 1.0)
    op = get_operator(3, g1, HalfspaceGrid(g1, build_radial_grid(1, 16)))
    assert get_operator(3, g2,
                        HalfspaceGrid(g2, build_radial_grid(1, 16))) is op
    assert op.dual_matrices is op.matrices


def test_dual_monte_carlo_oracle(boundary3, halfspace3, rng):
    # Tu at xi = 0 for u = |x + e_3|^(-4), via importance-sampled MC
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 1) ** 2) ** -2.0)
    got = dual_extend(u)
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
        # one call for every node of a mesh, as slab_mass makes it
        s = build_radial_grid(n - 1, 160, "tan", 1.0).nodes
        for t in (1e-4, 0.3, 2.0, 50.0):
            assert np.max(np.abs(kernel_mass(n, s, t) - 1.0)) <= 2e-8


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


@pytest.mark.parametrize("n, N, bound_conformal, bound_dual",
                         [(3, 160, 5e-9, 8e-7), (4, 128, 3e-7, 1.2e-5)])
def test_extend_at_below_mesh_spacing(n, N, bound_conformal, bound_dual):
    # refined rows off the nodes, at heights far below the mesh spacing,
    # against both closed-form families: (1+r^2)^-(n-2)/2 extends to
    # (r^2+(1+t)^2)^-(n-2)/2 and (1+r^2)^-n/2 to (1+t)(r^2+(1+t)^2)^-n/2
    g = build_radial_grid(n - 1, N)
    r = np.random.default_rng(16).uniform(0.0, 5.0, 200)
    conformal = sample_radial(g, lambda s: (1 + s ** 2) ** (1 - 0.5 * n),
                              tail_exponent=n - 2.0, nonnegative=True)
    dual = sample_radial(g, lambda s: (1 + s ** 2) ** (-0.5 * n),
                         tail_exponent=float(n), nonnegative=True)
    for t in (1e-4, 1e-3, 1e-2, 1e-1):
        a = r ** 2 + (1.0 + t) ** 2
        err_c = np.abs(extend_at(conformal, r, t) / a ** (1 - 0.5 * n) - 1.0)
        err_d = np.abs(extend_at(dual, r, t) / ((1 + t) * a ** (-0.5 * n))
                       - 1.0)
        assert np.max(err_c) <= bound_conformal
        assert np.max(err_d) <= bound_dual


@pytest.mark.parametrize("n", [3, 4])
def test_polar_rows_are_extend_at_rows(n):
    # the operator's polar rows are the row rule at the polar points, one
    # height per row, ray after ray
    g = build_radial_grid(n - 1, 96)
    hs = default_halfspace_grid(g)
    op = get_operator(n, g, hs)
    r, t, w = polar_halfspace_rule(n)
    f = dual_data(g)
    want = extend_at(f, r, t).ravel()
    assert np.max(np.abs(op.polar_rows @ f.values - want)) \
        <= 1e-13 * np.max(want)
    assert np.array_equal(op.polar_weights, w.ravel())
    q = 2.0
    assert extension_norm(f, q, hs) == pytest.approx(
        np.sum(w.ravel() * want ** q) ** (1 / q), rel=1e-13)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("N", [64, 160, 224])
def test_polar_norm_far_field_guard_passes_closed_forms(n, N):
    # both families at their exponents, with the tail left to the fit as
    # for solver iterates: q*beta >= n + 1, so the guard passes and the
    # quotient is at the polar rule's accuracy (worst: 1.5e-6 at n=4, N=64)
    g = build_radial_grid(n - 1, N)
    hs = default_halfspace_grid(g)
    for kind in ("conformal", "dual"):
        spec = ExtremalSpec(n, kind)
        f = RadialFn(g, extremal_profile(spec, g).values, nonnegative=True)
        got = rayleigh_quotient(f, n, spec.critical_p, hs)
        assert got == pytest.approx(sharp_constant(n, kind), rel=3e-6)


@pytest.mark.parametrize("p", [1.1, 1.25])
def test_polar_norm_far_field_guard_raises_below_l1_threshold(boundary3, p):
    # L^1 data extends like |x|^-(n-1); below p = (n+1)/n the mapped
    # integrand is singular at rho = inf (p = 1.25 gave a silent 0.552719 on
    # the product mesh, while polar rules were still moving)
    f = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                      tail_exponent=math.inf, nonnegative=True)
    hs = default_halfspace_grid(boundary3)
    with pytest.raises(DivergenceError, match="far field"):
        rayleigh_quotient(f, 3, p, hs)
    with pytest.raises(DivergenceError, match="far field"):
        extension_norm(f, 1.5 * p, hs)


@pytest.mark.parametrize("n", [5, 6])
def test_operator_closed_kernel_matches_gl_stack(n):
    # the operator's closed-form kernel against the angular-panel oracle,
    # through the same row rule, entry by entry relative to each row's size
    g = build_radial_grid(n - 1, 24)
    hs = default_halfspace_grid(g)
    got = get_operator(n, g, hs).matrices
    gl = partial(ring_kernel, n, method="gl")
    want = np.stack([_kernel_matrix(gl, g.nodes, g, t)
                     for t in hs.heights.nodes])
    scale = np.sum(np.abs(want), axis=2, keepdims=True)
    assert np.max(np.abs(got - want) / scale) <= 1e-13


def _reference_stencils(grid, query):
    # the stencil rule as first written, on (len(query), 4) arrays
    xn = grid.parameter(grid.nodes)
    xq = grid.parameter(query)
    start = np.clip(np.searchsorted(xn, xq) - 2, 0, grid.size - 4)
    four = np.arange(4)
    windows = np.lib.stride_tricks.sliding_window_view(xn, 4)
    pair = windows[:, :, None] - windows[:, None, :]
    pair[:, four, four] = 1.0
    denom = np.prod(pair, axis=2)[start]
    cols = start[:, None] + four[None, :]
    diff = xq[:, None] - xn[cols]
    full = np.prod(diff, axis=1)
    safe = np.where(diff == 0.0, 1.0, diff)
    weights = full[:, None] / (safe * denom)
    hits = diff == 0.0
    rows_hit = hits.any(axis=1)
    weights[rows_hit] = hits[rows_hit].astype(float)
    return cols, weights


def _ladder(grid):
    return peak_breaks(0.0, 1.0 / 64.0, 0.0, grid.r_max, GROW)


def _reference_row_rule(kernel, out_nodes, in_grid, t):
    # the row rule as first written: the full plain matrix, flagged rows
    # zeroed, refined terms scattered in with np.add.at
    t = np.broadcast_to(np.asarray(t, dtype=float), out_nodes.shape)
    M = kernel(out_nodes[:, None], in_grid.nodes[None, :], t[:, None])
    M = M * in_grid.weights[None, :]
    flagged = np.nonzero(t < PEAK_FACTOR * in_grid.local_spacing(out_nodes))[0]
    s, w, offsets = composite_rules(
        _diagonal_breaks(out_nodes[flagged], t[flagged], in_grid.r_max,
                         _ladder(in_grid)), _PANEL_ORDER)
    rows = np.repeat(flagged, np.diff(offsets))
    coeff = w * kernel(out_nodes[rows], s, t[rows]) * s ** (in_grid.d - 1)
    cols, lw = _reference_stencils(in_grid, s)
    M[flagged, :] = 0.0
    np.add.at(M, (np.repeat(rows, 4), cols.ravel()),
              (coeff[:, None] * lw).ravel())
    return M


def _operator_builds(monkeypatch, budget):
    """Empty the operator cache under a byte budget; return the list that
    collects the boundary mesh size of every operator built from then on.
    Each build first checks that the cache made room for it."""
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    monkeypatch.setattr(extension, "_CACHE_BYTES", budget)
    built = []
    build = extension._matrix_stack

    def recorded(n, grid, heights):
        need = extension.operator_nbytes(HalfspaceGrid(grid, heights))
        assert extension.cache_held_bytes() + need <= max(budget, need)
        built.append(grid.size)
        return build(n, grid, heights)

    monkeypatch.setattr(extension, "_matrix_stack", recorded)
    return built


def _meshes(N, n=3):
    g = build_radial_grid(n - 1, N)
    return g, default_halfspace_grid(g)


def test_operator_cache_held_bytes_within_budget(monkeypatch):
    budget = 1_000_000      # two or three of these operators; N=48 is over
    built = _operator_builds(monkeypatch, budget)
    ladder = (16, 24, 32, 40, 48, 16, 32)
    for N in ladder:
        g, hs = _meshes(N)
        op = get_operator(3, g, hs)
        need = extension.operator_nbytes(hs)
        assert op.matrices.nbytes + op.polar_rows.nbytes == need
        assert extension.cache_held_bytes() <= max(budget, need)
        assert next(reversed(extension._OPERATOR_CACHE.values())) is op
    # N=16 and N=32 were evicted before they came back, so built again
    assert built == list(ladder)
    assert len(extension._OPERATOR_CACHE) == 2


def test_operator_cache_hit_refreshes_recency(monkeypatch):
    (ga, a), (gb, b), (gc, c) = (_meshes(N) for N in (16, 24, 32))
    nbytes = [extension.operator_nbytes(hs) for hs in (a, b, c)]
    # A and B fit, and A and C, but not all three
    built = _operator_builds(monkeypatch, nbytes[0] + nbytes[2])
    op_a = get_operator(3, ga, a)
    get_operator(3, gb, b)
    assert get_operator(3, ga, a) is op_a and built == [16, 24]
    get_operator(3, gc, c)            # evicts B, used less recently than A
    assert get_operator(3, ga, a) is op_a and built == [16, 24, 32]
    get_operator(3, gb, b)
    assert built == [16, 24, 32, 24]


def test_operator_over_budget_built_once(monkeypatch):
    built = _operator_builds(monkeypatch, 1)
    g, hs = _meshes(32)
    f = conformal_data(g)
    op = get_operator(3, g, hs)
    poisson_extend(f, hs)
    extension_norm(f, 6.0, hs)
    dual_extend(AxisymFn(hs, np.ones((g.size, hs.heights.size))))
    assert get_operator(3, g, hs) is op and built == [32]
    assert extension.cache_held_bytes() == extension.operator_nbytes(hs)


def test_cache_budget_holds_el_solve_pair():
    # the el-solve benchmark's two N=160 operators, and kernel-build's
    # largest rung alone, by the mesh formula: nothing is built
    pair = sum(extension.operator_nbytes(_meshes(160, n)[1]) for n in (3, 4))
    assert pair <= extension._CACHE_BYTES
    assert extension.operator_nbytes(_meshes(224)[1]) <= extension._CACHE_BYTES


@pytest.mark.parametrize("mapping, scale", [("tan", 1.0)])
def test_diagonal_rules_ladder_only_below_half_r(mapping, scale):
    # the refined rows' breakpoints: the mesh ladder GROW^k / 64 is
    # kept below r/2 only; from r/2 up every breakpoint is the diagonal
    # peak's, whose panels grow by 8 from width t
    g = build_radial_grid(2, 64, mapping, scale)
    r = np.concatenate([np.geomspace(1e-4, g.r_max, 40), g.nodes[::7]])
    t = np.geomspace(1e-6, 1e-2, r.size)
    rows = _diagonal_breaks(r, t, g.r_max, _ladder(g))
    ladder = GROW ** np.arange(60) / 64.0
    ladder = ladder[ladder < g.r_max]
    assert rows.shape[0] == r.size
    for row, x, h in zip(rows, r, t):
        assert not np.any(np.isin(row[row >= 0.5 * x], ladder))
        assert np.all(np.isin(ladder[ladder < 0.5 * x], row))
        peak = peak_breaks(x, h, 0.0, g.r_max, 8.0)
        assert np.array_equal(np.unique(row[row >= 0.5 * x]),
                              np.unique(peak[peak >= 0.5 * x]))


@pytest.mark.parametrize("n, N, ring", [(3, 64, ring_kernel),
                                        (5, 24, ring_kernel),
                                        (3, 48, qt_ring)])
def test_kernel_matrix_matches_reference_row_rule(n, N, ring):
    # the refined rows sum through per-window moments, the reference scatters
    # per-node stencil weights: the same terms in another order, so equal to
    # rounding (1.6e-15 of a row's absolute sum measured)
    g = build_radial_grid(n - 1, N)
    out = np.concatenate([g.nodes[::3], [0.5 * g.nodes[0], 1.1 * g.r_max]])
    t = np.geomspace(1e-4, 20.0, out.size)[::-1]
    refine = t < PEAK_FACTOR * g.local_spacing(out)
    assert refine.any() and not refine.all()
    kernel = partial(ring, n)
    got = _kernel_matrix(kernel, out, g, t)
    want = _reference_row_rule(kernel, out, g, t)
    scale = np.sum(np.abs(want), axis=1, keepdims=True)
    assert np.max(np.abs(got - want) / scale) <= 1e-14


def _cubic_weights(grid, query):
    # (start, weights): the window each query falls in, as the row rule
    # picks it, and its 4 Lagrange weights from the window's monomial basis
    centre, inv_h, basis = _window_cubics(grid)
    xq = grid.parameter(query)
    start = np.clip(np.searchsorted(grid.parameter(grid.nodes), xq) - 2, 0,
                    grid.size - 4)
    y = (xq - centre[start]) * inv_h[start]
    powers = y[:, None] ** np.arange(4)
    return start, np.einsum("qam,qm->qa", basis[start], powers)


@pytest.mark.parametrize("mapping, scale", [("tan", 1.0)])
def test_window_cubics_reproduce_cubics(mapping, scale):
    g = build_radial_grid(2, 40, mapping, scale)
    xn = g.parameter(g.nodes)
    centre, inv_h, basis = _window_cubics(g)
    assert centre.shape == inv_h.shape == (g.size - 3,)
    assert basis.shape == (g.size - 3, 4, 4)

    def cubic(x):
        return 1.0 - 2.0 * x + 0.7 * x ** 2 - 0.3 * x ** 3

    between = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    # clamped windows extrapolate up to one end spacing beyond the mesh
    last = g.r_max - g.nodes[-2]
    outside = np.array([0.0, 0.4 * g.nodes[0], g.r_max + 0.5 * last,
                        g.r_max + last])
    query = np.concatenate([between, outside])
    start, weights = _cubic_weights(g, query)
    assert start.min() == 0 and start.max() == g.size - 4
    cols = start[:, None] + np.arange(4)
    want = cubic(g.parameter(query))
    assert np.max(np.abs((weights * cubic(xn[cols])).sum(axis=1) - want)) \
        <= 1e-12 * np.max(np.abs(want))
    # the per-node stencils of the reference row rule, to rounding
    ref_cols, ref_weights = _reference_stencils(g, query)
    assert np.array_equal(cols, ref_cols)
    assert np.max(np.abs(weights - ref_weights)) <= 1e-13
    # a query exactly at a node takes that node's sample: a unit row
    start, weights = _cubic_weights(g, g.nodes)
    unit = np.arange(g.size)[:, None] == start[:, None] + np.arange(4)
    assert np.all(unit.sum(axis=1) == 1)
    assert np.max(np.abs(weights - unit)) <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
def test_kernel_matrix_rows_do_not_depend_on_their_block(n):
    # the stack and the polar rows are built in blocks of rows; a row
    # built alone is the same row, bit for bit
    g = build_radial_grid(n - 1, 96)
    hs = default_halfspace_grid(g)
    op = get_operator(n, g, hs)
    kernel = partial(ring_kernel, n)
    rows = np.random.default_rng(28).choice(op.matrices.shape[0] * g.size,
                                            500, replace=False)
    for k, i in zip(*np.divmod(rows, g.size)):
        alone = _kernel_matrix(kernel, g.nodes[i:i + 1], g,
                               hs.heights.nodes[k])
        assert alone.tobytes() == op.matrices[k, i].tobytes()
    r, t, _ = polar_halfspace_rule(n)
    r, t = r.ravel(), t.ravel()
    for j in range(0, r.size, 7):
        alone = _kernel_matrix(kernel, r[j:j + 1], g, t[j:j + 1])
        assert alone.tobytes() == op.polar_rows[j].tobytes()


def test_slab_mass_identity(boundary3):
    f = sample_radial(boundary3,
                      lambda r: (1 + r ** 2) ** -1.5 / (2 * math.pi),
                      tail_exponent=3.0, nonnegative=True)
    assert lp_norm_boundary(f, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert slab_mass([f], 0.7)[0] == pytest.approx(0.7, abs=1e-6)
    # linear in f: doubled mass doubles the slab integral
    assert slab_mass([f.scaled(2.0)], 1.0)[0] == pytest.approx(2.0, abs=2e-6)
    # small slabs shrink proportionally
    assert slab_mass([f], 1e-3)[0] == pytest.approx(1e-3, abs=1e-9)
    with pytest.raises(DomainError):
        slab_mass([f], 0.0)


def test_slab_mass_many_profiles(boundary3):
    fs = [sample_radial(boundary3, fn, tail_exponent=beta, nonnegative=True)
          for fn, beta in ((lambda r: (1 + r ** 2) ** -1.5, 3.0),
                           (lambda r: np.exp(-r ** 2), np.inf),
                           (lambda r: np.maximum(1 - r ** 2, 0.0) ** 2,
                            np.inf))]
    together = slab_mass(fs, 0.7)
    assert together.shape == (3,)
    for f, got in zip(fs, together):
        assert got == pytest.approx(slab_mass([f], 0.7)[0], rel=1e-15)
    negative = RadialFn(boundary3, -fs[1].values)
    with pytest.raises(DomainError):
        slab_mass([fs[0], negative, fs[2]], 0.7)
    coarse = build_radial_grid(2, 48, "tan", 1.0)
    other = sample_radial(coarse, lambda r: np.exp(-r ** 2), nonnegative=True)
    with pytest.raises(DomainError):
        slab_mass([fs[0], other], 0.7)


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


@pytest.mark.parametrize("k", [0.5, 2.0])
@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_commutator_bound_n2_closed_form(k, t):
    # n = 2 takes qt_ring's closed form; phi = sin(kr)/k has Lipschitz
    # seminorm 1, so the bound holds at phi_lip = 1 and fails at 0.2
    g = build_radial_grid(1, 96)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -1.0, nonnegative=True)
    phi = RadialFn(g, np.sin(k * g.nodes) / k, value_at_zero=0.0,
                   tail_exponent=0.0)
    assert commutator_gap(f, 1.0, phi, t) <= 1e-6
    assert commutator_gap(f, 0.2, phi, t) > 0.05


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
        g = dual_extend(u)
        num = lp_norm_boundary(g, target)
        den = lp_norm_halfspace(u, p)
        ratios.append(num / den)
    assert np.max(ratios) / np.min(ratios) == pytest.approx(1.0, abs=2e-3)
    assert base.shape == vals.shape
