import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from halfext.cli import FAMILY_CONSTANT_N3
from halfext.errors import DivergenceError, DomainError, SolverDivergence
from halfext.extremals import (ExtremalSpec, calibrate, el_sides,
                               el_sides_batch, extremal_profile, power_profile,
                               rayleigh_quotient, sharp_constant,
                               singular_constant)
from halfext.grids import (RadialFn, build_radial_grid,
                           default_halfspace_grid, dilate_boundary,
                           sample_radial, stack)
from halfext.kernel import unit_ball_volume


@pytest.fixture(scope="module")
def conformal3(boundary3):
    return extremal_profile(ExtremalSpec(3, "conformal"), boundary3)


@pytest.fixture(scope="module")
def dual3(boundary3):
    return extremal_profile(ExtremalSpec(3, "dual"), boundary3)


def test_extremal_profiles(boundary3, conformal3, dual3):
    r = boundary3.nodes
    assert np.allclose(conformal3.values, (1 + r ** 2) ** -0.5, rtol=1e-15)
    assert np.allclose(dual3.values, (1 + r ** 2) ** -1.5, rtol=1e-15)
    assert conformal3.tail_exponent == 1.0
    assert dual3.tail_exponent == 3.0


def test_extremal_dilation_family(boundary3):
    # the lambda=2 member equals the L^p-preserving dilation of lambda=1
    # up to the exact amplitude factor of the family algebra
    p = 4.0
    f1 = extremal_profile(ExtremalSpec(3, "conformal", lam=1.0), boundary3)
    f2 = extremal_profile(ExtremalSpec(3, "conformal", lam=2.0), boundary3)
    d = dilate_boundary(f1, 2.0, p)
    # f^{2,0}(r) = 2^(-1/2) (1 + (r/2)^2)^(-1/2) = 2^(1/2) (4 + r^2)^(-1/2)
    ratio = f2.values / d.values
    # constant up to the interpolation noise of the resampled dilation
    assert np.allclose(ratio, ratio[0], rtol=1e-6)


def test_sharp_constants_closed_forms():
    assert sharp_constant(3, "conformal") == pytest.approx(
        3 ** -0.25 * (4 * math.pi / 3) ** (-1 / 12), abs=1e-15)
    assert sharp_constant(3, "conformal") == pytest.approx(0.67435, abs=2e-5)
    assert sharp_constant(3, "dual") == pytest.approx(
        1 / (math.sqrt(2) * math.pi ** 0.25), abs=1e-15)
    assert sharp_constant(3, "dual") == pytest.approx(0.53113, abs=2e-5)
    assert sharp_constant(4, "conformal") == pytest.approx(
        4 ** (-1 / 3) * unit_ball_volume(4) ** (-1 / 12), abs=1e-15)
    with pytest.raises(DomainError):
        sharp_constant(2, "conformal")
    with pytest.raises(DomainError):
        sharp_constant(3, "other")


def test_rayleigh_conformal(conformal3, halfspace3):
    got = rayleigh_quotient(conformal3, 3, 4.0, halfspace3)
    assert got == pytest.approx(sharp_constant(3, "conformal"), abs=5e-4)
    # quadrature is in fact far sharper for this family
    assert got == pytest.approx(sharp_constant(3, "conformal"), abs=1e-8)


def test_rayleigh_dual(dual3, halfspace3):
    # |Pf|_2 on the polar rule: 1.5e-8 measured at N=160
    assert rayleigh_quotient(dual3, 3, 4 / 3, halfspace3) == pytest.approx(
        sharp_constant(3, "dual"), rel=1e-7)


def test_rayleigh_wrong_family_strictly_smaller(dual3, halfspace3):
    got = rayleigh_quotient(dual3, 3, 4.0, halfspace3)
    assert got < sharp_constant(3, "conformal") * 0.99


def test_rayleigh_zero_rejected(boundary3, halfspace3):
    from halfext.grids import RadialFn
    zero = RadialFn(boundary3, np.zeros(boundary3.size), value_at_zero=0.0)
    with pytest.raises(DomainError):
        rayleigh_quotient(zero, 3, 4.0, halfspace3)


def test_rayleigh_dilation_invariance(conformal3, halfspace3):
    base = rayleigh_quotient(conformal3, 3, 4.0, halfspace3)
    for lam in (0.25, 0.5, 2.0, 4.0):
        f = dilate_boundary(conformal3, lam, 4.0)
        got = rayleigh_quotient(f, 3, 4.0, halfspace3)
        assert got == pytest.approx(base, abs=1e-6)


def test_conformal_amplitude_integral():
    # Fourier-side reduction of the unit-coefficient system at xi = 0: the
    # calibrated conformal amplitude satisfies a^2 = 3 / J with
    # J = int_0^inf (4t+3) / ((t+1)^3 (2t+1)^3) dt = 1/2, so a = sqrt(6),
    # the value the CLI's rows check against
    J = quad(lambda t: (4 * t + 3) / ((t + 1) ** 3 * (2 * t + 1) ** 3),
             0, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    assert J == pytest.approx(0.5, rel=1e-12)
    assert FAMILY_CONSTANT_N3["conformal"] == pytest.approx(
        math.sqrt(3.0 / J), rel=1e-12)


def test_normalize_el_conformal(conformal3, halfspace3):
    a = calibrate(3, 4.0, *el_sides(conformal3, 4.0, halfspace3))[0]
    assert a == pytest.approx(math.sqrt(6.0), rel=1e-6)
    # calibrated member solves the unit-coefficient system
    again, residual = calibrate(
        3, 4.0, *el_sides(conformal3.scaled(a), 4.0, halfspace3))
    assert again == pytest.approx(1.0, abs=1e-6)
    assert residual <= 1e-6


def test_normalize_el_dual(dual3, halfspace3):
    # independent oracle: the dual-family calibrated amplitude is 2*sqrt(2)
    a, residual = calibrate(3, 4 / 3, *el_sides(dual3, 4 / 3, halfspace3))
    assert a == pytest.approx(2.0 * math.sqrt(2.0), rel=2e-4)
    assert residual <= 1e-3


def test_normalize_el_scaling(conformal3, halfspace3):
    def amplitude(f):
        return calibrate(3, 4.0, *el_sides(f, 4.0, halfspace3))[0]

    solved = conformal3.scaled(amplitude(conformal3))
    assert amplitude(solved) == pytest.approx(1.0, rel=1e-12)
    assert amplitude(solved.scaled(2.0)) == pytest.approx(0.5, rel=1e-12)


def test_el_residual_wrong_amplitude(conformal3, halfspace3):
    a = calibrate(3, 4.0, *el_sides(conformal3, 4.0, halfspace3))[0]
    lhs, rhs = el_sides(conformal3.scaled(2.0 * a), 4.0, halfspace3)
    assert np.max(np.abs(lhs - rhs)) / np.max(lhs) > 0.1


def test_calibrate_batch_is_each_column_alone(boundary3, conformal3, dual3,
                                              halfspace3):
    # sides (N, B) give each column's 1-D (a, residual) to roundoff (the
    # masked mean sums the batch in another order), on columns that do not
    # solve the system: a solution's residual (2.8e-8 for the conformal
    # member at p = 4) is itself roundoff, and moves by 2.6e-8 of itself;
    # these move by at most 8.1e-15 (residual) and 1.8e-15 (a)
    gauss = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                          nonnegative=True)
    bump = sample_radial(boundary3,
                         lambda r: np.maximum(1 - (r / 2) ** 2, 0.0) ** 2,
                         nonnegative=True)
    for p, other in ((4.0, dual3), (4 / 3, conformal3)):
        lhs, rhs, errors = el_sides_batch(stack([other, gauss, bump]), p,
                                          halfspace3)
        assert errors == [None] * 3
        a, residual = calibrate(3, p, lhs, rhs)
        assert a.shape == residual.shape == (3,)
        for j in range(3):
            one = calibrate(3, p, lhs[:, j], rhs[:, j])
            assert all(isinstance(x, float) for x in one)
            assert abs(a[j] / one[0] - 1.0) <= 1e-14
            assert abs(residual[j] / one[1] - 1.0) <= 1e-14
    # one column with no mass fails the whole call
    rhs[:, 1] = 0.0
    with pytest.raises(DomainError, match="cannot calibrate"):
        calibrate(3, 4 / 3, lhs, rhs)


def test_el_residual_minimality(boundary3, conformal3, dual3, halfspace3):
    # only the matching family solves its own exponent's system
    gauss = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                          nonnegative=True)
    bump = sample_radial(boundary3,
                         lambda r: np.maximum(1 - (r / 2) ** 2, 0.0) ** 2,
                         nonnegative=True)
    calibrated = {name: calibrate(3, 4.0, *el_sides(f, 4.0, halfspace3))
                  for name, f in (("conformal", conformal3), ("dual", dual3),
                                  ("gauss", gauss), ("bump", bump))}
    assert calibrated["conformal"][1] <= 1e-3
    for name in ("dual", "gauss", "bump"):
        assert calibrated[name][1] > 1e-3


def test_el_sides_overflow_is_divergence(monkeypatch):
    # (Pf)^(q-1) overflows: a divergent iterate, raised before the power is
    # wrapped, with no overflow warning; el_fixed_point records its row
    from halfext import solver
    g = build_radial_grid(2, 64)
    hs = default_halfspace_grid(g)
    f = sample_radial(g, lambda r: 1e70 * (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0, nonnegative=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="not finite"):
            el_sides(f, 4.0, hs)
    # powers past float32's range but finite in float64 solve, each side
    # homogeneous in the amplitude: the float32 loop casts at unit scale
    one, big = (sample_radial(g, lambda r: a * (1 + r ** 2) ** -0.5,
                              tail_exponent=1.0, nonnegative=True)
                for a in (1.0, 1e30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lhs, rhs, errors = el_sides_batch(stack([one, big, f]), 4.0, hs)
    for side, k in ((lhs, 3.0), (rhs, 5.0)):
        want, got = side[:, 0], side[:, 1]
        assert np.max(got) > 1e38 ** 2
        assert np.max(np.abs(got / 1e30 ** k - want)) <= 1e-7 * np.max(want)
    assert isinstance(errors[2], DivergenceError)
    monkeypatch.setattr(solver, "normalize_mass_half", lambda f, p: (1.0, f))
    with pytest.raises(SolverDivergence) as err:
        solver.el_fixed_point(3, 4.0, f, solver.SolverConfig(5, 1e-6), hs)
    assert err.value.trace.message.startswith("divergent iterate")
    assert len(err.value.trace) == 1
    assert math.isnan(err.value.trace.residuals[0])


def test_el_sides_negative_dual_is_divergence(monkeypatch):
    # the cubic windows give T of positive data a negative entry here
    # (about -4.8e3 at r = 1.1e-3 against a maximum of 2.3e5): a divergent
    # iterate with its min and max, not a dual clipped at 0
    from halfext import solver
    g = build_radial_grid(3, 160)
    hs = default_halfspace_grid(g)
    f = RadialFn(g, g.nodes ** -0.9 * (1 + g.nodes ** 2) ** -4.0,
                 tail_exponent=8.9, nonnegative=True)
    with pytest.raises(DivergenceError, match=r"negative: min -4\.8\d+e\+03, "
                       r"max 2\.3\d+e\+05"):
        el_sides(f, 3.0, hs)
    monkeypatch.setattr(solver, "normalize_mass_half", lambda f, p: (1.0, f))
    with pytest.raises(SolverDivergence) as err:
        solver.el_fixed_point(4, 3.0, f, solver.SolverConfig(5, 1e-6), hs)
    assert "dual side is negative" in err.value.trace.message
    assert len(err.value.trace) == 1
    assert math.isnan(err.value.trace.residuals[0])


def test_el_sides_negative_pf_is_divergence():
    # the cubic windows take this positive f below zero in Pf itself (about
    # -8.4e3 at r = 1.1e-3, t = 2.4e-4, against a maximum of 2.2e5): Pf goes
    # through the dual side's sign rule and is not clipped at 0
    g = build_radial_grid(3, 160)
    hs = default_halfspace_grid(g)
    f = RadialFn(g, g.nodes ** -1.5 * (1 + g.nodes ** 2) ** -4.0,
                 tail_exponent=9.5, nonnegative=True)
    with pytest.raises(DivergenceError, match=r"^Pf is negative: "
                       r"min -8\.448e\+03, max 2\.205e\+05$"):
        el_sides(f, 1.5, hs)


def test_el_sides_batch_isolates_a_divergent_iterate():
    # an iterate whose Pf goes negative (the f of the test above) and one
    # whose declared tail r^0 the kernel cannot integrate (``check_integrable``
    # on the batch's tails) fail alone: the others' sides are their single
    # calls', lhs bitwise and the batched dual to the batch contract's 1e-7
    # of its maximum (2.0e-8 measured: the float32 sgemm and sgemv sum in
    # other orders)
    g = build_radial_grid(3, 160)
    hs = default_halfspace_grid(g)
    bad = RadialFn(g, g.nodes ** -1.5 * (1 + g.nodes ** 2) ** -4.0,
                   tail_exponent=9.5, nonnegative=True)
    good = [extremal_profile(ExtremalSpec(4, kind, 1.2), g)
            for kind in ("conformal", "dual")]
    flat = RadialFn(g, good[0].values, tail_exponent=0.0, nonnegative=True)
    lhs, rhs, errors = el_sides_batch(stack([good[0], bad, flat, good[1]]),
                                      1.5, hs)
    assert isinstance(errors[1], DivergenceError)
    assert str(errors[1]).startswith("Pf is negative")
    assert isinstance(errors[2], DivergenceError)
    assert str(errors[2]).startswith("boundary data with tail exponent 0 ")
    assert errors[0] is errors[3] is None
    for f, j in zip(good, (0, 3)):
        one_lhs, one_rhs = el_sides(f, 1.5, hs)
        assert np.array_equal(lhs[:, j], one_lhs)
        assert np.max(np.abs(rhs[:, j] - one_rhs)) <= 1e-7 * np.max(one_rhs)


def test_singular_constant_consistency():
    # the matching radius drops out exactly, not just to quadrature error
    for n, p in ((3, 2.0), (3, 1.5), (4, 2.0)):
        values = [singular_constant(n, p, r0) for r0 in (0.5, 1.0, 2.0)]
        assert values[0] == values[1] == values[2] > 0.0
    with pytest.raises(DomainError):
        singular_constant(3, 2.0, 0.0)


def test_singular_constant_exact_oracle():
    # at (n, p) = (3, 2) the singular solution is exactly |xi|^(-1): the
    # half-space pairing of P(., xi) against |x|^(-2) equals 1/|xi| (checked
    # independently with adaptive quadrature to 1e-13), so c(3, 2) = 1
    assert singular_constant(3, 2.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n, expected", [
    (3, 1.0), (4, 1.6211389382774049), (5, 3.375), (6, 8.306066827691268)])
def test_singular_constant_flat_profile(n, expected):
    # at p = (n-1)/(n-2) the power is |xi|^-(n-2), whose extension has
    # phi = 1, so c^(p-q) = int_0^(pi/2) cos^(n-2) = W in closed form
    p = (n - 1) / (n - 2)
    q = n * p / (n - 1)
    W = math.sqrt(math.pi) * math.gamma((n - 1) / 2) / (2 * math.gamma(n / 2))
    assert W ** (1.0 / (p - q)) == pytest.approx(expected, rel=1e-15)
    assert singular_constant(n, p) == pytest.approx(expected, rel=1e-13)


def test_singular_constant_other_exponents():
    # closed-form values at exponents where phi is not constant
    for n, p, c in ((3, 4.0, 1.2879481193), (4, 2.0, 2.6891246054),
                    (3, 1.5, 0.5423716189)):
        assert singular_constant(n, p) == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("beta", [0.5, 1.5])
def test_power_profile_matches_poisson_integral(beta):
    # P|xi|^-beta at (cos theta, sin theta) for n = 3, by mpmath: the ring
    # average of t/(2 pi |x - xi|^3) over |xi| = s is an elliptic integral
    mp = pytest.importorskip("mpmath")

    def extension(theta):
        r, t = mp.cos(theta), mp.sin(theta)

        def radial(s):
            a, b = r * r + s * s + t * t, 2 * r * s
            ring = 2 * mp.ellipe(2 * b / (a + b)) / ((a - b) * mp.sqrt(a + b))
            return t / mp.pi * ring * s ** (1 - beta)
        return float(mp.quad(radial, [0, r, 2 * r, mp.inf]))

    with mp.workdps(20):
        for theta in (0.2, 0.7, 1.2):
            assert power_profile(3, beta, theta) == pytest.approx(
                extension(theta), rel=1e-11)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_power_profile_matches_mpmath(n):
    # 2F1(beta, n-2-beta; (n-1)/2; (1 - sin theta)/2), normalised at theta
    # = 0, by mpmath's own hypergeometric function, for beta across
    # (0, n - 1), where the second parameter changes sign at beta = n - 2
    mp = pytest.importorskip("mpmath")
    theta = np.linspace(0.0, 0.5 * np.pi, 9)
    for beta in (0.3, 0.5 * (n - 1), n - 1.7, n - 1.2):
        a, b, c = beta, n - 2 - beta, 0.5 * (n - 1)
        with mp.workdps(30):
            want = [mp.hyp2f1(a, b, c, (1 - mp.sin(x)) / 2)
                    / mp.hyp2f1(a, b, c, 0.5) for x in theta]
        got = power_profile(n, beta, theta)
        assert np.allclose(got, np.array(want, dtype=float), rtol=1e-14,
                           atol=0.0), (n, beta)


def test_singular_constant_rejects_bad_p():
    with pytest.raises(DomainError):
        singular_constant(3, 1.0)
    with pytest.raises(DomainError):
        singular_constant(3, math.inf)


def test_singular_solution_homogeneity():
    # both sides of the system scale with the same power of the radius, so
    # the matching constant is radius-free (dimensional analysis); the
    # consistency test checks that c is bitwise the same at every radius.
    # Here: degree bookkeeping.
    n, p = 3, 2.0
    beta = (n - 1) / p
    q = n * p / (n - 1)
    lhs_degree = -beta * (p - 1)
    rhs_degree = 1 - n + (n - 1) / p  # T lifts degree by 1 - n + ...
    assert lhs_degree == pytest.approx(rhs_degree, abs=1e-15)
    assert q == pytest.approx(3.0)


def test_upper_bound_random_trials(boundary3, rng, halfspace3):
    c = sharp_constant(3, "conformal")
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 3.0)
        e = rng.uniform(0.6, 1.6)
        f = sample_radial(boundary3, lambda r: a * (b + r ** 2) ** -e,
                          tail_exponent=2 * e, nonnegative=True)
        assert rayleigh_quotient(f, 3, 4.0, halfspace3) <= c * (1 + 1e-3)


def test_el_residual_minimality_dual_exponent(boundary3, conformal3, dual3,
                                              halfspace3):
    # the mirror statement at p = 2(n-1)/n: only the dual family solves
    gauss = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                          nonnegative=True)

    def residual(f):
        return calibrate(3, 4 / 3, *el_sides(f, 4 / 3, halfspace3))[1]

    assert residual(dual3) <= 1e-3
    assert residual(conformal3) > 1e-2
    assert residual(gauss) > 1e-2
