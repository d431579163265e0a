import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfext.errors import DivergenceError, DomainError
from halfext.kernel import (kernel_constant, pt_lp_norm, pt_profile,
                            sphere_area, unit_ball_volume)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-14)
    assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DomainError):
        unit_ball_volume(0)


def test_sphere_areas():
    assert sphere_area(2) == pytest.approx(2 * math.pi, abs=1e-14)
    assert sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-14)
    assert sphere_area(1) == pytest.approx(2.0, abs=1e-14)


def test_pt_profile_values():
    assert pt_profile(3, 1.0, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    assert pt_profile(2, 2.0, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    # independent arbitrary-precision oracle for (1/(2 pi)) * 2^(-3/2)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    exact = float(1 / (2 * mp.pi) * mp.mpf(2) ** mp.mpf("-1.5"))
    assert pt_profile(3, 1.0, 1.0) == pytest.approx(exact, abs=1e-16)


def test_pt_profile_peak_at_zero():
    rho = np.linspace(0.0, 5.0, 64)
    vals = pt_profile(3, 0.7, rho)
    assert np.argmax(vals) == 0
    assert vals[0] == pytest.approx(kernel_constant(3) / 0.7 ** 2, abs=1e-15)


def test_pt_errors():
    with pytest.raises(DomainError):
        pt_profile(3, 0.0, 1.0)


def test_pt_l1_is_one():
    for n in (2, 3, 4):
        for t in (0.25, 1.0, 4.0):
            assert pt_lp_norm(n, 1.0, t) == pytest.approx(1.0, abs=1e-10)


def test_pt_sup_norm():
    assert pt_lp_norm(3, math.inf, 2.0) == pytest.approx(1 / (8 * math.pi),
                                                         abs=1e-15)


def test_pt_lp_scaling_ratio():
    # t doubling scales the norm by 2^(-(n-1)(p-1)/p); n=3, p=2 gives 1/2
    r = pt_lp_norm(3, 2.0, 1.0) / pt_lp_norm(3, 2.0, 2.0)
    assert r == pytest.approx(2.0, abs=1e-10)


def test_pt_lp_closed_form_oracle():
    # independent oracle: |P_t|_p^p = sigma_d * c_n^p * t^(-(n-1)(p-1)) *
    # B(d/2, (np-d)/2) / 2 via the Beta function
    from scipy.special import betaln
    for n, p, t in [(3, 2.0, 1.0), (3, 1.5, 0.7), (4, 2.5, 2.0), (2, 3.0, 0.3)]:
        d = n - 1
        c = kernel_constant(n)
        log_beta = betaln(0.5 * d, 0.5 * (n * p - d))
        exact = (sphere_area(d) * c ** p * t ** (-(n - 1) * (p - 1))
                 * 0.5 * math.exp(log_beta)) ** (1 / p)
        # fractional p leaves a half-power endpoint in the mapped integrand,
        # so the global Gauss rule is order-limited around 1e-11 here
        assert pt_lp_norm(n, p, t) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pt_lp_norm_against_mpmath_quadrature(n):
    # oracle independent of the library's rule and of the Beta closed form:
    # |P_1|_p^p = |S^(n-2)| int_0^inf P_1(rho)^p rho^(n-2) drho in 30 digits,
    # with mpmath's own sphere area and kernel constant
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        d = n - 1
        area = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        c = 2 / (n * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1))
        for p in (1.5, 2.0, 3.0):
            pp = mp.mpf(p)
            integral = mp.quad(lambda r: (c / (r * r + 1) ** (mp.mpf(n) / 2))
                               ** pp * r ** (d - 1), [0, 1, mp.inf])
            exact = float((area * integral) ** (1 / pp))
            assert pt_lp_norm(n, p, 1.0) == pytest.approx(exact, rel=1e-10)


def test_pt_lp_divergence():
    with pytest.raises(DivergenceError):
        pt_lp_norm(3, 2 / 3, 1.0)
    with pytest.raises(DivergenceError):
        pt_lp_norm(3, 0.5, 1.0)


@pytest.mark.parametrize("n, p", [(2, 0.6), (3, 0.7), (5, 0.85)])
def test_pt_lp_norm_rejects_p_below_one(n, p):
    # (n-1)/n < p < 1: |P_t|_p is finite, but the theta-integrand
    # cos^(n(p-1)) is singular at pi/2, and the panels stop at width 1e-6
    with pytest.raises(DomainError):
        pt_lp_norm(n, p, 1.0)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.05, 20.0), rho=st.floats(0.0, 50.0),
       n=st.integers(2, 6))
def test_pt_positive(n, t, rho):
    assert pt_profile(n, t, rho) > 0.0


def test_pt_lp_scaling_log_grid():
    # the compensated norm is constant in t across a log-spaced height grid
    for n, p in [(2, 2.0), (3, 2.0), (3, 1.5), (4, 3.0)]:
        ts = np.geomspace(0.05, 20.0, 9)
        vals = [pt_lp_norm(n, p, float(t)) * t ** ((n - 1) * (p - 1) / p)
                for t in ts]
        assert max(vals) - min(vals) <= 1e-8 * vals[0]
