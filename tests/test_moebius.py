import math

import numpy as np
import pytest
from scipy.special import betaln

from halfext.errors import DomainError
from halfext.extension import poisson_extend
from halfext.grids import (RadialFn, RadialGrid, build_radial_grid,
                           default_halfspace_grid, lp_norm_boundary,
                           lp_norm_halfspace, sample_radial)
from halfext.moebius import boundary_inversion, halfspace_inversion


def test_inversion_pure_power(boundary3):
    # n=3: f(s) = 1/s has s^(2-n) f(1/s) identically one (pure-power algebra)
    f = RadialFn(boundary3, 1.0 / boundary3.nodes, value_at_zero=0.0,
                 tail_exponent=1.0)
    out = boundary_inversion(f)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_inversion_self_dual_extremal(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0, nonnegative=True)
    out = boundary_inversion(f)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_inversion_preserves_critical_norm(boundary3, rng):
    for _ in range(5):
        b, e = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.5)
        f = sample_radial(boundary3, lambda r: (b + r ** 2) ** -e,
                          tail_exponent=2 * e, nonnegative=True)
        out = boundary_inversion(f)
        assert lp_norm_boundary(out, 4.0) == pytest.approx(
            lp_norm_boundary(f, 4.0), rel=1e-9)


def test_inversion_breaks_noncritical_norm(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    out = boundary_inversion(f)
    # |f~|_p^p / |f|_p^p = B(p/2+1, p/2-1) / (1/(p-1)) for f~ = r/(1+r^2),
    # which is 1 only at the critical p = 4
    for p, moved in ((3.6, 0.0903), (4.4, -0.0643)):
        ratio = lp_norm_boundary(out, p) / lp_norm_boundary(f, p)
        closed = ((p - 1) * math.exp(betaln(p / 2 + 1, p / 2 - 1))) ** (1 / p)
        assert ratio == pytest.approx(closed, rel=1e-6)
        assert ratio - 1.0 == pytest.approx(moved, abs=5e-5)


def test_inversion_involution(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    back = boundary_inversion(boundary_inversion(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_inversion_rejects_mesh_not_closed_under_reciprocal():
    # node reflection is exact only where the nodes are closed under
    # r -> 1/r; the tan mesh dilated by 1.7 is not
    g = build_radial_grid(2, 128)
    g = RadialGrid(2, 1.7 * g.nodes, 1.7 ** 2 * g.weights)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    with pytest.raises(DomainError, match="closed under"):
        boundary_inversion(f)


def test_halfspace_inversion_dual_closed_form(boundary3, halfspace3):
    # K(Pf) for the dual extremal f = (1+r^2)^(-3/2), whose extension is
    # (t+1)/(r^2+(t+1)^2)^(3/2): |x|^(-1) times that at x/|x|^2
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.5,
                      tail_exponent=3.0, nonnegative=True)
    out = halfspace_inversion(f, halfspace3)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    rho2 = R ** 2 + T ** 2
    r, t = R / rho2, T / rho2
    want = rho2 ** -0.5 * (t + 1) / (r ** 2 + (t + 1) ** 2) ** 1.5
    sel = (rho2 >= 0.05 ** 2) & (rho2 <= 20.0 ** 2)
    assert np.max(np.abs(out.values - want)[sel] / want[sel]) < 1e-5


def test_halfspace_inversion_zero(boundary3, halfspace3):
    out = halfspace_inversion(RadialFn(boundary3, np.zeros(boundary3.size)),
                              halfspace3)
    assert not np.any(out.values)


def test_halfspace_inversion_fixed_point(boundary3, halfspace3):
    # the conformal extremal extension is self-inverse, and node reflection
    # makes the inversion exact on every node
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0, nonnegative=True)
    u = poisson_extend(f, halfspace3)
    out = halfspace_inversion(f, halfspace3)
    assert np.max(np.abs(out.values - u.values) / np.abs(u.values)) < 1e-12


def test_halfspace_inversion_preserves_critical_norm(boundary3, halfspace3):
    # f = (1+r^2)^(-1) is not self-inverse: K(Pf) and Pf differ pointwise
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    out = halfspace_inversion(f, halfspace3)
    assert lp_norm_halfspace(out, 6.0) == pytest.approx(
        lp_norm_halfspace(poisson_extend(f, halfspace3), 6.0), rel=1e-7)


def test_halfspace_inversion_needs_n_at_least_3():
    g = build_radial_grid(1, 32)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -1.0, tail_exponent=2.0)
    with pytest.raises(DomainError):
        halfspace_inversion(f, default_halfspace_grid(g))
