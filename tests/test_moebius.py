import numpy as np
import pytest

from halfext.errors import DomainError
from halfext.extension import poisson_extend
from halfext.grids import (build_radial_grid, lp_norm_boundary,
                           lp_norm_halfspace, sample_radial)
from halfext.moebius import (InversionSpec, ball_map,
                             ball_map_conformal_factor, boundary_inversion,
                             halfspace_inversion)


def test_ball_map_center():
    # x = e_n/2 maps to the ball center
    out = ball_map(np.array([0.0, 0.0, 0.5]))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_ball_map_boundary_limit():
    for xn in (1e-2, 1e-4, 1e-6):
        out = ball_map(np.array([0.0, 0.0, xn]))
        assert abs(np.linalg.norm(out) - 1.0) < 10 * xn


def test_ball_map_inside(rng):
    pts = np.column_stack([rng.normal(size=(1000, 2)) * 3,
                           np.abs(rng.normal(size=1000)) * 3 + 1e-6])
    mapped = ball_map(pts)
    assert np.all(np.linalg.norm(mapped, axis=1) < 1.0)


def test_ball_map_conformal_factor():
    x = np.array([1.0, 2.0, 0.5])
    y = x + np.array([0.0, 0.0, 0.5])
    assert ball_map_conformal_factor(x) == pytest.approx(
        1.0 / np.dot(y, y), rel=1e-15)


def test_ball_map_rejects_lower_halfspace():
    with pytest.raises(DomainError):
        ball_map(np.array([0.0, 0.0, -0.1]))


def test_inversion_pure_power(boundary3):
    # n=3: f(s) = 1/s has s^(2-n) f(1/s) identically one (pure-power algebra)
    f = sample_radial(boundary3, lambda r: 1.0 / r, value_at_zero=0.0,
                      tail_exponent=1.0)
    out = boundary_inversion(f, InversionSpec(alpha=-1.0), boundary3)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_inversion_self_dual_extremal(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0, nonnegative=True)
    out = boundary_inversion(f, InversionSpec(alpha=-1.0), boundary3)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_inversion_preserves_critical_norm(boundary3, rng):
    spec = InversionSpec(alpha=-1.0)
    for _ in range(5):
        b, e = rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.5)
        f = sample_radial(boundary3, lambda r: (b + r ** 2) ** -e,
                          tail_exponent=2 * e, nonnegative=True)
        out = boundary_inversion(f, spec, boundary3)
        assert lp_norm_boundary(out, 4.0) == pytest.approx(
            lp_norm_boundary(f, 4.0), rel=1e-9)


def test_inversion_breaks_noncritical_norm(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    out = boundary_inversion(f, InversionSpec(alpha=-1.0), boundary3)
    for p in (3.6, 4.4):
        ratio = lp_norm_boundary(out, p) / lp_norm_boundary(f, p)
        assert abs(ratio - 1.0) > 0.01


def test_inversion_involution(boundary3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    spec = InversionSpec(alpha=-1.0)
    back = boundary_inversion(boundary_inversion(f, spec, boundary3), spec,
                              boundary3)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_inversion_interpolated_grid(boundary3):
    # non-reciprocal output mesh goes through the interpolant
    out_grid = build_radial_grid(2, 128, "tan", 1.7)
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    out = boundary_inversion(f, InversionSpec(alpha=-1.0), out_grid)
    want = out_grid.nodes / (1 + out_grid.nodes ** 2)
    assert np.max(np.abs(out.values - want) / np.maximum(want, 1e-12)) < 1e-5


def test_shifted_inversion_polar(boundary3):
    f = sample_radial(boundary3, lambda r: (0.5 * r ** 2 + 0.5) ** -0.5,
                      tail_exponent=1.0, nonnegative=True)
    v = boundary_inversion(f, InversionSpec(alpha=-1.0, shift=1.0), boundary3)
    # closed form: v(x) = (|x - e_1/2|^2 + 1/4)^(-1/2)
    x, y = v.grid.points()
    want = ((x - 0.5) ** 2 + y ** 2 + 0.25) ** -0.5
    assert np.max(np.abs(v.values - want) / want) < 1e-6


def test_halfspace_inversion_pure_power(halfspace3):
    from halfext.grids import AxisymFn
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + T ** 2) ** -0.5)
    out = halfspace_inversion(u, halfspace3)
    # pointwise accuracy is set by the far-field spline (preimages of the
    # near-origin zone) and the first-height clamp; sharp on the annulus the
    # inversion maps to itself, norm-level identities hold at 1e-6 elsewhere
    rho = np.sqrt(R ** 2 + T ** 2)
    assert np.max(np.abs(out.values - 1.0)[(rho >= 0.2) & (rho <= 20)]) < 5e-5
    assert np.max(np.abs(out.values - 1.0)[(rho >= 0.05) & (rho <= 100)]) < 1e-3


def test_halfspace_inversion_zero(halfspace3):
    from halfext.grids import AxisymFn
    shape = (halfspace3.radial.size, halfspace3.heights.size)
    out = halfspace_inversion(AxisymFn(halfspace3, np.zeros(shape)),
                              halfspace3)
    assert not np.any(out.values)


def test_halfspace_inversion_fixed_point(boundary3, halfspace3):
    # the conformal extremal extension is self-inverse
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                      tail_exponent=1.0, nonnegative=True)
    u = poisson_extend(f, halfspace3)
    out = halfspace_inversion(u, halfspace3)
    rel = np.abs(out.values - u.values) / np.abs(u.values)
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    # the first-height clamp floor (t_min ~ 2e-4) caps pointwise accuracy
    rho = np.sqrt(R ** 2 + T ** 2)
    assert np.max(rel[(rho >= 0.05) & (rho <= 20.0)]) < 5e-4


def test_halfspace_inversion_preserves_critical_norm(boundary3, halfspace3):
    from halfext.grids import AxisymFn
    R, T = np.meshgrid(halfspace3.radial.nodes, halfspace3.heights.nodes,
                       indexing="ij")
    u = AxisymFn(halfspace3, (R ** 2 + (T + 2) ** 2) ** -1.0)
    out = halfspace_inversion(u, halfspace3)
    assert lp_norm_halfspace(out, 6.0) == pytest.approx(
        lp_norm_halfspace(u, 6.0), rel=1e-6)
