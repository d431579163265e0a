import math

import numpy as np
import pytest

from halfext.errors import DomainError, SolverDivergence
from halfext.extremals import (ExtremalSpec, calibrate, el_sides,
                               extremal_profile, sharp_constant)
from halfext.grids import (build_radial_grid, default_halfspace_grid,
                           dilate_boundary, sample_radial)
from halfext.moebius import boundary_inversion
from halfext.solver import (IterationTrace, SolverConfig,
                            ascent_estimate_constant, classify_inverted_radial,
                            concentration_radius, el_fixed_point,
                            initial_profiles, match_extremal_family,
                            normalize_mass_half, ode_check_1d,
                            radial_about_point)


@pytest.mark.parametrize("max_iters, tol", [(1, 0.0), (1, math.nan),
                                             (0, 1e-4)])
def test_solver_config_validation(max_iters, tol):
    with pytest.raises(DomainError):
        SolverConfig(max_iters=max_iters, tol_residual=tol)


def test_mass_half_gauge(boundary3):
    f = extremal_profile(ExtremalSpec(3, "conformal"), boundary3)
    lam, fn = normalize_mass_half(f, 4.0)
    # the gauged function puts exactly half its L^4 mass in the unit ball
    assert concentration_radius(fn, 4.0) == pytest.approx(1.0, abs=1e-8)
    # gauge fixed point: already-normalized input returns lambda = 1
    lam2, _ = normalize_mass_half(fn, 4.0)
    assert lam2 == pytest.approx(1.0, abs=1e-6)
    # group property: a 2x dilation is undone by lambda = 1/2
    lam3, _ = normalize_mass_half(dilate_boundary(fn, 2.0, 4.0), 4.0)
    assert lam3 == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("n", [3, 4])
def test_half_mass_radius_of_extremals(n):
    # at its critical p, |f|^p of either family is inversion-symmetric
    # about r = lambda, so exactly half the mass lies in B_lambda
    g = build_radial_grid(n - 1, 160, "tan", 1.0)
    for family in ("conformal", "dual"):
        for lam in (0.5, 1.0, 2.0):
            spec = ExtremalSpec(n, family, lam=lam)
            R = concentration_radius(extremal_profile(spec, g),
                                     spec.critical_p)
            assert R == pytest.approx(lam, rel=1e-6)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_concentration_radius_of_gaussian(n, p):
    # mass of exp(-p r^2) r^(d-1) inside B_R is P(d/2, p R^2) of the total
    from scipy.special import gammaincinv
    g = build_radial_grid(n - 1, 160, "tan", 1.0)
    f = sample_radial(g, lambda r: np.exp(-np.asarray(r) ** 2),
                      tail_exponent=math.inf, nonnegative=True)
    want = math.sqrt(gammaincinv(0.5 * (n - 1), 0.5) / p)
    assert concentration_radius(f, p) == pytest.approx(want, rel=5e-7)


def test_mass_half_rejects_zero(boundary3):
    from halfext.grids import RadialFn
    zero = RadialFn(boundary3, np.zeros(boundary3.size), value_at_zero=0.0)
    with pytest.raises(DomainError):
        normalize_mass_half(zero, 4.0)


def test_fixed_point_from_extremal(boundary3, halfspace3):
    # starting at the solution: residual below tolerance at iteration 1 and
    # the profile unchanged up to the gauge and the calibration
    f = extremal_profile(ExtremalSpec(3, "conformal"), boundary3)
    cfg = SolverConfig(max_iters=10, tol_residual=1e-6)
    sol, trace = el_fixed_point(3, 4.0, f, cfg, halfspace3)
    assert trace.converged and len(trace) == 1
    lam, fn = normalize_mass_half(f, 4.0)
    fn = fn.scaled(calibrate(3, 4.0, *el_sides(fn, 4.0, halfspace3))[0])
    assert np.max(np.abs(sol.values - fn.values)
                  / np.maximum(fn.values, 1e-12)) < 1e-6


def _assert_rayleighs_nondecreasing(trace):
    # the iteration is the power method for the p -> q norm of P: up to
    # quadrature, its Rayleigh quotient never falls
    r = np.asarray(trace.rayleighs)
    assert np.all(np.diff(r) >= -1e-10 * r[1:])


def test_fixed_point_from_gaussian(boundary3, halfspace3):
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         nonnegative=True)
    cfg = SolverConfig(max_iters=300, tol_residual=1e-4)
    sol, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
    assert trace.converged and len(trace) <= 30
    _assert_rayleighs_nondecreasing(trace)
    lam, amp, err = match_extremal_family(sol, 3, "conformal", 10.0)
    assert err <= 1e-3
    # converged profiles are strictly decreasing in the radial direction
    assert np.all(np.diff(sol.values) < 0.0)
    # the recorded Rayleigh quotients approach the sharp constant from below
    assert trace.rayleighs[-1] == pytest.approx(
        sharp_constant(3, "conformal"), abs=5e-4)
    assert max(trace.rayleighs) <= sharp_constant(3, "conformal") * (1 + 1e-3)


@pytest.mark.parametrize("kind", ["conformal", "dual"])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_match_extremal_family_recovers_member(boundary3, kind, lam):
    spec = ExtremalSpec(3, kind, lam=lam, amplitude=1.7)
    fit_lam, amp, err = match_extremal_family(
        extremal_profile(spec, boundary3), 3, kind, 10.0)
    assert fit_lam == pytest.approx(lam, rel=1e-11)
    assert amp == pytest.approx(1.7, rel=1e-12)
    assert err < 1e-12


def test_match_extremal_family_rejects_unknown_kind(boundary3):
    # a misspelled family must not silently fit the dual family's shape
    f = extremal_profile(ExtremalSpec(3, "dual"), boundary3)
    assert match_extremal_family(f, 3, "dual", 10.0)[2] < 1e-12
    with pytest.raises(DomainError):
        match_extremal_family(f, 3, "duall", 10.0)


def test_solution_tail_is_fitted_not_inherited(boundary3, halfspace3):
    # the Gaussian start declares a tail of inf; the conformal solution
    # decays like r^-1, so it must declare none and let the fit decide
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         tail_exponent=math.inf, nonnegative=True)
    cfg = SolverConfig(max_iters=300, tol_residual=5e-5)
    sol, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
    assert trace.converged and math.isnan(sol.tail_exponent)
    assert sol.fitted_tail() == pytest.approx(1.0, abs=1e-3)
    # beyond the mesh the profile continues as a power, not as zero
    r_far = 2.0 * boundary3.r_max
    assert sol.eval(r_far) == pytest.approx(
        sol.values[-1] * 2.0 ** -sol.fitted_tail(), rel=1e-12)
    # the gauge fixes lambda = 1, where the Kelvin inversion maps the
    # conformal extremal to itself: its value at 0 is the solution's
    inv = boundary_inversion(sol, -1.0)
    assert inv.value_at_zero == pytest.approx(sol.value_at_zero, rel=1e-2)


def test_fixed_point_dual_family(boundary3, halfspace3):
    init = sample_radial(boundary3,
                         lambda r: np.maximum(1 - (r / 2) ** 2, 0.0) ** 2,
                         nonnegative=True)
    cfg = SolverConfig(max_iters=400, tol_residual=5e-5)
    sol, trace = el_fixed_point(3, 4 / 3, init, cfg, halfspace3)
    assert trace.converged and len(trace) <= 30
    _assert_rayleighs_nondecreasing(trace)
    lam, amp, err = match_extremal_family(sol, 3, "dual", 10.0)
    assert err <= 1e-3


def test_fixed_point_consistency_posthoc(boundary3, halfspace3):
    # the converged solution is already calibrated to the unit-coefficient
    # system
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         nonnegative=True)
    cfg = SolverConfig(max_iters=300, tol_residual=1e-4)
    sol, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
    assert trace.converged
    a, residual = calibrate(3, 4.0, *el_sides(sol, 4.0, halfspace3))
    assert a == pytest.approx(1.0, rel=1e-12)
    assert residual <= cfg.tol_residual


def test_unconverged_reports(boundary3, halfspace3):
    # at max_iters the solution is the trace's last iterate, calibrated: its
    # residual is the one the last row records
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         nonnegative=True)
    cfg = SolverConfig(max_iters=3, tol_residual=1e-12)
    sol, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
    assert not trace.converged
    assert "no convergence" in trace.message
    assert len(trace) == 3
    a, residual = calibrate(3, 4.0, *el_sides(sol, 4.0, halfspace3))
    assert a == pytest.approx(1.0, rel=1e-12)
    assert residual == pytest.approx(trace.residuals[-1], rel=1e-12)


def test_scaling_covariance_of_iteration_map(boundary3, halfspace3):
    # the unnormalized update of a dilated input equals the dilated update.
    # scale-lambda tan meshes carry exactly the dilated nodes, so the dilated
    # input is sampled with no interpolation at all and the comparison is
    # quadrature-exact
    from halfext.extension import dual_extend, poisson_extend
    from halfext.grids import (AxisymFn, HalfspaceGrid, RadialFn,
                               build_radial_grid)
    p, q = 4.0, 6.0
    lam = 2.0
    f = extremal_profile(ExtremalSpec(3, "conformal"), boundary3)
    g2 = build_radial_grid(2, boundary3.size, "tan", lam)
    hs2 = HalfspaceGrid(g2, build_radial_grid(1, halfspace3.heights.size,
                                              "tan", lam))
    assert np.allclose(g2.nodes, lam * boundary3.nodes, rtol=1e-14)

    def update(fn, hs):
        u = poisson_extend(fn, hs)
        rhs = dual_extend(
            AxisymFn(hs, np.maximum(u.values, 0.0) ** (q - 1.0)))
        return rhs.values ** (1.0 / (p - 1.0))

    d = boundary3.d
    f_dil = RadialFn(g2, lam ** (-d / p) * f.values,
                     value_at_zero=lam ** (-d / p) * f.value_at_zero,
                     tail_exponent=f.tail_exponent, nonnegative=True)
    lhs = update(f_dil, hs2)                         # at nodes lam * r_j
    base = update(f, halfspace3)
    rhs = lam ** (-d / p) * base                     # (M f)^{lam,0}(lam r_j)
    core = boundary3.nodes <= 50.0
    rel = np.abs(lhs - rhs) / np.abs(rhs)
    assert np.max(rel[core]) < 1e-8


def test_determinism(halfspace3):
    cfg = SolverConfig(max_iters=25, tol_residual=1e-9)
    runs = []
    for _ in range(2):
        est = ascent_estimate_constant(4.0, 2, 42, cfg, halfspace3)
        runs.append(est)
    assert runs[0] == runs[1]


def test_ascent_estimate(halfspace3):
    cfg = SolverConfig(max_iters=150, tol_residual=1e-4)
    est = ascent_estimate_constant(4.0, 3, 3, cfg, halfspace3)
    c = sharp_constant(3, "conformal")
    assert abs(est - c) / c < 5e-3


def test_ascent_cross_seed_stability(halfspace3):
    # p = 2 has no closed form; the estimate must be seed-stable
    cfg = SolverConfig(max_iters=150, tol_residual=2e-4)
    vals = [ascent_estimate_constant(2.0, 2, seed, cfg, halfspace3)
            for seed in (1, 2)]
    assert abs(vals[0] - vals[1]) / vals[0] < 5e-3


def test_ascent_all_trials_diverged():
    # at p = 1.1 every start leaves what the mesh can hold, and no trial
    # records a finite Rayleigh quotient to report; the error carries the
    # last trial's trace
    hs = default_halfspace_grid(build_radial_grid(2, 48))
    cfg = SolverConfig(max_iters=50, tol_residual=1e-6)
    with pytest.raises(SolverDivergence,
                       match="^all 3 trials diverged$") as exc:
        ascent_estimate_constant(1.1, 3, 0, cfg, hs)
    trace = exc.value.trace
    assert len(trace) >= 1 and not trace.converged
    assert trace.message.startswith("divergent iterate")
    assert not any(map(math.isfinite, trace.rayleighs))


def test_initial_profiles_menu(boundary3):
    rng = np.random.default_rng(0)
    kinds = set()
    for _ in range(12):
        f = initial_profiles(boundary3, rng)
        assert np.all(f.values >= 0.0) and np.any(f.values > 0.0)
        kinds.add(round(float(f.values[0]), 6))
    assert len(kinds) >= 3


def test_trace_csv(tmp_path):
    tr = IterationTrace()
    tr.append(0.5, 0.6, 1.0)
    tr.append(0.1, 0.67, 0.9)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,residual,rayleigh,lambda"
    assert len(lines) == 3


def test_radial_about_point_shifted_center(boundary3):
    alpha = -1.0
    u = sample_radial(boundary3, lambda r: (0.5 * r ** 2 + 0.5) ** (alpha / 2),
                      nonnegative=True)
    v = boundary_inversion(u, alpha, shift=1.0)
    center = radial_about_point(v, 1e-3)
    assert center is not None
    assert center[0] == pytest.approx(0.5, abs=1e-4)
    assert center[1] == 0.0


def test_radial_about_point_origin(boundary3):
    # shift-free inversion of the self-dual extremal stays radial about 0
    f = extremal_profile(ExtremalSpec(3, "conformal"), boundary3)
    finv = boundary_inversion(f, -1.0)
    from halfext.rearrange import radial_to_polar
    from halfext.grids import PolarGrid
    v = radial_to_polar(finv, PolarGrid(boundary3, 64))
    center = radial_about_point(v, 1e-3)
    assert center is not None
    assert abs(center[0]) < 1e-6


def test_radial_about_point_rejects_perturbed(boundary3):
    alpha = -1.0
    u = sample_radial(
        boundary3,
        lambda r: (1 + r ** 2) ** (alpha / 2)
        * (1 + 0.1 * r / (1 + r)), nonnegative=True)
    v = boundary_inversion(u, alpha, shift=1.0)
    assert radial_about_point(v, 1e-3) is None


def test_classify_quadratic(boundary3):
    u = sample_radial(boundary3, lambda r: (0.3 * r ** 2 + 0.7) ** -0.5,
                      nonnegative=True)
    got = classify_inverted_radial(u, -1.0)
    assert got.kind == "quadratic_power"
    assert got.c1 == pytest.approx(0.3, abs=1e-9)
    assert got.c2 == pytest.approx(0.7, abs=1e-9)


def test_classify_pure_power(boundary3):
    u = sample_radial(boundary3, lambda r: 2.0 * r ** -1.0, value_at_zero=0.0)
    got = classify_inverted_radial(u, -1.0)
    assert got.kind == "pure_power"
    assert got.c1 == pytest.approx(2.0, rel=1e-9)


def test_classify_constant_is_quadratic_member(boundary3):
    u = sample_radial(boundary3, lambda r: 0.8 + 0.0 * r, nonnegative=True)
    got = classify_inverted_radial(u, 2.0)
    assert got.kind == "quadratic_power"
    assert got.c1 == pytest.approx(0.0, abs=1e-10)
    assert got.c2 == pytest.approx(0.8, rel=1e-10)


def test_classify_rejects_perturbed(boundary3):
    u = sample_radial(boundary3,
                      lambda r: (1 + r ** 2 + 0.05 * np.sin(r)) ** -0.5,
                      nonnegative=True)
    assert classify_inverted_radial(u, -1.0).kind == "none"


def test_classify_alpha_zero_rejected(boundary3):
    u = sample_radial(boundary3, lambda r: np.exp(-r), nonnegative=True)
    with pytest.raises(DomainError):
        classify_inverted_radial(u, 0.0)


def test_ode_check_family_members():
    x = np.linspace(1.0, 2.0, 25)
    assert ode_check_1d(x, (x ** 2 + 1) ** -0.5, -1.0) <= 1e-8
    assert ode_check_1d(x, (2 * (x - 1) ** 2 + 3) ** 0.75, 1.5) <= 1e-8


def test_ode_check_nonmember():
    x = np.linspace(0.0, 1.0, 33)
    res = ode_check_1d(x, np.exp(x), 2.0)
    assert res >= 0.5 * math.exp(0.0)


def test_ode_check_validation():
    x = np.linspace(0.0, 1.0, 6)
    with pytest.raises(DomainError):
        ode_check_1d(x, np.ones(6), 1.0)
    x = np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7])
    with pytest.raises(DomainError):
        ode_check_1d(x, np.ones(7), 1.0)
    x = np.linspace(0.0, 1.0, 9)
    with pytest.raises(DomainError):
        ode_check_1d(x, np.zeros(9), 1.0)


def test_converged_solution_inversion_symmetry(boundary3, halfspace3):
    # the inverted-and-translated converged solution is radial about a point
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         nonnegative=True)
    cfg = SolverConfig(max_iters=300, tol_residual=1e-4)
    sol, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
    assert trace.converged
    v = boundary_inversion(sol, -1.0, shift=1.0)
    center = radial_about_point(v, 1e-3)
    assert center is not None


def test_trace_bitwise_determinism(boundary3, halfspace3):
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         nonnegative=True)
    cfg = SolverConfig(max_iters=20, tol_residual=1e-9)
    traces = []
    for _ in range(2):
        _, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
        traces.append((tuple(trace.residuals), tuple(trace.rayleighs),
                       tuple(trace.lambdas)))
    assert traces[0] == traces[1]


def test_divergence_reported_with_trace(boundary3, halfspace3):
    # exponents near 1 produce iterates whose target norm the mesh cannot
    # hold; the solver must report divergence rather than assert convergence
    init = sample_radial(boundary3, lambda r: np.exp(-r ** 2),
                         nonnegative=True)
    cfg = SolverConfig(max_iters=120, tol_residual=1e-6)
    with pytest.raises(SolverDivergence) as exc:
        el_fixed_point(3, 1.05, init, cfg, halfspace3)
    assert exc.value.trace is not None
