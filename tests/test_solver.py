import math

import numpy as np
import pytest

from halfext.errors import DomainError, SolverDivergence
from halfext.extremals import (ExtremalSpec, calibrate, el_sides,
                               extremal_profile, rayleigh_quotient,
                               sharp_constant)
from halfext.grids import (RadialFn, build_radial_grid,
                           default_halfspace_grid, dilate_boundary,
                           sample_radial, stack)
from halfext.moebius import boundary_inversion
from halfext.solver import (IterationTrace, SolverConfig, _cell_masses,
                            _el_solves, ascent_estimate_constant,
                            concentration_radius, el_fixed_point,
                            initial_profiles, match_extremal_family,
                            normalize_mass_half, start_profile)


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


@pytest.mark.parametrize("width", [5e-5, 2e-5])
def test_concentration_radius_in_first_cell(boundary3, width):
    # half the L^2 mass lies inside the first cell [0, r_1]: R still hits
    # the target by the gauge's own cell masses, as in every other cell
    f = sample_radial(boundary3,
                      lambda r: np.exp(-(np.asarray(r) / width) ** 2),
                      tail_exponent=math.inf, nonnegative=True)
    edges = np.concatenate(([0.0], boundary3.nodes))
    target = 0.5 * _cell_masses(f, 2.0, edges[:-1], edges[1:]).sum()
    R = concentration_radius(f, 2.0)
    assert 0.0 < R < boundary3.nodes[0]
    assert float(_cell_masses(f, 2.0, 0.0, R)) == pytest.approx(target,
                                                                rel=1e-12)


def _gauge_starts(grid):
    # a half-mass crossing in [0, r_1], a compact bump, gaussians and dual
    # profiles of several widths: log- and parameter-pchip columns alike
    first = sample_radial(grid, lambda r: np.exp(-(np.asarray(r) / 5e-5) ** 2),
                          tail_exponent=math.inf, nonnegative=True)
    return [first, start_profile(grid, "bump", 1.5, 0.8),
            start_profile(grid, "gaussian", 0.7, 1.6),
            start_profile(grid, "dual", 1.2, 0.4),
            start_profile(grid, "dual", 0.9, 3.0),
            sample_radial(grid, lambda r: (1 + np.asarray(r) ** 2) ** -1.5,
                          nonnegative=True)]


def test_mass_half_batch_is_each_column_alone(boundary3, monkeypatch):
    # every column's lambda, samples and value at 0 are those of its start
    # gauged alone, to 1e-14 relative (6.5e-16 measured: a batch's norms are
    # one GEMV and one vector pow), though the columns' Newton steps end at
    # different counts and one crosses half its mass in the first cell
    from halfext import solver
    fs = _gauge_starts(boundary3)
    assert concentration_radius(fs[0], 2.0) < boundary3.nodes[0]
    calls = []
    real = solver._mass_density

    def density(f, p, r):
        calls.append(f.values.ndim)
        return real(f, p, r)
    monkeypatch.setattr(solver, "_mass_density", density)
    for p in (2.0, 4.0):
        lams, batch = normalize_mass_half(stack(fs), p)
        steps = []
        for j, f in enumerate(fs):
            calls.clear()
            lam, one = normalize_mass_half(f, p)
            steps.append(len(calls) - 1)      # the first call: cell masses
            assert lams[j] == pytest.approx(lam, rel=1e-14)
            np.testing.assert_allclose(batch.values[:, j], one.values,
                                       rtol=0, atol=1e-14 * one.values.max())
            assert batch.value_at_zero[j] == \
                pytest.approx(one.value_at_zero, rel=1e-14)
        assert len(set(steps)) >= 2


def test_mass_half_newton_is_bounded(boundary3, monkeypatch):
    # a column whose density reads NaN never settles: after 64 steps the
    # gauge raises, naming that column, its bracket and its excess, while
    # the other column's steps had stopped long before
    from halfext import solver
    real = solver._mass_density
    steps = []

    def density(f, p, r):
        out = real(f, p, r)
        if out.ndim == 2:                   # a Newton step's (B, 9) points
            steps.append(1)
            out[1] = np.nan
        return out
    monkeypatch.setattr(solver, "_mass_density", density)
    fs = stack(_gauge_starts(boundary3)[2:4])
    with pytest.raises(DomainError, match=r"did not settle in 64 steps: "
                       r"column 1, bracket \[.*\], excess nan"):
        concentration_radius(fs, 4.0)
    assert len(steps) == 64


def test_lockstep_round_reads_once_for_all_starts(halfspace3, monkeypatch):
    # one pchip build (the gauge's) and one product with the polar rows
    # (the Rayleigh quotients') per round, however many starts are live:
    # the starts leave at different rounds
    from halfext import extremals, grids
    builds, norms = [], []
    real_pchip, real_norm = grids.pchip, extremals.extension_norm

    def pchip(x, y):
        builds.append(y.shape)
        return real_pchip(x, y)

    def extension_norm(f, q, hs):
        norms.append(f.values.shape)
        return real_norm(f, q, hs)
    monkeypatch.setattr(grids, "pchip", pchip)
    monkeypatch.setattr(extremals, "extension_norm", extension_norm)
    g = halfspace3.radial
    inits = [start_profile(g, "dual", 1.0, 0.5),
             start_profile(g, "dual", 1.3, 2.0)] + [
        sample_radial(g, lambda r, k=k: (1 + np.asarray(r) ** 2) ** -k)
        for k in (1.5, 2.0, 3.0)]
    cfg = SolverConfig(max_iters=300, tol_residual=5e-5)
    traces = [_trace_of(r) for r in _el_solves(3, 4 / 3, inits, cfg,
                                               halfspace3)]
    rounds = max(map(len, traces))
    assert len(set(map(len, traces))) >= 2
    assert len(builds) == len(norms) == rounds
    live = [sum(len(t) > k for t in traces) for k in range(rounds)]
    assert [s[-1] if len(s) == 2 else 1 for s in norms] == live


def test_mass_half_rejects_zero(boundary3):
    zero = RadialFn(boundary3, np.zeros(boundary3.size), value_at_zero=0.0)
    with pytest.raises(DomainError):
        normalize_mass_half(zero, 4.0)


def test_n_must_match_the_mesh():
    # the mesh fixes n, so an n passed beside it that disagrees raises,
    # naming both; unchecked, n=4 on this n=3 mesh read the conformal
    # extremal's quotient as 0.72166 (0.67434 at n=3), solved to a
    # "converged" residual 9.7e-7 with that quotient, and fitted the
    # extremal's own family with misfit 0.306 (6e-14)
    g = build_radial_grid(2, 64)
    hs = default_halfspace_grid(g)
    f = extremal_profile(ExtremalSpec(3, "conformal"), g)
    assert rayleigh_quotient(f, 3, 4.0, hs) == pytest.approx(0.67434, abs=1e-5)
    assert match_extremal_family(f, 3, "conformal", 10.0)[2] < 1e-12
    cfg = SolverConfig(max_iters=5, tol_residual=1e-6)
    for call in (lambda: rayleigh_quotient(f, 4, 4.0, hs),
                 lambda: el_fixed_point(4, 4.0, f, cfg, hs),
                 lambda: match_extremal_family(f, 4, "conformal", 10.0)):
        with pytest.raises(DomainError, match="n=4 disagrees with the "
                                              "mesh's n=3"):
            call()


def test_fixed_point_rejects_zero_and_negative_starts(boundary3, halfspace3):
    # no start check of its own: the gauge rejects a zero start and
    # el_sides a negative gauged one
    cfg = SolverConfig(max_iters=5, tol_residual=1e-6)
    for values in (np.zeros(boundary3.size), -np.exp(-boundary3.nodes ** 2)):
        with pytest.raises(DomainError):
            el_fixed_point(3, 4.0, RadialFn(boundary3, values), cfg,
                           halfspace3)


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


def test_fixed_point_through_far_field_noise():
    # at n=7, N=96, p=2 some iterates' dual sides hold negative entries of
    # quadrature noise in the far field (min/max down to -1.6e-17); they
    # read as 0, and the solve converges as solve-el's does from its start
    g = build_radial_grid(6, 96)
    hs = default_halfspace_grid(g)
    init = start_profile(g, "gaussian", 1.0, 1.0)
    sol, trace = el_fixed_point(7, 2.0, init, SolverConfig(300, 5e-5), hs)
    assert trace.converged and len(trace) == 34
    assert np.all(sol.values > 0.0)


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


@pytest.mark.parametrize("kind, other", [("conformal", "dual"),
                                         ("dual", "conformal")])
def test_match_extremal_family_rejects_nonmembers(boundary3, kind, other):
    # at lam = 3 and eps = 0.02, where the misfits are smallest for lam in
    # [0.3, 3] and eps in [0.02, 0.1], the other family's member and a
    # perturbed bubble still miss by more than solve-el's default 1e-3
    # membership gate
    f = extremal_profile(ExtremalSpec(3, kind, lam=3.0), boundary3)
    assert match_extremal_family(f, 3, other, 10.0)[2] >= 0.1
    e = ExtremalSpec(3, kind).exponent
    u = sample_radial(boundary3,
                      lambda r: (1 + r ** 2 + 0.02 * np.sin(r)) ** -e,
                      nonnegative=True)
    assert match_extremal_family(u, 3, kind, 10.0)[2] >= 2e-3


def test_match_extremal_family_bracket_edge(boundary3):
    # lambda is searched in [e^-3, e^3]: an exact member outside it comes
    # back on the edge, and its error only bounds the family's misfit
    f = extremal_profile(ExtremalSpec(3, "dual", lam=25.0), boundary3)
    lam, _, err = match_extremal_family(f, 3, "dual", 10.0)
    assert lam == pytest.approx(math.exp(3.0), rel=1e-9)
    assert 0.04 < err < 0.06


def test_match_extremal_family_needs_positive_window(boundary3):
    u = sample_radial(boundary3, lambda r: np.maximum(1.0 - r ** 2, 0.0),
                      nonnegative=True)
    with pytest.raises(DomainError):
        match_extremal_family(u, 3, "conformal", 10.0)


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
    inv = boundary_inversion(sol)
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


def _solo(p, init, cfg, hs):
    try:
        return el_fixed_point(hs.n, p, init, cfg, hs)[1]
    except SolverDivergence as exc:
        return exc.trace


def _trace_of(result):
    return result.trace if isinstance(result, SolverDivergence) else result[1]


@pytest.mark.parametrize("p", [4.0, 4 / 3])
def test_ascent_is_max_over_solo_runs(halfspace3, p):
    # the lockstep ascent against independent el_fixed_point runs from the
    # same starts: the same iteration count per trial, Rayleigh rows and
    # the estimate to the batch contract's 1e-7 (3.2e-10 measured: the
    # loop's float32 sgemm sums in another order than a sgemv); at p = 4/3
    # the dual-family starts converge at once
    cfg = SolverConfig(max_iters=300, tol_residual=5e-5)
    rng = np.random.default_rng(7)
    inits = [initial_profiles(halfspace3.radial, rng) for _ in range(4)]
    solo = [_solo(p, init, cfg, halfspace3) for init in inits]
    lockstep = [_trace_of(r) for r in _el_solves(3, p, inits, cfg, halfspace3)]
    for one, many in zip(solo, lockstep):
        assert len(many) == len(one) and many.converged == one.converged
        np.testing.assert_allclose(many.rayleighs, one.rayleighs, rtol=1e-7)
    best = max(max(t.rayleighs) for t in solo)
    assert ascent_estimate_constant(p, 4, 7, cfg, halfspace3) == \
        pytest.approx(best, rel=1e-7)


def test_lockstep_divergent_start_leaves_the_others(boundary3, halfspace3):
    # a start with a declared tail r^-0.65 diverges at its first iterate
    # (q*beta = 3.9 < n + 1 in the polar rule) beside two that converge;
    # theirs are the solo runs' traces: converged in as many iterations,
    # Rayleigh quotients and gauge factors to the batch contract's relative
    # 1e-7, residuals (differences of the two sides over the largest lhs)
    # to 1e-7 absolute
    cfg = SolverConfig(max_iters=300, tol_residual=5e-5)
    slow = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.325,
                         tail_exponent=0.65, nonnegative=True)
    inits = [start_profile(boundary3, "gaussian", 1.0, 1.0), slow,
             start_profile(boundary3, "bump", 1.5, 0.8)]
    results = _el_solves(3, 4.0, inits, cfg, halfspace3)
    assert isinstance(results[1], SolverDivergence)
    assert results[1].trace.message.startswith("divergent iterate: far field")
    assert len(results[1].trace) == 1
    for init, (_, many) in zip(inits[::2], results[::2]):
        one = _solo(4.0, init, cfg, halfspace3)
        assert many.converged and one.converged and len(many) == len(one)
        np.testing.assert_allclose(many.rayleighs, one.rayleighs, rtol=1e-7)
        np.testing.assert_allclose(many.lambdas, one.lambdas, rtol=1e-7)
        np.testing.assert_allclose(many.residuals, one.residuals, rtol=0,
                                   atol=1e-7)


@pytest.mark.parametrize("family, floor", [("conformal", 8.0e-8),
                                            ("dual", 4.2e-5)])
def test_el_floors_hold_on_the_float32_loop(boundary3, halfspace3, family,
                                            floor):
    # from the Gaussian start with tol_residual=1e-13 the n=3 N=160 solve
    # runs into its residual floor; the loop's float32 stack keeps it within
    # 10% of the float64 loop's 8.0e-8 and 4.2e-5 (7.6e-8 and 4.2e-5 read)
    cfg = SolverConfig(max_iters=300, tol_residual=1e-13)
    init = start_profile(boundary3, "gaussian", 1.0, 1.0)
    _, trace = el_fixed_point(3, ExtremalSpec(3, family).critical_p, init,
                              cfg, halfspace3)
    assert min(trace.residuals) == pytest.approx(floor, rel=0.1)


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
