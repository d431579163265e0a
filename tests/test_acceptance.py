"""Acceptance suite: one test per exit criterion, at the stated tolerances.
Criterion 10, the family fit, is tests/test_solver.py's
``test_match_extremal_family_recovers_member`` and ``_rejects_nonmembers``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria with runtime bounds measure their own wall time.
"""

import math
import time

import numpy as np
import pytest

from halfext.extension import extend_at, poisson_extend, slab_mass
from halfext.extremals import (ExtremalSpec, extremal_profile,
                               rayleigh_quotient, sharp_constant)
from halfext.grids import (PolarFn, PolarGrid, build_radial_grid,
                           distribution, distribution_mass, lp_norm_boundary,
                           lp_norm_halfspace, sample_radial)
from halfext.kernel import pt_lp_norm
from halfext.moebius import boundary_inversion, halfspace_inversion
from halfext.rearrange import radial_to_polar, riesz_gain
from halfext.solver import (SolverConfig, el_fixed_point,
                            match_extremal_family)

EL_RUNS = {}


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kernel_normalization():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        for t in (0.25, 1.0, 4.0):
            worst = max(worst, abs(pt_lp_norm(n, 1.0, t) - 1.0))
    elapsed = time.monotonic() - start
    report(1, "kernel normalization", worst <= 1e-8 and elapsed < 1.0,
           f"max |L1-1| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_extension_identities(boundary3):
    start = time.monotonic()
    rng = np.random.default_rng(2)
    r_pts = rng.uniform(0.0, 4.0, 20)
    t_pts = rng.uniform(0.05, 4.0, 20)
    f1 = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -0.5,
                       tail_exponent=1.0, nonnegative=True)
    err1 = np.max(np.abs(extend_at(f1, r_pts, t_pts)
                         - (r_pts ** 2 + (t_pts + 1) ** 2) ** -0.5))
    f2 = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.5,
                       tail_exponent=3.0, nonnegative=True)
    err2 = np.max(np.abs(extend_at(f2, r_pts, t_pts)
                         - (t_pts + 1) / (r_pts ** 2
                                          + (t_pts + 1) ** 2) ** 1.5))
    elapsed = time.monotonic() - start
    ok = err1 <= 1e-6 and err2 <= 1e-6 and elapsed < 10.0
    report(2, "extension identities",
           ok, f"errs {err1:.2e}/{err2:.2e}, {elapsed:.2f} s")


def test_criterion_03_slab_mass(boundary3):
    profiles = [
        sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.5 / (2 * math.pi),
                      tail_exponent=3.0, nonnegative=True),
        sample_radial(boundary3, lambda r: np.exp(-r ** 2), nonnegative=True),
        sample_radial(boundary3,
                      lambda r: np.maximum(1 - (r / 1.5) ** 2, 0.0) ** 2,
                      nonnegative=True),
    ]
    masses = np.array([lp_norm_boundary(f, 1.0) for f in profiles])
    worst = 0.0
    for a in (0.3, 0.7, 2.0):
        worst = max(worst, np.max(np.abs(slab_mass(profiles, a) - a * masses)))
    report(3, "slab-mass identity", worst <= 1e-13, f"max defect {worst:.2e}")


def test_criterion_04_sharp_constant_conformal(boundary3, halfspace3):
    start = time.monotonic()
    f = extremal_profile(ExtremalSpec(3, "conformal"), boundary3)
    got = rayleigh_quotient(f, 3, 4.0, halfspace3)
    target = sharp_constant(3, "conformal")
    elapsed = time.monotonic() - start
    err = abs(got - target)
    report(4, "sharp constant, conformal",
           err <= 5e-4 and elapsed < 60.0,
           f"{got:.6f} vs {target:.6f} (err {err:.2e}), {elapsed:.1f} s")


def test_criterion_05_sharp_constant_dual(boundary3, halfspace3):
    f = extremal_profile(ExtremalSpec(3, "dual"), boundary3)
    got = rayleigh_quotient(f, 3, 4 / 3, halfspace3)
    target = sharp_constant(3, "dual")
    err = abs(got - target)
    report(5, "sharp constant, dual", err <= 5e-4,
           f"{got:.6f} vs {target:.6f} (err {err:.2e})")


def test_criterion_06_maximality(boundary3, halfspace3):
    rng = np.random.default_rng(6)
    bound = sharp_constant(3, "conformal") * (1 + 1e-3)
    worst = -np.inf
    for _ in range(50):
        parts = []
        for _ in range(rng.integers(1, 4)):
            a = rng.uniform(0.2, 2.0)
            b = rng.uniform(0.3, 4.0)
            e = rng.uniform(0.6, 2.0)
            parts.append((a, b, e))
        c_bump = rng.uniform(0.0, 1.0)
        w_bump = rng.uniform(0.5, 2.0)

        def profile(r):
            out = sum(a * (b + r ** 2) ** -e for a, b, e in parts)
            return out + c_bump * np.exp(-((r - 1.0) / w_bump) ** 2)

        f = sample_radial(boundary3, profile,
                          tail_exponent=2 * min(e for _, _, e in parts),
                          nonnegative=True)
        worst = max(worst, rayleigh_quotient(f, 3, 4.0, halfspace3))
    report(6, "maximality over 50 random trials", worst <= bound,
           f"max quotient {worst:.6f} <= {bound:.6f}")


@pytest.mark.parametrize("init_name", ["gaussian", "bump", "dual-extremal"])
def test_criterion_07_el_convergence(boundary3, halfspace3, init_name):
    start = time.monotonic()
    r = boundary3.nodes
    if init_name == "gaussian":
        vals, v0, beta = np.exp(-r ** 2), 1.0, np.inf
    elif init_name == "bump":
        vals, v0, beta = np.maximum(1 - (r / 2) ** 2, 0.0) ** 2, 1.0, np.inf
    else:
        vals, v0, beta = (1 + r ** 2) ** -1.5, 1.0, 3.0
    from halfext.grids import RadialFn
    init = RadialFn(boundary3, vals, value_at_zero=v0, tail_exponent=beta,
                    nonnegative=True)
    cfg = SolverConfig(max_iters=400, tol_residual=1e-4)
    sol, trace = el_fixed_point(3, 4.0, init, cfg, halfspace3)
    lam, amp, err = match_extremal_family(sol, 3, "conformal", 10.0)
    elapsed = time.monotonic() - start
    ok = (trace.converged and trace.residuals[-1] <= 1e-3 and err <= 1e-3
          and elapsed < 300.0)
    EL_RUNS[init_name] = (sol, trace)
    report(7, f"EL convergence [{init_name}]", ok,
           f"resid {trace.residuals[-1]:.1e}, family err {err:.1e}, "
           f"lam {lam:.4f}, {elapsed:.1f} s")


def test_criterion_08_rearrangement_suite():
    g = build_radial_grid(2, 48, "tan", 1.0)
    pg = PolarGrid(g, 32)
    x, y = pg.points()
    two_bump = PolarFn(pg, np.exp(-((x - 1.2) ** 2 + y ** 2) * 3.0)
                       + 0.8 * np.exp(-((x + 1.5) ** 2
                                        + (y - 0.4) ** 2) * 5.0))
    cells = pg.cell_measures()
    v, mu = distribution(two_bump.values, cells)
    # equimeasurability: identical distribution functions (float roundoff)
    levels = np.quantile(two_bump.values, [0.2, 0.5, 0.8, 0.95])
    m_orig = distribution_mass(two_bump, levels)
    k = np.searchsorted(-v, -levels, side="left")
    m_star = np.where(k > 0, mu[k - 1], 0.0)
    eq_worst = float(np.max(np.abs(m_star - m_orig)
                            / np.maximum(m_orig, 1.0)))
    # L^p preservation in measure space
    shells = np.diff(mu, prepend=0.0)
    lp_worst = 0.0
    for p in (1.0, 2.0, 4.0):
        orig = float(np.sum(cells * two_bump.values ** p))
        star = float(np.dot(shells, v ** p))
        lp_worst = max(lp_worst, abs(star - orig) / orig)
    # 50 random gains.  Strict-case inputs are two-or-more well-separated
    # bumps; single translated-radial bumps sit ON the Riesz equality
    # manifold, where deciding strictness is resolution-limited (the
    # module's documented open question) and is exercised separately by the
    # translation example.  Exactly radial draws return zero exactly.
    rng = np.random.default_rng(8)
    min_gain = np.inf
    for trial in range(50):
        if trial % 5 == 4:
            e = rng.uniform(0.6, 1.5)
            prof = sample_radial(pg.radial,
                                 lambda r: (1 + r ** 2) ** -e,
                                 tail_exponent=2 * e, nonnegative=True)
            f_rand = radial_to_polar(prof, pg)
        else:
            k = int(rng.integers(2, 5))
            vals = np.zeros_like(x)
            first = rng.uniform(0.4, 1.5, 2) * rng.choice([-1, 1], 2)
            centers = [first]
            for j in range(1, k):
                while True:
                    c = rng.uniform(-1.5, 1.5, 2)
                    if min(np.hypot(*(c - cc)) for cc in centers) >= 0.4:
                        break
                centers.append(c)
            for (cx, cy) in centers:
                w = rng.uniform(0.3, 1.2)
                vals += rng.uniform(0.3, 1.5) * np.exp(
                    -((x - cx) ** 2 + (y - cy) ** 2) / w ** 2)
            f_rand = PolarFn(pg, vals)
        gain = riesz_gain(f_rand, float(rng.uniform(0.4, 1.2)),
                          float(rng.choice([2.0, 4.0])))
        min_gain = min(min_gain, gain)
    two_bump_gain = riesz_gain(two_bump, 0.8, 4.0)
    ok = (eq_worst <= 1e-8 and lp_worst <= 1e-8 and min_gain >= -1e-8
          and two_bump_gain > 0.0)
    report(8, "rearrangement suite", ok,
           f"equimeas {eq_worst:.1e}, Lp {lp_worst:.1e}, "
           f"min gain {min_gain:.2e}, two-bump gain {two_bump_gain:.3f}")


def test_criterion_09_conformal_invariance(boundary3, halfspace3):
    f = sample_radial(boundary3, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    finv = boundary_inversion(f)
    bdry_err = abs(lp_norm_boundary(finv, 4.0) - lp_norm_boundary(f, 4.0))
    breaks = []
    for p_off in (3.6, 4.4):
        ratio = lp_norm_boundary(finv, p_off) / lp_norm_boundary(f, p_off)
        breaks.append(abs(ratio - 1.0))
    # K(Pf) against Pf for the same f, which is not self-inverse
    uinv = halfspace_inversion(f, halfspace3)
    u = poisson_extend(f, halfspace3)
    hs_err = abs(lp_norm_halfspace(uinv, 6.0) - lp_norm_halfspace(u, 6.0))
    ok = bdry_err <= 1e-6 and hs_err <= 1e-6 and min(breaks) > 0.01
    report(9, "conformal invariance", ok,
           f"critical errs {bdry_err:.1e}/{hs_err:.1e}, "
           f"noncritical breaks {breaks[0]:.3f}/{breaks[1]:.3f}")


def test_criterion_11_property_coverage(boundary3):
    # existence/compactness and regularity have no quantitative target; the
    # gauge and smooth-decay behavior of converged profiles stand in for them
    if "gaussian" not in EL_RUNS:
        pytest.skip("criterion 7 must run first")
    sol, trace = EL_RUNS["gaussian"]
    from halfext.solver import concentration_radius
    gauge = abs(concentration_radius(sol, 4.0) - 1.0)
    decay = sol.values[-1] / sol.values[0]
    monotone = bool(np.all(np.diff(sol.values) < 0.0))
    # smoothness proxy: the profile is pointwise close to an analytic family
    _, _, fam_err = match_extremal_family(sol, 3, "conformal", 10.0)
    # the family tail is r^-1: the outermost node sits at ~1e-4 of the peak
    ok = gauge <= 1e-6 and decay < 1e-3 and monotone and fam_err <= 1e-3
    report(11, "gauge/regularity coverage", ok,
           f"log-mean gauge defect {gauge:.1e}, tail/peak {decay:.1e}, "
           f"strictly decreasing {monotone}")
