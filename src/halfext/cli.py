"""Batch experiment driver with reproducible JSON/CSV output.

Usage:
    halfext run <experiment> [flags]

Experiments: verify-kernel, verify-identities, weak-type-sweep,
estimate-constant, solve-el, rearrange-demo, classify-radial,
conformal-invariance.  Every field of ExperimentConfig but the experiment is
a flag of the same name with dashes (``grid_n`` is ``--grid-n``), and its
default there is the only one; the flags are the only input.

Each run writes ``summary.json`` (every check with value/target/tolerance,
the fully resolved config, and a separate ``meta`` field holding timestamps
and versions so the rest of the document is byte-stable) plus ``trace.csv``
and ``profile.csv`` where the experiment produces them; solve-el writes its
``trace.csv`` when the iteration diverges too.  Exit codes: 0 all checks
pass, 1 numerical failure, 2 usage error.

Invalid values are usage errors, and so is any n but 3 for the experiments
scripted on R^3_+ (verify-identities, rearrange-demo, classify-radial,
conformal-invariance), and a --grid-n below an experiment's measured floor,
where its mesh misses a gate (``cli.*_GRID_FLOOR``): 62 for verify-identities,
54 for conformal-invariance and 257 for weak-type-sweep at n=2.
The derived-constants fixture is written by scripts/reproduce_constants.py
from the summaries of its runs, not by the CLI.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, extension
from .errors import HalfextError, SolverDivergence
from .extension import (dual_extend, extend_at, extension_norm,
                        poisson_extend, slab_mass)
from .extremals import (ExtremalSpec, calibrate, el_sides, extremal_profile,
                        sharp_constant)
from .grids import (AxisymFn, PolarFn, PolarGrid, build_radial_grid,
                    default_halfspace_grid, distribution_mass,
                    lp_norm_boundary, lp_norm_halfspace, sample_radial,
                    write_csv)
from .kernel import kernel_constant, pt_lp_norm, sphere_area
from .moebius import boundary_inversion, halfspace_inversion
from .quadrature import panel_rule
from .rearrange import riesz_gain, symmetric_rearrangement
from .solver import (SolverConfig, ascent_estimate_constant, el_fixed_point,
                     match_extremal_family, start_profile)

# the coarsest --grid-n at which conformal-invariance's mesh meets its
# absolute 1e-6 gate on |K(Pf)|_6 = |Pf|_6: the gap falls monotonically in N,
# -1.05e-6 at 53, -9.6e-7 at 54 (and inverted_norm[p=3.6] fails up to 44)
CONFORMAL_GRID_FLOOR = 54
# the coarsest --grid-n from which weak-type-sweep at n=2 passes on every mesh
# up to 400; its superlevel mass error is not monotone in N (0.060 at 160,
# 0.042 at 208, 0.052 at 256 against the 5e-2 gate, at most 0.046 from 257)
WEAK_N2_GRID_FLOOR = 257
# the coarsest --grid-n from which verify-identities passes on every mesh up
# to 400 at seeds 0-3; below it duality_pairing misses its relative 1e-6 gate
# (1.05e-6 at 61, 9.8e-7 at 62)
IDENTITIES_GRID_FLOOR = 62


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 3
    p: float = 4.0
    grid_n: int = 160
    trials: int = 4
    seed: int = 0
    out: str = "results"
    init: str = "gaussian"
    max_iters: int = 300
    tol_residual: float = 5e-5

    def validate(self) -> None:
        if self.n < 2 or self.grid_n < 16:
            raise HalfextError("invalid dimension or grid sizes")
        if self.n != 3 and self.experiment in (
                "verify-identities", "rearrange-demo", "classify-radial",
                "conformal-invariance"):
            raise HalfextError(f"{self.experiment} is scripted for n=3")
        # the measured floors, and the gate a coarser mesh misses there
        floor, gate = {
            ("conformal-invariance", 3): (
                CONFORMAL_GRID_FLOOR, "|K(Pf)|_6 = |Pf|_6 by more than 1e-6"),
            ("verify-identities", 3): (
                IDENTITIES_GRID_FLOOR, "duality_pairing's relative 1e-6 gate "
                "(1.05e-6 at 61)"),
            ("weak-type-sweep", 2): (
                WEAK_N2_GRID_FLOOR, "the 5% gate on Pf's superlevel masses "
                "(0.052 at 256)")}.get((self.experiment, self.n), (0, ""))
        if self.grid_n < floor:
            raise HalfextError(f"{self.experiment} at n={self.n} needs "
                               f"--grid-n >= {floor}: a coarser mesh misses "
                               + gate)
        if not (1.0 < self.p < np.inf):
            raise HalfextError(f"p must lie in (1, inf), got {self.p}")
        if self.trials < 1:
            raise HalfextError("trials must be positive")
        self.solver()       # SolverConfig checks max_iters and tol_residual
        # start_profile rejects an unknown kind; the start must have an L^p
        # norm on the run's mesh, by the norm the gauge takes of it
        start = start_profile(build_radial_grid(self.n - 1, self.grid_n),
                              self.init, 1.0, 1.0)
        try:
            lp_norm_boundary(start, self.p)
        except HalfextError as exc:
            raise HalfextError(f"--init {self.init} starts outside "
                               f"L^{self.p}: {exc}") from exc

    def solver(self) -> SolverConfig:
        return SolverConfig(max_iters=self.max_iters,
                            tol_residual=self.tol_residual)


class Checks:
    """Accumulates named pass/fail checks for the JSON summary."""

    def __init__(self):
        self.rows = []

    def add(self, name, value, target, tol):
        self.rows.append({"name": name, "value": _jsonable(value),
                          "target": _jsonable(target), "tol": tol,
                          "pass": bool(abs(value - target) <= tol)})

    def bound(self, name, value, bound, upper=True):
        ok = value <= bound if upper else value >= bound
        self.rows.append({"name": name, "value": _jsonable(value),
                          "target": ("<= " if upper else ">= ") + repr(bound),
                          "tol": None, "pass": bool(ok)})

    @property
    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _meshes(cfg: ExperimentConfig):
    g = build_radial_grid(cfg.n - 1, cfg.grid_n)
    return g, default_halfspace_grid(g)


def _closed_form_family(n: int, p: float):
    """The extremal family whose critical exponent is p, or None."""
    if n < 3:
        return None
    return next((kind for kind in ("conformal", "dual")
                 if abs(ExtremalSpec(n, kind).critical_p - p) < 1e-12), None)


# relative gate of a computed sharp constant against its closed form
CLOSED_FORM_RTOL = 1e-5

# the lambda-free amplitude of the n=3 bubbles that solve the unit-coefficient
# EL system: conformal a^2 = 3/J, J = int_0^inf (4t+3)/((t+1)^3 (2t+1)^3) dt
# = 1/2; dual T(Pf) = (1/2) int_0^inf P_s f ds, so a^(1/3) = a/2
FAMILY_CONSTANT_N3 = {"conformal": math.sqrt(6.0),
                      "dual": 2.0 * math.sqrt(2.0)}


# ----------------------------------------------------------------- experiments

def _pt_lp_closed_form(n: int, p: float, t: float) -> float:
    """|P_t|_p in closed form: the Beta integral of P_t^p over R^(n-1)."""
    d = n - 1
    a, b = 0.5 * d, 0.5 * (n * (p - 1) + 1)
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return (kernel_constant(n) * t ** (-d * (p - 1) / p)
            * (0.5 * sphere_area(d) * beta) ** (1 / p))


def run_verify_kernel(cfg: ExperimentConfig, checks: Checks, outdir: str):
    # the library's |P_t|_p is a quadrature; p = 1 is the unit mass, and
    # near p = 1 the theta-integrand is least smooth at pi/2
    for p in (1.0, 1.1, 1.25, 1.5, 2.0, 3.0):
        for t in (0.25, 1.0, 4.0):
            closed = _pt_lp_closed_form(cfg.n, p, t)
            checks.add(f"pt_lp_norm[p={p:g},t={t:g}]",
                       pt_lp_norm(cfg.n, p, t), closed, 1e-8 * closed)


def run_verify_identities(cfg: ExperimentConfig, checks: Checks, outdir: str):
    g, hs = _meshes(cfg)
    rng = np.random.default_rng(cfg.seed)
    r_pts = rng.uniform(0.0, 4.0, 20)
    t_pts = rng.uniform(0.05, 4.0, 20)
    f1 = sample_radial(g, lambda r: (1 + r ** 2) ** -0.5,
                       tail_exponent=1.0, nonnegative=True)
    got = extend_at(f1, r_pts, t_pts)
    want = (r_pts ** 2 + (t_pts + 1) ** 2) ** -0.5
    checks.add("conformal_extension_identity", float(np.max(np.abs(got - want))),
               0.0, 1e-6)
    f2 = sample_radial(g, lambda r: (1 + r ** 2) ** -1.5,
                       tail_exponent=3.0, nonnegative=True)
    got = extend_at(f2, r_pts, t_pts)
    want = (t_pts + 1) / (r_pts ** 2 + (t_pts + 1) ** 2) ** 1.5
    checks.add("dual_extension_identity", float(np.max(np.abs(got - want))),
               0.0, 1e-6)
    # slab mass for three profiles and three heights
    profiles = {
        "cauchy": (lambda r: (1 + r ** 2) ** -1.5 / (2 * np.pi), 3.0),
        "gauss": (lambda r: np.exp(-r ** 2) / np.pi, np.inf),
        "bump": (lambda r: np.maximum(1 - r ** 2, 0.0) ** 2 * 3 / np.pi,
                 np.inf),
    }
    fs = [sample_radial(g, fn, tail_exponent=beta, nonnegative=True)
          for fn, beta in profiles.values()]
    heights = (0.3, 0.7, 2.0)
    slabs = [slab_mass(fs, a) for a in heights]
    for i, (name, f) in enumerate(zip(profiles, fs)):
        mass = lp_norm_boundary(f, 1.0)
        for a, slab in zip(heights, slabs):
            checks.add(f"slab_mass[{name},a={a}]", float(slab[i]),
                       a * mass, 1e-6)
    # duality pairing <Tu, f> = <u, Pf>
    f = sample_radial(g, lambda r: (0.5 + r ** 2) ** -1.2,
                      tail_exponent=2.4, nonnegative=True)
    R, T = np.meshgrid(hs.radial.nodes, hs.heights.nodes, indexing="ij")
    u = AxisymFn(hs, (1 + R ** 2 + (T + 0.5) ** 2) ** -2.0)
    lhs = float(np.dot(g.sphere * g.weights,
                       dual_extend(u).values * f.values))
    Pf = poisson_extend(f, hs)
    rhs = float(np.sum(hs.cell_measures() * u.values * Pf.values))
    checks.add("duality_pairing", lhs, rhs, 1e-6 * abs(rhs))


def _dual_superlevel_closed_form(n: int, levels) -> np.ndarray:
    """|{Pf > s}| for f = (1+r^2)^(-n/2), Pf = (1+t)/|x+e_n|^n: the volume
    (|S^(n-2)|/(n-1)) int_0^T (((1+t)/s)^(2/n) - (1+t)^2)^((n-1)/2) dt,
    T = s^(-1/(n-1)) - 1, on 64 Gauss-Legendre nodes in v, t = T(1 - v^2)."""
    s = np.asarray(levels, float)[:, None]
    T = s ** (-1.0 / (n - 1)) - 1.0
    v, w = panel_rule(0.0, 1.0, 64)
    tau = 1.0 + T * (1.0 - v * v)
    r2 = np.maximum((tau / s) ** (2.0 / n) - tau * tau, 0.0)
    integral = T[:, 0] * (r2 ** (0.5 * (n - 1)) @ (2.0 * w * v))
    return sphere_area(n - 1) / (n - 1) * integral


def run_weak_type_sweep(cfg: ExperimentConfig, checks: Checks, outdir: str):
    n = cfg.n
    g, hs = _meshes(cfg)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** (-0.5 * n),
                      tail_exponent=float(n), nonnegative=True)
    levels = np.geomspace(1e-2, 0.5, 25)
    masses = distribution_mass(poisson_extend(f, hs), levels)
    exact = _dual_superlevel_closed_form(n, levels)
    checks.add("superlevel_mass_vs_closed_form",
               float(np.max(np.abs(masses / exact - 1.0))), 0.0, 5e-2)
    # the weak L^(n/(n-1)) norm, sup over the levels of s |{Pf > s}|^(1/q)
    q = n / (n - 1)
    wn = float(np.max(levels * masses ** (1 / q)))
    closed = float(np.max(levels * exact ** (1 / q)))
    checks.add("weak_norm_vs_closed_form", wn, closed, 2e-2 * closed)
    write_csv(os.path.join(outdir, "trace.csv"), ["level", "mass"], levels,
              masses)
    return {"weak_norm_value": wn}


def run_estimate_constant(cfg: ExperimentConfig, checks: Checks, outdir: str):
    n, p = cfg.n, cfg.p
    g, hs = _meshes(cfg)
    est = ascent_estimate_constant(p, cfg.trials, cfg.seed, cfg.solver(), hs)
    summary_extra = {"c_estimate": est}
    family = _closed_form_family(n, p)
    if family is not None:
        closed = sharp_constant(n, family)
        checks.add("c_estimate_vs_closed_form", est, closed,
                   CLOSED_FORM_RTOL * closed)
        summary_extra["closed_form"] = closed
        summary_extra["rel_err"] = abs(est - closed) / closed
    else:
        checks.bound("c_estimate_positive", est, 0.0, upper=False)
    return summary_extra


def run_solve_el(cfg: ExperimentConfig, checks: Checks, outdir: str):
    n, p = cfg.n, cfg.p
    g, hs = _meshes(cfg)
    family = _closed_form_family(n, p)
    init = start_profile(g, cfg.init, 1.0, 1.0)
    try:
        sol, trace = el_fixed_point(n, p, init, cfg.solver(), hs)
    except SolverDivergence as exc:
        # the iterations up to the failure are the diagnostics; keep them
        exc.trace.to_csv(os.path.join(outdir, "trace.csv"))
        raise
    trace.to_csv(os.path.join(outdir, "trace.csv"))
    sol.to_csv(os.path.join(outdir, "profile.csv"))
    checks.bound("converged", 0.0 if trace.converged else 1.0, 0.5)
    # resolution indicator: the solution's |Pf|_q, product mesh over the
    # polar rule that the Rayleigh quotients read
    q = n * p / (n - 1)
    extra = {"iterations": len(trace), "rayleigh": trace.rayleighs[-1],
             "norm_mesh_gap": lp_norm_halfspace(poisson_extend(sol, hs), q)
             / extension_norm(sol, q, hs) - 1.0}
    # the solutions are bubbles exactly at the closed-form exponents
    fits = {kind: match_extremal_family(sol, n, kind, 10.0)
            for kind in ("conformal", "dual")}
    # a lambda on the fit's bracket edge e^-3 or e^3 makes that family's
    # misfit an upper bound
    for kind, (lam, _, err) in fits.items():
        extra.update({f"lambda_{kind}": lam, f"misfit_{kind}": err})
    if family is not None:
        # the solution is calibrated to the unit-coefficient system, so the
        # fitted amplitude is the lambda-free constant of the solved family;
        # a converged solve misses the family by up to 13.9 tol_residual and
        # the constant by up to 4.0 (n=3 dual, N=160), so both gate at 20
        _, family_c, err = fits[family]
        gate = 20.0 * cfg.tol_residual
        checks.bound("family_match_error", err, gate)
        if n == 3:
            closed = FAMILY_CONSTANT_N3[family]
            checks.add("family_constant_vs_closed_form", family_c, closed,
                       gate * closed)
        closed = sharp_constant(n, family)
        checks.add("rayleigh_vs_closed_form", trace.rayleighs[-1], closed,
                   CLOSED_FORM_RTOL * closed)
        extra.update({"family": family, "family_constant": family_c,
                      "family_match_error": err})
    return extra


def run_rearrange_demo(cfg: ExperimentConfig, checks: Checks, outdir: str):
    g = build_radial_grid(2, max(cfg.grid_n // 2, 48))
    pg = PolarGrid(g, 48)
    x, y = pg.points()
    # a translate rearranges to the centred bump, and its gain is exactly 0;
    # the cells resolve an off-centre bump to 2-3 digits, a gain to ~1e-3
    gain_tol = 2e-3
    bump = PolarFn(pg, np.exp(-3.0 * ((x - 0.5) ** 2 + y ** 2)))
    near = (g.nodes >= 0.05) & (g.nodes <= 1.5)
    miss = symmetric_rearrangement(bump).values - np.exp(-3.0 * g.nodes ** 2)
    checks.add("translate_rearrangement", float(np.max(np.abs(miss[near]))),
               0.0, 3e-2)
    checks.add("translate_gain", riesz_gain(bump, 0.8, 4.0), 0.0, gain_tol)
    two_bump = (np.exp(-((x - 1.2) ** 2 + y ** 2) * 3.0)
                + 0.8 * np.exp(-((x + 1.5) ** 2 + (y - 0.4) ** 2) * 5.0))
    f = PolarFn(pg, two_bump)
    symmetric_rearrangement(f).to_csv(os.path.join(outdir, "profile.csv"))
    gain = riesz_gain(f, 0.8, 4.0)
    checks.bound("two_bump_gain_positive", gain, gain_tol, upper=False)
    return {"two_bump_gain": gain}


def run_classify_radial(cfg: ExperimentConfig, checks: Checks, outdir: str):
    # a seeded bubble, calibrated on the EL system f^(p-1) = T((Pf)^(q-1)),
    # solves it at its family's exponent with the closed-form amplitude, and
    # misses it by a margin at an off-critical p where every integral
    # converges (the conformal bubble is not in L^(4/3), so not at the dual p)
    g, hs = _meshes(cfg)
    rng = np.random.default_rng(cfg.seed)
    for kind, tol, off_p in (("conformal", 1e-5, 3.0), ("dual", 1e-3, 2.0)):
        spec = ExtremalSpec(3, kind, rng.uniform(0.3, 3.0),
                            rng.uniform(0.5, 2.0))
        f = extremal_profile(spec, g)
        p = spec.critical_p
        a, residual = calibrate(3, p, *el_sides(f, p, hs))
        closed = FAMILY_CONSTANT_N3[kind]
        checks.add(f"amplitude_vs_closed_form[{kind}]", a * spec.amplitude,
                   closed, tol * closed)
        checks.add(f"el_residual[{kind}]", residual, 0.0, tol)
        checks.bound(f"el_residual[{kind},p={off_p:g}]",
                     calibrate(3, off_p, *el_sides(f, off_p, hs))[1], 1e-2,
                     upper=False)


def run_conformal_invariance(cfg: ExperimentConfig, checks: Checks,
                             outdir: str):
    g, hs = _meshes(cfg)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    finv = boundary_inversion(f)
    # |f|_p^p = pi/(p-1) and, for f~ = r/(1+r^2), pi B(p/2+1, p/2-1): equal
    # only at the critical p = 4, +9.0% apart at p = 3.6, -6.4% at p = 4.4
    for p in (3.6, 4.0, 4.4):
        closed = (math.pi / (p - 1)) ** (1 / p)
        checks.add(f"norm[p={p:g}]", lp_norm_boundary(f, p), closed,
                   1e-6 * closed)
        beta = math.gamma(p / 2 + 1) * math.gamma(p / 2 - 1) / math.gamma(p)
        closed = (math.pi * beta) ** (1 / p)
        checks.add(f"inverted_norm[p={p:g}]", lp_norm_boundary(finv, p),
                   closed, 1e-6 * closed)
    # f is not self-inverse, so K(Pf) and Pf are different arrays
    checks.add("halfspace_norm_preserved",
               lp_norm_halfspace(halfspace_inversion(f, hs), 6.0),
               lp_norm_halfspace(poisson_extend(f, hs), 6.0), 1e-6)


RUNNERS = {
    "verify-kernel": run_verify_kernel,
    "verify-identities": run_verify_identities,
    "weak-type-sweep": run_weak_type_sweep,
    "estimate-constant": run_estimate_constant,
    "solve-el": run_solve_el,
    "rearrange-demo": run_rearrange_demo,
    "classify-radial": run_classify_radial,
    "conformal-invariance": run_conformal_invariance,
}
EXPERIMENTS = tuple(RUNNERS)


# ----------------------------------------------------------------- plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfext", description="sharp Poisson-extension experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=EXPERIMENTS)
    for f in fields(ExperimentConfig)[1:]:
        run.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                         default=f.default, help=f"default {f.default!r}")
    return parser


def run_experiment(cfg: ExperimentConfig) -> int:
    outdir = cfg.out
    os.makedirs(outdir, exist_ok=True)
    checks = Checks()
    extra = None
    status = 0
    counts = dict(extension.CACHE_COUNTS)
    try:
        extra = RUNNERS[cfg.experiment](cfg, checks, outdir)
    except HalfextError as exc:
        checks.rows.append({"name": "numerical_failure", "value": str(exc),
                            "target": None, "tol": None, "pass": False})
        status = 1
    summary = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "checks": checks.rows,
        "pass": checks.all_pass and status == 0,
    }
    if extra:
        summary["results"] = {k: _jsonable(v) for k, v in extra.items()}
    summary["meta"] = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "halfext_version": __version__,
        "numpy_version": np.__version__,
        # this run's operator traffic, and what the cache holds at its end
        "operator_cache": {
            **{k: v - counts[k] for k, v in extension.CACHE_COUNTS.items()},
            "held_mb": extension.cache_held_bytes() / 2 ** 20},
    }
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if status == 0 and not checks.all_pass:
        status = 1
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig(**{f.name: getattr(args, f.name)
                                  for f in fields(ExperimentConfig)})
        cfg.validate()
    except HalfextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
