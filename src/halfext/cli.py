"""Batch experiment driver with reproducible config and JSON/CSV output.

Usage:
    halfext run <experiment> [--config FILE] [flags]

Experiments: verify-kernel, verify-identities, weak-type-sweep,
estimate-constant, solve-el, rearrange-demo, classify-radial,
conformal-invariance.  Every field of ExperimentConfig but the experiment is
a flag of the same name with dashes (``grid_n`` is ``--grid-n``), and its
default there is the only one.

Each run writes ``summary.json`` (every check with value/target/tolerance,
the fully resolved config, and a separate ``meta`` field holding timestamps
and versions so the rest of the document is byte-stable) plus ``trace.csv``
and ``profile.csv`` where the experiment produces them; solve-el writes its
``trace.csv`` when the iteration diverges too.  Exit codes: 0 all checks
pass, 1 numerical failure, 2 usage error.

A flat JSON config file can seed any flag; explicit command-line flags win.
Invalid values, from either source, are usage errors.  The derived-constants
fixture is written by scripts/reproduce_constants.py from the summaries of
its runs, not by the CLI.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, extension
from .errors import HalfextError, SolverDivergence
from .extension import (dual_extend, extend_at, extension_norm,
                        poisson_extend, slab_mass)
from .extremals import ExtremalSpec, sharp_constant
from .grids import (AxisymFn, PolarFn, PolarGrid, build_radial_grid,
                    default_halfspace_grid, distribution_mass,
                    lp_norm_boundary, lp_norm_halfspace, sample_radial,
                    weak_lp_norm, write_csv)
from .kernel import pt_lp_norm, pt_profile, poisson_kernel
from .moebius import ball_map, boundary_inversion, halfspace_inversion
from .rearrange import (radial_to_polar, rearrangement_steps, riesz_gain,
                        symmetric_rearrangement)
from .solver import (SolverConfig, ascent_estimate_constant,
                     classify_inverted_radial, el_fixed_point,
                     match_extremal_family, ode_check_1d, start_profile)

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
        if self.experiment not in EXPERIMENTS:
            raise HalfextError(f"unknown experiment {self.experiment!r}")
        if self.n < 2 or self.grid_n < 16:
            raise HalfextError("invalid dimension or grid sizes")
        if not (1.0 < self.p < np.inf):
            raise HalfextError(f"p must lie in (1, inf), got {self.p}")
        if self.trials < 1:
            raise HalfextError("trials must be positive")
        self.solver()       # SolverConfig checks max_iters and tol_residual
        # start_profile rejects an unknown kind; the start's tail r^-beta
        # must be in L^p(R^(n-1)), as in lp_norm_boundary
        start = start_profile(build_radial_grid(self.n - 1, 16), self.init,
                              1.0, 1.0)
        if self.p * start.tail_exponent <= self.n - 1 + 1e-6:
            raise HalfextError(f"--init {self.init} starts outside L^{self.p}")

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
    g = build_radial_grid(cfg.n - 1, cfg.grid_n, "tan", 1.0)
    return g, default_halfspace_grid(g)


def _closed_form_family(n: int, p: float):
    """The extremal family whose critical exponent is p, or None."""
    if n < 3:
        return None
    return next((kind for kind in ("conformal", "dual")
                 if abs(ExtremalSpec(n, kind).critical_p - p) < 1e-12), None)


# ----------------------------------------------------------------- experiments

def run_verify_kernel(cfg: ExperimentConfig, checks: Checks, outdir: str):
    n = cfg.n
    for t in (0.25, 1.0, 4.0):
        checks.add(f"pt_l1_norm[t={t}]", pt_lp_norm(n, 1.0, t), 1.0, 1e-8)
    t = 2.0
    checks.add("pt_sup_norm[t=2]", pt_lp_norm(n, np.inf, t),
               pt_profile(n, t, 0.0), 1e-14)
    # scaling law on a log-spaced height grid
    for p in (2.0, 1.5):
        ts = np.geomspace(0.1, 10.0, 7)
        scaled = [pt_lp_norm(n, p, t) * t ** ((n - 1) * (p - 1) / p)
                  for t in ts]
        checks.add(f"pt_lp_scaling[p={p}]",
                   float(np.max(scaled) - np.min(scaled)), 0.0,
                   1e-8 * scaled[0])
    rng = np.random.default_rng(cfg.seed)
    x = np.concatenate([rng.normal(size=n - 1), [abs(rng.normal()) + 0.1]])
    xi = rng.normal(size=n - 1)
    theta = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.eye(n - 1)
    if n >= 3:
        rot[:2, :2] = [[c, -s], [s, c]]
    xr = np.concatenate([rot @ x[:-1], [x[-1]]])
    checks.add("rotation_symmetry",
               poisson_kernel(n, xr, rot @ xi), poisson_kernel(n, x, xi),
               1e-14)
    checks.bound("positivity", float(pt_profile(n, 0.3, 5.0)), 0.0,
                 upper=False)


def run_verify_identities(cfg: ExperimentConfig, checks: Checks, outdir: str):
    if cfg.n != 3:
        raise HalfextError("extension identities are scripted for n=3")
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


def run_weak_type_sweep(cfg: ExperimentConfig, checks: Checks, outdir: str):
    n = cfg.n
    g, hs = _meshes(cfg)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** (-0.5 * (n + 1)),
                      tail_exponent=float(n + 1), nonnegative=True)
    f = f.scaled(1.0 / lp_norm_boundary(f, 1.0))
    u = poisson_extend(f, hs)
    exponent = n / (n - 1)
    levels = np.geomspace(1e-4, float(np.max(u.values)) * 0.8, 25)
    masses = np.array([distribution_mass(u, lv) for lv in levels])
    ok_mono = bool(np.all(np.diff(masses) <= 1e-12))
    checks.add("mass_monotone_in_level", 0.0 if ok_mono else 1.0, 0.0, 0.5)
    weak_c = float(np.max(levels * masses ** (1.0 / exponent)))
    checks.bound("weak_type_constant_finite", weak_c, 50.0)
    wn = weak_lp_norm(u, exponent)
    checks.bound("weak_norm_finite", wn, 50.0)
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
        checks.add("c_estimate_vs_closed_form", est, closed, 0.005 * closed)
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
    checks.bound("final_residual", trace.residuals[-1], cfg.tol_residual)
    # resolution indicator: the solution's |Pf|_q, product mesh over the
    # polar rule that the Rayleigh quotients read
    q = n * p / (n - 1)
    extra = {"iterations": len(trace), "rayleigh": trace.rayleighs[-1],
             "norm_mesh_gap": lp_norm_halfspace(poisson_extend(sol, hs), q)
             / extension_norm(sol, q, hs) - 1.0}
    if family is not None:
        # the solution is calibrated to the unit-coefficient system, so the
        # fitted amplitude is the lambda-free constant of the solved family
        lam, family_c, err = match_extremal_family(sol, n, family, 10.0)
        checks.bound("family_match_error", err, 1e-3)
        extra.update({"family": family, "lambda": lam,
                      "family_constant": family_c,
                      "family_match_error": err})
    return extra


def run_rearrange_demo(cfg: ExperimentConfig, checks: Checks, outdir: str):
    g = build_radial_grid(2, max(cfg.grid_n // 2, 48), "tan", 1.0)
    pg = PolarGrid(g, 48)
    x, y = pg.points()
    two_bump = (np.exp(-((x - 1.2) ** 2 + y ** 2) * 3.0)
                + 0.8 * np.exp(-((x + 1.5) ** 2 + (y - 0.4) ** 2) * 5.0))
    f = PolarFn(pg, two_bump)
    star = symmetric_rearrangement(f)
    star.to_csv(os.path.join(outdir, "profile.csv"))
    cells = pg.cell_measures()
    v, rho = rearrangement_steps(f.values.ravel(), cells.ravel(), 2)
    shells = np.diff(np.concatenate(([0.0], rho ** 2))) * np.pi
    for p in (1.0, 2.0, 4.0):
        orig = float(np.sum(cells * f.values ** p))
        star_mass = float(np.dot(shells, v ** p))
        checks.add(f"lp_preserved[p={p}]", star_mass, orig, 1e-8 * orig)
    gain = riesz_gain(f, 0.8, 4.0)
    checks.bound("two_bump_gain_positive", gain, 1e-6, upper=False)
    radial = radial_to_polar(star, pg)
    checks.add("radial_gain_zero", riesz_gain(radial, 0.8, 4.0), 0.0, 1e-12)
    return {"two_bump_gain": gain}


def run_classify_radial(cfg: ExperimentConfig, checks: Checks, outdir: str):
    g = build_radial_grid(2, cfg.grid_n, "tan", 1.0)
    rng = np.random.default_rng(cfg.seed)
    n_cases = correct = 0
    for i in range(10):
        c1, c2 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        alpha = rng.choice([-2.0, -1.0, 1.5])
        u = sample_radial(g, lambda r: (c1 * r ** 2 + c2) ** (alpha / 2),
                          nonnegative=True)
        got = classify_inverted_radial(u, alpha)
        n_cases += 1
        correct += (got.kind == "quadratic_power"
                    and abs(got.c1 - c1) < 1e-6 and abs(got.c2 - c2) < 1e-6)
    for i in range(10):
        c1 = rng.uniform(0.2, 3.0)
        alpha = rng.choice([-1.0, -0.5, 2.0])
        u = sample_radial(g, lambda r: c1 * r ** alpha, value_at_zero=0.0)
        got = classify_inverted_radial(u, alpha)
        n_cases += 1
        correct += (got.kind == "pure_power" and abs(got.c1 - c1) < 1e-6)
    for i in range(10):
        eps = rng.uniform(0.02, 0.1)
        alpha = rng.choice([-1.0, 1.0])
        u = sample_radial(
            g, lambda r: (1 + r ** 2 + eps * np.sin(r)) ** (alpha / 2),
            nonnegative=True)
        got = classify_inverted_radial(u, alpha)
        n_cases += 1
        correct += got.kind == "none"
    checks.add("classifier_accuracy", correct, n_cases, 0)
    x = np.linspace(0.5, 2.0, 25)
    checks.bound("third_difference_family",
                 ode_check_1d(x, (x ** 2 + 1) ** -0.5, -1.0), 1e-8)
    checks.bound("third_difference_shifted",
                 ode_check_1d(x, (2 * (x - 1) ** 2 + 3) ** 0.75, 1.5), 1e-8)
    res = ode_check_1d(x, np.exp(x), 2.0)
    checks.bound("third_difference_nonmember", res,
                 0.5 * float(np.exp(x[0])), upper=False)
    return {"cases": n_cases, "correct": int(correct)}


def run_conformal_invariance(cfg: ExperimentConfig, checks: Checks,
                             outdir: str):
    if cfg.n != 3:
        raise HalfextError("inversion checks are scripted for n=3")
    g, hs = _meshes(cfg)
    p_crit = 4.0
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -1.0,
                      tail_exponent=2.0, nonnegative=True)
    alpha = -(cfg.n - 2)
    finv = boundary_inversion(f, alpha)
    checks.add("boundary_norm_preserved",
               lp_norm_boundary(finv, p_crit), lp_norm_boundary(f, p_crit),
               1e-6)
    for p_off in (0.9 * p_crit, 1.1 * p_crit):
        ratio = lp_norm_boundary(finv, p_off) / lp_norm_boundary(f, p_off)
        checks.bound(f"noncritical_broken[p={p_off:g}]", abs(ratio - 1.0),
                     0.01, upper=False)
    finv2 = boundary_inversion(finv, alpha)
    checks.add("involution", float(np.max(np.abs(finv2.values - f.values))),
               0.0, 1e-9)
    # f is not self-inverse, so K(Pf) and Pf are different arrays
    checks.add("halfspace_norm_preserved",
               lp_norm_halfspace(halfspace_inversion(f, hs), 6.0),
               lp_norm_halfspace(poisson_extend(f, hs), 6.0), 1e-6)
    rng = np.random.default_rng(cfg.seed)
    pts = np.column_stack([rng.normal(size=(200, cfg.n - 1)),
                           np.abs(rng.normal(size=200)) + 1e-3])
    mapped = ball_map(pts)
    checks.bound("ball_map_inside", float(np.max(np.linalg.norm(mapped,
                                                                axis=1))),
                 1.0)
    shallow = pts.copy()
    shallow[:, -1] = rng.uniform(1e-6, 1e-3, 200)
    mb = ball_map(shallow)
    err = np.abs(np.linalg.norm(mb, axis=1) - 1.0)
    checks.bound("boundary_to_sphere",
                 float(np.max(err - 10.0 * shallow[:, -1])), 0.0)


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
    run.add_argument("--config", help="flat JSON config file")
    for f in fields(ExperimentConfig)[1:]:
        # unset flags parse to None, so the config file or the default holds
        run.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                         help=f"default {f.default!r}")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    base = {"experiment": args.experiment}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise HalfextError("a config file holds one flat JSON object")
        # the flags' types; a JSON integer may fill a float field
        types = {f.name: type(f.default) for f in fields(ExperimentConfig)[1:]}
        unknown = set(file_cfg) - set(types)
        if unknown:
            raise HalfextError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if types[key] is float and type(value) is int:
                value = float(value)
            if type(value) is not types[key]:
                raise HalfextError(f"config key {key!r} needs a "
                                   f"{types[key].__name__}, got {value!r}")
            base[key] = value
    for f in fields(ExperimentConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            base[f.name] = flag
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


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
        cfg = resolve_config(args)
    except (HalfextError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
