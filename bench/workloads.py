"""The three benchmark workloads: seeded inputs, set-up, tasks and their gates.

Every workload is a closed loop with one client: its tasks run one after the
other in a single process, each through the public API of ``halfext``.
Functions are looked up on their modules at call time (``solver.el_fixed_point``
rather than an imported name), so the spans a traced run installs on those
module attributes also cover the benchmark's own calls.

Tasks record ``err_<family>``, the relative error of an output against a
closed form for that family: the sharp constant for Rayleigh quotients, and
for cli-suite's dual figure the slab-mass identity on the family's profile.

A task returns an :class:`Outcome` holding its gates.  A gate that compares an
output with an oracle marks the run incorrect when it misses; a *flagged* gate
is one whose miss the program reports itself (a solve that says it did not
converge, a CLI run that exits non-zero) and only counts as a failure.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("el-solve", "kernel-build", "cli-suite")
FAMILIES = ("conformal", "dual")

# (n, family, start) of the el-solve solves; p is the family's exponent
EL_SOLVES = (
    (3, "conformal", "gaussian"), (3, "conformal", "bump"),
    (3, "conformal", "dual-family"),
    (3, "dual", "gaussian"), (3, "dual", "bump"),
    (4, "conformal", "gaussian"), (4, "dual", "gaussian"),
)
EL_MESH_N = 160
# (n, N) rungs of the kernel-build accuracy ladder; n=5 uses the gl ring kernel
LADDER = ((3, 64), (3, 96), (3, 128), (3, 160), (3, 224), (4, 160), (5, 24))
# the rung whose errors are the kernel-build end-to-end accuracy
HEADLINE_RUNG = (3, 160)
ORACLE_POINTS = 20_000
COMMUTATOR_HEIGHTS = (0.05, 0.5, 2.0)

# gate tolerances, as the repository's own tests use them
FAMILY_MATCH_TOL = 1e-3
RUNG_REL_TOL = 5e-4
RING_REL_TOL = 1e-12
COMMUTATOR_TOL = 1e-6
SINGULAR_EXACT_TOL = 1e-6
SINGULAR_R0_TOL = {(3, 4.0): 1e-6, (4, 2.0): 1e-4}


def digits(err) -> float:
    """Correct decimal digits, -log10 of an error; 0 when nothing was checked."""
    if err is None or not math.isfinite(err):
        return 0.0
    return max(0.0, -math.log10(max(err, 1e-17)))


def el_task_name(n: int, family: str, start: str) -> str:
    return f"el.n{n}.{family}.{start}"


def rung_task_name(n: int, N: int) -> str:
    return f"rung.n{n}.N{N}"


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload draws from its seed; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "el-solve":
        # start amplitude and width, in the ranges solver.initial_profiles uses
        return {el_task_name(*solve): (float(rng.uniform(0.5, 2.0)),
                                       float(rng.uniform(0.7, 1.8)))
                for solve in EL_SOLVES}
    if workload == "kernel-build":
        return {
            "ring_points": {n: rng.uniform(0.05, 4.0, (3, ORACLE_POINTS))
                            for n in (3, 4)},
            "commutator_k": float(rng.uniform(0.5, 2.0)),
            "singular_r0": float(rng.uniform(0.5, 2.0)),
        }
    if workload == "cli-suite":
        return {"cli_seed": int(seed)}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """Gates and measured values of one task."""

    gates: dict = field(default_factory=dict)      # gate name -> passed
    flagged: set = field(default_factory=set)      # gates the program reports itself
    values: dict = field(default_factory=dict)

    def gate(self, name: str, passed: bool, flagged: bool = False) -> None:
        self.gates[name] = bool(passed)
        if flagged:
            self.flagged.add(name)


@dataclass
class Task:
    name: str
    run: Callable[[], Outcome]


def run_tasks(tasks, tracer=None, clock=time.monotonic) -> list:
    """Run tasks back to back; return one record per task.

    A task that raises, or misses any of its gates, is one failure.  A missed
    gate that is not flagged also makes the record ``wrong``.  ``t0`` and
    ``t1`` are the task's start and end on ``clock``.
    """
    records = []
    for i, task in enumerate(tasks):
        t0 = clock()
        try:
            if tracer is None:
                out = task.run()
            else:
                with tracer.task(i):
                    out = task.run()
        except Exception as exc:  # a raising task is recorded and counted, not fatal
            record = {"ok": False, "wrong": False, "values": {},
                      "missed": [], "error": f"{type(exc).__name__}: {exc}"}
        else:
            missed = sorted(g for g, passed in out.gates.items() if not passed)
            record = {"ok": not missed,
                      "wrong": any(g not in out.flagged for g in missed),
                      "values": out.values, "missed": missed, "error": None}
        t1 = clock()
        record.update(name=task.name, t0=t0, t1=t1, wall_s=t1 - t0)
        records.append(record)
    return records


# ----------------------------------------------------------------- el-solve

def _el_start(grids, g, n: int, start: str, amp: float, width: float):
    r = g.nodes
    if start == "gaussian":
        return grids.RadialFn(g, amp * np.exp(-(r / width) ** 2),
                              value_at_zero=amp, tail_exponent=math.inf,
                              nonnegative=True)
    if start == "bump":
        return grids.RadialFn(
            g, amp * np.maximum(1.0 - (r / (2.0 * width)) ** 2, 0.0) ** 2,
            value_at_zero=amp, tail_exponent=math.inf, nonnegative=True)
    e = 0.5 * n   # the dual family's profile
    return grids.RadialFn(g, amp * (width / (width ** 2 + r ** 2)) ** e,
                          value_at_zero=amp * width ** (-e),
                          tail_exponent=2.0 * e, nonnegative=True)


def setup_el_solve(seed: int, scratch: str) -> list:
    from halfext import cli, extension, extremals, grids, solver
    inputs = make_inputs("el-solve", seed)
    meshes = {}
    for n in sorted({solve[0] for solve in EL_SOLVES}):
        g = grids.build_radial_grid(n - 1, EL_MESH_N, "tan", 1.0)
        hs = grids.default_halfspace_grid(g)
        extension.get_operator(n, g, hs)      # warm the operator cache
        meshes[n] = (g, hs)
    cfg = cli.ExperimentConfig("solve-el").solver()   # the CLI's defaults

    def solve(n, family, init, hs):
        def run() -> Outcome:
            p = extremals.ExtremalSpec(n, family).critical_p
            sol, trace = solver.el_fixed_point(n, p, init, cfg, hs)
            _, _, match_err = solver.match_extremal_family(sol, n, family, 10.0)
            out = Outcome()
            out.values.update({
                "iterations": len(trace),
                "final_residual": trace.residuals[-1],
                "family_match_error": match_err,
                f"err_{family}": abs(trace.rayleighs[-1]
                                     / extremals.sharp_constant(n, family)
                                     - 1.0),
            })
            out.gate("converged", trace.converged, flagged=True)
            if trace.converged:
                out.gate("family_match", match_err <= FAMILY_MATCH_TOL)
            return out
        return run

    tasks = []
    for n, family, start in EL_SOLVES:
        name = el_task_name(n, family, start)
        g, hs = meshes[n]
        init = _el_start(grids, g, n, start, *inputs[name])
        tasks.append(Task(name, solve(n, family, init, hs)))
    return tasks


# ----------------------------------------------------------------- kernel-build

def setup_kernel_build(seed: int, scratch: str) -> list:
    from halfext import extension, extremals, grids
    inputs = make_inputs("kernel-build", seed)

    def rung(n, N):
        def run() -> Outcome:
            # fresh grids: the id()-keyed operator cache cannot hit
            g = grids.build_radial_grid(n - 1, N, "tan", 1.0)
            hs = grids.default_halfspace_grid(g)
            extension.get_operator(n, g, hs)
            out = Outcome()
            for family in FAMILIES:
                spec = extremals.ExtremalSpec(n, family)
                rq = extremals.rayleigh_quotient(
                    extremals.extremal_profile(spec, g), n, spec.critical_p, hs)
                err = abs(rq / extremals.sharp_constant(n, family) - 1.0)
                out.values[f"rung_rel_err_{family}"] = err
                if (n, N) == HEADLINE_RUNG:
                    out.values[f"err_{family}"] = err
                out.gate(f"rel_err_{family}", err <= RUNG_REL_TOL)
            return out
        return run

    def ring_oracle(n, points):
        def run() -> Outcome:
            r, s, t = points
            gl = extension.ring_kernel(n, r, s, t, method="gl")
            closed = extension.ring_kernel(n, r, s, t, method="closed")
            err = float(np.max(np.abs(gl / closed - 1.0)))
            out = Outcome(values={"max_rel_diff": err})
            out.gate("gl_matches_closed", err <= RING_REL_TOL)
            return out
        return run

    def commutator(t, k):
        def run() -> Outcome:
            g = grids.build_radial_grid(2, 96, "tan", 1.0)
            f = grids.sample_radial(g, lambda r: (1 + r ** 2) ** -1.5,
                                    tail_exponent=3.0, nonnegative=True)
            # phi = sin(k r)/k has Lipschitz seminorm 1
            phi = grids.RadialFn(g, np.sin(k * g.nodes) / k,
                                 value_at_zero=0.0, tail_exponent=0.0)
            gap = extension.commutator_gap(f, 1.0, phi, t)
            out = Outcome(values={"gap": gap})
            out.gate("lipschitz_bound", gap <= COMMUTATOR_TOL)
            return out
        return run

    def singular_exact():
        c = extremals.singular_constant(3, 2.0)
        out = Outcome(values={"c": c})
        out.gate("c_equals_1", abs(c - 1.0) <= SINGULAR_EXACT_TOL)
        return out

    def singular_r0(n, p, r0):
        def run() -> Outcome:
            c1 = extremals.singular_constant(n, p, 1.0)
            c2 = extremals.singular_constant(n, p, r0)
            rel = abs(c2 / c1 - 1.0)
            out = Outcome(values={"c": c1, "r0_rel_diff": rel})
            out.gate("r0_independent", c1 > 0.0
                     and rel <= SINGULAR_R0_TOL[(n, p)])
            return out
        return run

    tasks = [Task(rung_task_name(n, N), rung(n, N)) for n, N in LADDER]
    tasks += [Task(f"ring-oracle.n{n}", ring_oracle(n, pts))
              for n, pts in inputs["ring_points"].items()]
    tasks += [Task(f"commutator.t{t:g}", commutator(t, inputs["commutator_k"]))
              for t in COMMUTATOR_HEIGHTS]
    tasks.append(Task("singular.n3.p2", singular_exact))
    tasks += [Task(f"singular.n{n}.p{p:g}", singular_r0(n, p, inputs["singular_r0"]))
              for n, p in SINGULAR_R0_TOL]
    return tasks


# ----------------------------------------------------------------- cli-suite

def setup_cli_suite(seed: int, scratch: str) -> list:
    from halfext import cli, extremals
    cli_seed = make_inputs("cli-suite", seed)["cli_seed"]

    def experiment(name):
        def run() -> Outcome:
            outdir = os.path.join(scratch, name)
            # default flags only; never --write-fixtures, so fixtures/ is untouched
            status = cli.main(["run", name, "--seed", str(cli_seed),
                               "--out", outdir])
            with open(os.path.join(outdir, "summary.json")) as fh:
                summary = json.load(fh)
            out = Outcome()
            out.gate("exit_code_0", status == 0, flagged=True)
            out.gate("summary_pass", summary["pass"] is True)
            results = summary.get("results", {})
            n = summary["config"]["n"]
            if name == "solve-el" and results.get("family"):
                family = results["family"]
                out.values[f"err_{family}"] = abs(
                    results["rayleigh"] / extremals.sharp_constant(n, family)
                    - 1.0)
            if name == "estimate-constant" and "rel_err" in results:
                p = summary["config"]["p"]
                family = next(f for f in FAMILIES
                              if abs(extremals.ExtremalSpec(n, f).critical_p
                                     - p) < 1e-12)
                out.values[f"err_{family}"] = results["rel_err"]
            if name == "verify-identities":
                # the Fubini slab-mass identity on the dual family's profile
                # ("cauchy"); the seeded pointwise identities vary with the seed
                for row in summary["checks"]:
                    if row["name"].startswith("slab_mass[cauchy,"):
                        err = abs(row["value"] / row["target"] - 1.0)
                        out.values["err_dual"] = max(
                            err, out.values.get("err_dual", 0.0))
            return out
        return run

    return [Task(f"cli.{name}", experiment(name)) for name in cli.EXPERIMENTS]


SETUP = {
    "el-solve": setup_el_solve,
    "kernel-build": setup_kernel_build,
    "cli-suite": setup_cli_suite,
}
