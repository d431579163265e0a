"""Spans around halfext's public functions, recorded from outside the package.

``install`` replaces each function listed in ``SPANNED`` at every module
attribute of ``halfext`` that refers to it (``halfext.solver.poisson_extend``
as well as ``halfext.extension.poisson_extend``), and methods on their class,
so calls made inside the package are spanned too and ``src/`` stays untouched.
Each span records its name, start, end, parent span and task id in compact
in-memory arrays, written out once the run ends.

A span's self time is its duration minus the durations of its child spans;
children of one span never overlap, because spans nest on a single stack.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from halfext.cli import EXPERIMENTS as CLI_EXPERIMENTS
from workloads import (EL_SOLVES, FAMILIES, LADDER, digits, el_task_name,
                       rung_task_name)

# span name -> per-layer statistics reported for it; the name is
# "<module>.<attribute path>" inside halfext.  BENCHMARK.json lists every
# metric layer_values reports, with its unit.
SPANNED = {
    "extension.get_operator": ("calls", "busy_s", "self_s"),
    "extension.ring_kernel": ("calls", "busy_s", "self_s"),
    "extension.poisson_extend": ("calls", "busy_s", "self_s"),
    "extension.dual_extend": ("calls", "busy_s", "self_s"),
    "extension.PoissonOperator.extend": ("calls", "busy_s"),
    "extension.PoissonOperator.dual": ("calls", "busy_s"),
    "extension.extend_at": ("calls", "busy_s"),
    "extension.slab_mass": ("calls", "busy_s"),
    "extension.commutator_gap": ("calls", "busy_s"),
    "quadrature.composite_rule": ("calls", "busy_s", "self_s"),
    "grids.RadialFn.eval": ("calls", "busy_s", "self_s"),
    "grids.lp_norm_halfspace": ("calls", "busy_s"),
    "grids.lp_norm_boundary": ("calls", "busy_s"),
    "grids.build_radial_grid": ("calls", "busy_s"),
    "solver.el_fixed_point": ("calls", "busy_s", "self_s"),
    "solver.normalize_mass_half": ("calls", "busy_s", "self_s"),
    "solver.concentration_radius": ("calls", "busy_s", "self_s"),
    "solver.ascent_estimate_constant": ("calls", "busy_s"),
    "extremals.rayleigh_quotient": ("calls", "busy_s", "self_s"),
    "extremals.singular_constant": ("calls", "busy_s"),
    "kernel.pt_lp_norm": ("calls", "busy_s"),
    "rearrange.riesz_gain": ("calls", "busy_s"),
    "rearrange.planar_convolution": ("calls", "busy_s"),
    "moebius.boundary_inversion": ("calls", "busy_s"),
    "moebius.halfspace_inversion": ("calls", "busy_s"),
}
# called too often for a span each (121k calls per operator build): counted
COUNTED = ("quadrature.panel_rule",)


class Tracer:
    """Span recorder: one stack, spans and counters kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._depth: list[int] = []       # open spans per name
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.task_of = array("l")
        self.outermost = array("b")       # no open span of the same name above
        self.counters: Counter = Counter()
        self.task_id = -1
        self._stack: list[int] = []
        self._operators = weakref.WeakSet()

    def open(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task_of.append(self.task_id)
        self.outermost.append(self._depth[idx] == 0)
        self._depth[idx] += 1
        self._stack.append(sid)
        self.end.append(math.nan)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()
        self._depth[self.name[sid]] -= 1

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    @contextmanager
    def task(self, task_id: int):
        self.task_id = task_id
        try:
            with self.span("task"):
                yield
        finally:
            self.task_id = -1

    def wrap(self, name: str, fn, hook=None):
        def spanned(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self, args, result)
            return result
        spanned.__wrapped__ = fn
        return spanned

    def count(self, name: str, fn):
        key = name + ".calls"

        def counted(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


# ----------------------------------------------------------------- hooks

def _ring_entries(tr, args, result):
    tr.counters["extension.ring_kernel.entries"] += np.broadcast(*args[1:4]).size


def _eval_points(tr, args, result):
    tr.counters["grids.RadialFn.eval.points"] += np.size(args[1])


def _operator_built(tr, args, result):
    if result not in tr._operators:
        tr._operators.add(result)
        tr.counters["extension.get_operator.builds"] += 1
        nbytes = result.matrices.nbytes
        if result.dual_matrices is not result.matrices:
            nbytes += result.dual_matrices.nbytes
        tr.counters["operator_bytes"] += nbytes


def _extend_bytes(tr, args, result):
    tr.counters["contraction_bytes"] += args[0].matrices.nbytes


def _dual_bytes(tr, args, result):
    tr.counters["contraction_bytes"] += args[0].dual_matrices.nbytes


def _solve_done(tr, args, result):
    trace = result[1]
    tr.counters["solver.iterations"] += len(trace)
    tr.counters["solver.converged"] += bool(trace.converged)
    tr.counters["solver.final_residual_max"] = max(
        tr.counters["solver.final_residual_max"], trace.residuals[-1])


HOOKS = {
    "extension.ring_kernel": _ring_entries,
    "grids.RadialFn.eval": _eval_points,
    "extension.get_operator": _operator_built,
    "extension.PoissonOperator.extend": _extend_bytes,
    "extension.PoissonOperator.dual": _dual_bytes,
    "solver.el_fixed_point": _solve_done,
}


def install(tracer: Tracer) -> list:
    """Wrap every SPANNED and COUNTED callable; return (owner, attr, original) triples."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "halfext" or name.startswith("halfext.")]
    patched = []
    for name in (*SPANNED, *COUNTED):
        module, *path = name.split(".")
        owner = importlib.import_module(f"halfext.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
        if name in SPANNED:
            wrapper = tracer.wrap(name, original, HOOKS.get(name))
        else:
            wrapper = tracer.count(name, original)
        if len(path) > 1:           # a method: patch it on its class
            targets = [(owner, path[-1])]
        else:                       # a function: every module that holds it
            targets = [(m, attr) for m in modules
                       for attr, value in list(vars(m).items())
                       if value is original]
        for target, attr in targets:
            setattr(target, attr, wrapper)
            patched.append((target, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for target, attr, original in reversed(patched):
        setattr(target, attr, original)


# ----------------------------------------------------------------- analysis

def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def arrays(tracer: Tracer) -> dict:
    return {"start": np.frombuffer(tracer.start, dtype=float),
            "end": np.frombuffer(tracer.end, dtype=float),
            "name": np.frombuffer(tracer.name, dtype=np.int64),
            "parent": np.frombuffer(tracer.parent, dtype=np.int64),
            "task": np.frombuffer(tracer.task_of, dtype=np.int64),
            "outermost": np.frombuffer(tracer.outermost, dtype=np.int8)}


def nesting_violations(a: dict, eps: float = 1e-9) -> int:
    """Spans that end before they start, leave their parent, or have self time < 0."""
    start, end, parent = a["start"], a["end"], a["parent"]
    bad = ~(end >= start) | (self_times(start, end, parent) < -eps)
    has = parent >= 0
    p = parent[has]
    bad[has] |= (start[has] < start[p] - eps) | (end[has] > end[p] + eps)
    return int(np.count_nonzero(bad))


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, busy_s (outermost spans only) and self_s."""
    a = arrays(tracer)
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    k = len(tracer.names)
    calls = np.bincount(a["name"], minlength=k)
    busy = np.bincount(a["name"], weights=dur * (a["outermost"] == 1),
                       minlength=k)
    selft = np.bincount(a["name"], weights=own, minlength=k)
    return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                   "self_s": float(selft[i])}
            for i, name in enumerate(tracer.names)}


def layer_values(tracer: Tracer, records: list) -> dict:
    """Every PER_LAYER metric except the overhead, which needs an untraced pass."""
    stats = summarize(tracer)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    c = tracer.counters
    out = {f"{span}.{stat}": stats.get(span, empty)[stat]
           for span, wanted in SPANNED.items() for stat in wanted}
    contraction_s = (stats.get("extension.PoissonOperator.extend", empty)["busy_s"]
                     + stats.get("extension.PoissonOperator.dual", empty)["busy_s"])
    solve_s = stats.get("solver.el_fixed_point", empty)["busy_s"]
    by_task = {r["name"]: r for r in records}
    out.update({
        "extension.get_operator.builds": c["extension.get_operator.builds"],
        "extension.operator_mb_computed": c["operator_bytes"] / 1e6,
        "extension.ring_kernel.entries": c["extension.ring_kernel.entries"],
        "extension.extend_gbps_computed":
            c["contraction_bytes"] / contraction_s / 1e9 if contraction_s else 0.0,
        "quadrature.panel_rule.calls": c["quadrature.panel_rule.calls"],
        "grids.RadialFn.eval.points": c["grids.RadialFn.eval.points"],
        "solver.iterations": c["solver.iterations"],
        "solver.iteration_ms": (1e3 * solve_s / c["solver.iterations"]
                                if c["solver.iterations"] else 0.0),
        "solver.converged": c["solver.converged"],
        "solver.final_residual_max": c["solver.final_residual_max"],
        "trace.spans": len(tracer.start),
        "trace.nesting_violations": nesting_violations(arrays(tracer)),
    })
    for solve in EL_SOLVES:
        name = el_task_name(*solve)
        out[f"solver.iterations.{name}"] = \
            by_task.get(name, {}).get("values", {}).get("iterations", 0)
    for n, N in LADDER:
        values = by_task.get(rung_task_name(n, N), {}).get("values", {})
        for family in FAMILIES:
            out[f"extremals.digits.{family}.n{n}.N{N}"] = \
                digits(values.get(f"rung_rel_err_{family}"))
    for name in CLI_EXPERIMENTS:
        out[f"cli.{name}.wall_s"] = by_task.get(f"cli.{name}", {}).get("wall_s", 0.0)
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    np.savez_compressed(path, names=np.array(tracer.names), **arrays(tracer))
