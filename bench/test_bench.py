"""Tests of the benchmark's own code; run with ``python3 -m pytest bench``."""

import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Task  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = (workloads.make_inputs(workload, 7) for _ in range(2))
    np.testing.assert_equal(a, b)
    if workload != "cli-suite":   # the CLI takes the seed itself
        with pytest.raises(AssertionError):
            np.testing.assert_equal(a, workloads.make_inputs(workload, 8))


def test_el_inputs_in_initial_profile_ranges():
    for amp, width in workloads.make_inputs("el-solve", 3).values():
        assert 0.5 <= amp <= 2.0 and 0.7 <= width <= 1.8


def _synthetic_tracer():
    """root [0, 10] > a [1, 4] > a' [2, 3];  root > b [5, 7]."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    root = tr.open("root")
    a = tr.open("a")
    inner = tr.open("a")
    tr.close(inner)
    tr.close(a)
    b = tr.open("b")
    tr.close(b)
    tr.close(root)
    return tr


def test_self_time_arithmetic():
    tr = _synthetic_tracer()
    a = tracing.arrays(tr)
    np.testing.assert_allclose(
        tracing.self_times(a["start"], a["end"], a["parent"]),
        [10 - 3 - 2, 3 - 1, 1, 2])
    assert list(a["parent"]) == [-1, 0, 1, 0]
    stats = tracing.summarize(tr)
    # busy time counts the outer "a" only; self time sums both
    assert stats["a"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}
    assert stats["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert tracing.nesting_violations(a) == 0


def test_nesting_violation_detected():
    a = {"start": np.array([0.0, 1.0]), "end": np.array([2.0, 3.0]),
         "parent": np.array([-1, 0])}
    assert tracing.nesting_violations(a) == 1


def _raises():
    raise ValueError("boom")


def _gates(**gates):
    def run_task():
        out = Outcome()
        for name, passed in gates.items():
            out.gate(name, passed, flagged=name.startswith("flagged"))
        return out
    return run_task


def test_failure_counting():
    tasks = [Task("ok", _gates(a=True)),
             Task("raises", _raises),
             Task("misses", _gates(a=False, b=False, c=True)),
             Task("flagged", _gates(flagged_converged=False))]
    records = workloads.run_tasks(tasks)
    assert [r["name"] for r in records] == ["ok", "raises", "misses", "flagged"]
    assert [r["ok"] for r in records] == [True, False, False, False]
    # one raising task and one task missing two gates count once each
    assert sum(not r["ok"] for r in records) == 3
    assert [r["wrong"] for r in records] == [False, False, True, False]
    assert records[1]["error"] == "ValueError: boom"
    assert records[2]["missed"] == ["a", "b"]
    assert all(a["t1"] <= b["t0"] for a, b in zip(records, records[1:]))


def test_install_spans_internal_calls():
    from halfext import extension, grids
    tr = tracing.Tracer()
    patched = tracing.install(tr)
    try:
        g = grids.build_radial_grid(2, 16, "tan", 1.0)
        hs = grids.default_halfspace_grid(g)
        f = grids.sample_radial(g, lambda r: (1 + r ** 2) ** -1.5,
                                tail_exponent=3.0, nonnegative=True)
        extension.poisson_extend(f, hs)
        extension.poisson_extend(f, hs)
    finally:
        tracing.uninstall(patched)
    from halfext import solver
    assert not hasattr(extension.ring_kernel, "__wrapped__")
    assert not hasattr(solver.poisson_extend, "__wrapped__")
    assert not hasattr(grids.RadialFn.eval, "__wrapped__")
    stats = tracing.summarize(tr)
    assert stats["extension.poisson_extend"]["calls"] == 2
    # the operator is built once, through the module-internal ring_kernel
    assert tr.counters["extension.get_operator.builds"] == 1
    assert stats["extension.ring_kernel"]["calls"] >= hs.heights.size
    assert tr.counters["quadrature.panel_rule.calls"] > 0
    a = tracing.arrays(tr)
    names = np.array(tr.names)[a["name"]]
    parents = a["parent"][names == "extension.ring_kernel"]
    assert set(names[parents]) == {"extension.get_operator"}


def test_benchmark_json_lists_reported_metrics():
    layer = set(tracing.layer_values(tracing.Tracer(), []))
    layer |= {"trace.overhead_s", "trace.overhead_ratio"}
    assert layer == {m["name"] for m in SPEC["per_layer"]}
    record = {"ok": True, "wrong": False, "values": {"err_dual": 1e-5}}
    e2e = run.end_to_end([{"run_s": 1.0, "peak_rss_mb": 1.0,
                           "records": [record]}], [1.0])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert e2e["digits_dual"] == pytest.approx(5.0)
    assert e2e["digits_conformal"] == 0.0


def test_probe_scaling():
    probe = speed.Probe()
    # two samples inside [0, 10): one at reference speed, one twice as slow
    probe.starts = [1.0, 5.0, 20.0]
    probe.durations = [speed.REF_S, 2 * speed.REF_S, 4 * speed.REF_S]
    busy = 10.0 - 3 * speed.REF_S
    assert probe.scaled(0.0, 10.0) == pytest.approx(busy * 0.75)
    # no sample inside: the nearest one (at 20) sets the speed
    assert probe.scaled(17.0, 18.0) == pytest.approx(0.25)
