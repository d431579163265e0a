#!/usr/bin/env python3
"""The halfext benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload {el-solve,kernel-build,cli-suite}
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; it only reads and writes inside it
(scratch output goes to ``.bench_out/``, which is removed or overwritten).
Every repetition of a workload runs in its own fresh process (``worker.py``),
so imports count in ``setup_s``, ``ru_maxrss`` is per workload, and no
module-level cache carries over.  BLAS is pinned to ``BLAS_THREADS`` threads.

``--trace 0``: about ``--seconds`` worth of passes of the workload's tasks
(``PASS_S``), each in its own process; set-up is timed in each pass process
and in extra set-up-only processes, ``SETUP_SAMPLES`` in all.  Times are
medians over those processes, at the reference speed of ``speed.Probe``.

``--trace 1``: one untraced pass, then one pass with spans installed around
halfext's public functions (see ``tracing.py``); reports the per-layer
metrics and the tracing overhead, the difference of the two passes' ``run_s``.

The last line of standard output is the result, as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, digits

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1            # the same on every commit, and <= nproc
SETUP_SAMPLES = 3
# a pass of each workload's tasks, in seconds at the probe's reference speed;
# a run makes one pass per PASS_S of --seconds, and at least one
PASS_S = {"el-solve": 13.0, "kernel-build": 18.0, "cli-suite": 14.5}
DEADLINE_S = 170.0          # a run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, scratch: str, deadline: float,
          spans: str | None = None) -> dict:
    """Run one worker process to completion; return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scratch", scratch]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise WorkerFailed(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{mode} worker printed no result:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, scratch: str,
            deadline: float) -> tuple[list, list]:
    """One fresh pass process per PASS_S of ``seconds``, plus set-up-only processes."""
    passes = [spawn(workload, seed, "pass", tempfile.mkdtemp(dir=scratch),
                    deadline)
              for _ in range(max(1, round(seconds / PASS_S[workload])))]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup",
                            tempfile.mkdtemp(dir=scratch), deadline)["setup_s"])
    return passes, setups


def closed_form_digits(records: list, family: str) -> float:
    """Digits of the workload's worst error against the family's closed form."""
    errs = [r["values"][f"err_{family}"] for r in records
            if f"err_{family}" in r["values"]]
    return digits(max(errs)) if errs else 0.0


def end_to_end(passes: list, setups: list) -> dict:
    records = [r for p in passes for r in p["records"]]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "pass_ratio": sum(r["ok"] for r in records) / len(records),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "digits_conformal": closed_form_digits(records, "conformal"),
        "digits_dual": closed_form_digits(records, "dual"),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/ (path and bytes of every file), for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        **versions,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "halfext" / "__init__.py").is_file():
        print(f"error: no halfext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    try:
        if args.trace:
            base = spawn(args.workload, args.seed, "pass",
                         tempfile.mkdtemp(dir=scratch), deadline)
            traced = spawn(args.workload, args.seed, "traced",
                           tempfile.mkdtemp(dir=scratch), deadline,
                           spans=str(out_dir / f"spans-{args.workload}.npz"))
            passes = [base, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["run_s"] - base["run_s"]
            metrics["trace.overhead_ratio"] = traced["run_s"] / base["run_s"] - 1.0
        else:
            passes, setups = measure(args.workload, args.seed, args.seconds,
                                     scratch, deadline)
            metrics = end_to_end(passes, setups)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    records = [r for p in passes for r in p["records"]]
    if set(metrics) != set(units):
        print(f"error: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    report = {"workload": args.workload, "trace": args.trace,
              "passes": len(passes),
              "provenance": provenance(args.seed, passes[0]["versions"]),
              "tasks": records, "result": result}
    (out_dir / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    for r in records:
        status = "ok" if r["ok"] else ("WRONG" if r["wrong"] else "FAIL")
        detail = r["error"] or ", ".join(r["missed"])
        print(f"{r['name']:<34} {status:<5} {r['wall_s']:8.3f} s  {detail}")
    print(f"fail_ratio {result['failed']}/{result['attempted']}")
    print("wall clock: setup " + " ".join(f"{p['setup_wall_s']:.3f}" for p in passes)
          + " s, run " + " ".join(f"{p['run_wall_s']:.3f}" for p in passes) + " s")
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": report["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
