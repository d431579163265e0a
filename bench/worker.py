"""One workload repetition in a fresh process; prints one JSON line.

Run by ``run.py``, never by hand:

    python3 bench/worker.py --workload W --seed S --mode {setup,pass,traced}
        --spawned-at T --scratch DIR [--spans FILE]

``setup_s`` runs from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it started this process; the clock is system-wide) until the
workload is ready to time: ``halfext`` imported from the checkout's ``src/``,
inputs drawn, grids built and, for el-solve, operators warm.  ``setup`` mode
stops there; ``pass`` runs the tasks once; ``traced`` installs the spans
before set-up and writes them to ``--spans`` at the end.

``setup_s`` and ``run_s`` are at the reference speed of ``speed.Probe``;
``setup_wall_s`` and ``run_wall_s`` are the same intervals on the wall clock.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

import speed

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _import_halfext():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import halfext
    import halfext.cli  # noqa: F401  (the CLI module is spanned as well)
    if not pathlib.Path(halfext.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"halfext imported from {halfext.__file__}, not {src}")


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"),
                        required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    probe = speed.Probe()
    probe.start()

    _import_halfext()
    import tracing
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        with tracer.span("setup"):
            tasks = workloads.SETUP[args.workload](args.seed, args.scratch)
    else:
        tasks = workloads.SETUP[args.workload](args.seed, args.scratch)
    ready = time.monotonic()
    result = {"setup_s": probe.scaled(args.spawned_at, ready),
              "setup_wall_s": ready - args.spawned_at}
    if args.mode != "setup":
        records = workloads.run_tasks(tasks, tracer)
        result.update(
            run_s=sum(probe.scaled(r["t0"], r["t1"]) for r in records),
            run_wall_s=records[-1]["t1"] - records[0]["t0"],
            records=records)
    probe.stop()
    if tracer is not None:
        result["layers"] = tracing.layer_values(tracer, records)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
