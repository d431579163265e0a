#!/usr/bin/env python3
"""Reproduce the sharp constants and derived fixtures from scratch.

Runs the ascent estimate at both closed-form exponents (and at p = 2, where
no closed form exists) and solves the Euler-Lagrange system for both
families; results land under results/constants/.  When every run passes,
derived_constants.csv is rewritten whole from the runs' summary.json files,
in the directory named by the environment variable HALFEXT_FIXTURES
(default ./fixtures).
"""

import csv
import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from halfext.cli import main  # noqa: E402

OUT = "results/constants"
RUNS = {
    "conformal": ["estimate-constant", "--n", "3", "--p", "4.0",
                  "--trials", "6", "--seed", "1"],
    "dual": ["estimate-constant", "--n", "3", "--p", "1.3333333333333333",
             "--trials", "4", "--seed", "1"],
    "p2": ["estimate-constant", "--n", "3", "--p", "2.0", "--trials", "4",
           "--seed", "1"],
    "el-conformal": ["solve-el", "--n", "3", "--p", "4.0",
                     "--init", "gaussian"],
    "el-dual": ["solve-el", "--n", "3", "--p", "1.3333333333333333",
                "--init", "bump"],
}


def fixture_row(summary: dict) -> list:
    """[key, value, grid_n] of the constant a run derived; the half-space
    mesh is default_halfspace_grid's for that grid_n."""
    cfg, results = summary["config"], summary["results"]
    if summary["experiment"] == "estimate-constant":
        key = f"c[n={cfg['n']},p={cfg['p']:.10g}]"
        value = results["c_estimate"]
    else:
        key = f"el_family_constant[{results['family']},n={cfg['n']}]"
        value = results["family_constant"]
    return [key, repr(float(value)), cfg["grid_n"]]


if __name__ == "__main__":
    status = 0
    for name, flags in RUNS.items():
        args = ["run", *flags, "--out", f"{OUT}/{name}"]
        print("$ halfext", " ".join(args))
        status |= main(args)
    if status:
        sys.exit(status)
    rows = []
    for name in RUNS:
        with open(f"{OUT}/{name}/summary.json") as fh:
            rows.append(fixture_row(json.load(fh)))
    fixtures = os.environ.get("HALFEXT_FIXTURES", "fixtures")
    os.makedirs(fixtures, exist_ok=True)
    with open(os.path.join(fixtures, "derived_constants.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value", "grid_n"])
        writer.writerows(sorted(rows))
