#!/usr/bin/env python3
"""Reproduce the sharp constants and derived fixtures from scratch.

Runs the ascent estimate at both closed-form exponents (and at p = 2, where
no closed form exists), solves the Euler-Lagrange system for both families,
and rewrites fixtures/derived_constants.csv.  Results land under
results/constants/.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from halfext.cli import main  # noqa: E402

RUNS = [
    ["run", "estimate-constant", "--n", "3", "--p", "4.0", "--trials", "6",
     "--seed", "1", "--write-fixtures", "--out", "results/constants/conformal"],
    ["run", "estimate-constant", "--n", "3", "--p", "1.3333333333333333",
     "--trials", "4", "--seed", "1", "--write-fixtures",
     "--out", "results/constants/dual"],
    ["run", "estimate-constant", "--n", "3", "--p", "2.0", "--trials", "4",
     "--seed", "1", "--write-fixtures", "--out", "results/constants/p2"],
    ["run", "solve-el", "--n", "3", "--p", "4.0", "--init", "gaussian",
     "--write-fixtures", "--out", "results/constants/el-conformal"],
    ["run", "solve-el", "--n", "3", "--p", "1.3333333333333333",
     "--init", "bump", "--write-fixtures",
     "--out", "results/constants/el-dual"],
]

if __name__ == "__main__":
    status = 0
    for args in RUNS:
        print("$ halfext", " ".join(args))
        status |= main(args)
    sys.exit(status)
