#!/usr/bin/env python3
"""Run every CLI experiment once with default settings into results/all/."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from halfext.cli import EXPERIMENTS, main  # noqa: E402

if __name__ == "__main__":
    status = 0
    for name in EXPERIMENTS:
        args = ["run", name, "--seed", "0", "--out", f"results/all/{name}"]
        print("$ halfext", " ".join(args))
        rc = main(args)
        print(f"  -> exit {rc}")
        status |= rc
    sys.exit(status)
