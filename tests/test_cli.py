import csv
import json
import os

import numpy as np
import pytest

from halfext.cli import main


def read_fixture(key):
    path = os.path.join(os.environ.get("HALFEXT_FIXTURES", "fixtures"),
                        "derived_constants.csv")
    with open(path, newline="") as fh:
        return next((float(row["value"]) for row in csv.DictReader(fh)
                     if row["key"] == key), None)


def run_cli(args):
    return main(args)


def load_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def test_verify_kernel(tmp_path):
    out = tmp_path / "vk"
    assert run_cli(["run", "verify-kernel", "--n", "3",
                    "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["pass"] is True
    names = {c["name"]: c for c in summary["checks"]}
    row = names["pt_l1_norm[t=1.0]"]
    assert abs(row["value"] - 1.0) <= 1e-8 and row["pass"]
    assert summary["config"]["n"] == 3
    assert "timestamp" in summary["meta"]


def test_unknown_experiment_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "not-an-experiment"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--grid-n", "8"], ["--p", "0.5"], ["--n", "1"], ["--trials", "0"],
    ["--max-iters", "0"], ["--tol-residual", "0"]],
    ids=["grid-n", "p", "n", "trials", "max-iters", "tol-residual"])
def test_invalid_config_usage_error(tmp_path, capsys, flags):
    # values the config rejects are usage errors: exit 2, a one-line
    # message, and no summary written
    out = tmp_path / "bad"
    assert run_cli(["run", "verify-kernel", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "summary.json").exists()


def test_numerical_failure_exit_code(tmp_path):
    # the identity script is n=3 only; other n reports a numerical failure
    out = tmp_path / "fail"
    assert run_cli(["run", "verify-identities", "--n", "4",
                    "--out", str(out)]) == 1
    summary = load_summary(out)
    assert summary["pass"] is False
    assert any(c["name"] == "numerical_failure" for c in summary["checks"])


def test_solve_el_extremal_start_needs_closed_forms(tmp_path, capsys):
    # n = 2 has no closed-form family: a usage error, and nothing written
    out = tmp_path / "n2"
    assert run_cli(["run", "solve-el", "--n", "2", "--init", "extremal",
                    "--grid-n", "32", "--height-n", "16",
                    "--out", str(out)]) == 2
    assert "n >= 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, p", [(3, "1.3333333333333333"), (4, "1.5")])
def test_solve_el_extremal_start_must_be_in_lp(tmp_path, capsys, n, p):
    # at the dual exponent the start is the conformal extremal, whose tail
    # r^-(n-2) is not in L^p for n <= 4: rejected before any work
    out = tmp_path / "dual"
    assert run_cli(["run", "solve-el", "--n", str(n), "--p", p,
                    "--init", "extremal", "--out", str(out)]) == 2
    assert "outside L^" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_solve_el_extremal_start_conformal_exponent(tmp_path):
    # at the conformal exponent the start is the dual extremal, in L^4
    out = tmp_path / "conf"
    assert run_cli(["run", "solve-el", "--n", "3", "--p", "4.0",
                    "--init", "extremal", "--grid-n", "96",
                    "--tol-residual", "2e-4", "--out", str(out)]) == 0
    results = load_summary(out)["results"]
    assert results["family"] == "conformal"
    assert results["family_match_error"] <= 1e-3


@pytest.mark.filterwarnings("ignore:Euler-Lagrange ratio varies")
def test_height_n_flag_sets_the_height_mesh(tmp_path):
    # three iterations: enough to tell the meshes apart, not to converge
    rayleigh = []
    for height_n in ("24", "40"):
        out = tmp_path / height_n
        run_cli(["run", "solve-el", "--grid-n", "48", "--height-n", height_n,
                 "--max-iters", "3", "--out", str(out)])
        rayleigh.append(load_summary(out)["results"]["rayleigh"])
    assert rayleigh[0] != rayleigh[1]


@pytest.mark.filterwarnings("ignore:Euler-Lagrange ratio varies")
def test_solve_el_calibrates_on_the_solve_mesh(tmp_path, monkeypatch):
    # --height-n 40 differs from the default max(48, 3N/5) heights: the
    # family calibration must reuse the solve's mesh, not build a second one
    from halfext import extension
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    heights = []
    build = extension._matrix_stack

    def counted(n, grid, hs_heights):
        heights.append(hs_heights.size)
        return build(n, grid, hs_heights)

    monkeypatch.setattr(extension, "_matrix_stack", counted)
    run_cli(["run", "solve-el", "--grid-n", "64", "--height-n", "40",
             "--max-iters", "3", "--out", str(tmp_path / "el")])
    assert heights and set(heights) == {40}


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": 5, "grid_n": 96}))
    out = tmp_path / "cfgout"
    assert run_cli(["run", "verify-kernel", "--config", str(cfg),
                    "--seed", "9", "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["config"]["grid_n"] == 96     # from file
    assert summary["config"]["seed"] == 9        # flag wins


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "bad"
    # a misspelt key, the removed normalization, damping, quad_order and
    # write_fixtures options, and a misspelt init, which every experiment
    # rejects (not only solve-el, the one that reads it)
    for experiment, entry in (
            ("verify-kernel", {"grid_m": 96}),
            ("verify-kernel", {"normalization": "mass_half"}),
            ("verify-kernel", {"damping": 0.5}),
            ("verify-kernel", {"quad_order": 64}),
            ("verify-kernel", {"write_fixtures": True}),
            ("verify-kernel", {"init": "gausian"}),
            ("solve-el", {"init": "gausian"})):
        cfg.write_text(json.dumps(entry))
        assert run_cli(["run", experiment, "--config", str(cfg),
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "summary.json").exists()


def test_idempotent_summary(tmp_path):
    # identical config (including the output path) reproduces the document
    # byte-for-byte outside the metadata field
    out = tmp_path / "same"
    outs = []
    for _ in range(2):
        assert run_cli(["run", "classify-radial", "--seed", "11",
                        "--out", str(out)]) == 0
        s = load_summary(out)
        s.pop("meta")
        outs.append(json.dumps(s, sort_keys=True))
    assert outs[0] == outs[1]


def test_solve_el_artifacts(tmp_path):
    out = tmp_path / "el"
    rc = run_cli(["run", "solve-el", "--n", "3", "--p", "4.0",
                  "--init", "gaussian", "--grid-n", "128", "--height-n", "80",
                  "--tol-residual", "2e-4", "--out", str(out)])
    assert rc == 0
    summary = load_summary(out)
    assert summary["results"]["family_match_error"] <= 1e-3
    # the solution's |Pf|_q, product mesh against polar rule
    assert abs(summary["results"]["norm_mesh_gap"]) <= 1e-6
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "residual", "rayleigh", "lambda"]
    assert len(rows) > 2
    with open(out / "profile.csv") as fh:
        header = fh.readline().strip()
    assert header == "r,value"


def test_solve_el_dual_exponent_converges(tmp_path):
    # the dual exponent converges from the default start with default flags
    out = tmp_path / "dual"
    assert run_cli(["run", "solve-el", "--n", "3", "--p", "1.3333333333333333",
                    "--out", str(out)]) == 0
    results = load_summary(out)["results"]
    assert results["family"] == "dual"
    assert results["family_match_error"] <= 1e-3


def test_solve_el_divergence_keeps_trace(tmp_path):
    # p = 1.1 outruns the 64-node mesh: the run fails, its trace survives
    out = tmp_path / "div"
    assert run_cli(["run", "solve-el", "--n", "3", "--p", "1.1",
                    "--grid-n", "64", "--out", str(out)]) == 1
    values = {c["name"]: c["value"] for c in load_summary(out)["checks"]}
    assert values["numerical_failure"].startswith("divergent iterate")
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "residual", "rayleigh", "lambda"]
    assert len(rows) >= 2


def test_weak_type_sweep_artifacts(tmp_path):
    out = tmp_path / "wt"
    assert run_cli(["run", "weak-type-sweep", "--n", "3", "--grid-n", "96",
                    "--height-n", "64", "--out", str(out)]) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "mass"]
    masses = [float(r[1]) for r in rows[1:]]
    assert all(np.diff(masses) <= 1e-12)


def test_shipped_fixtures_consistent():
    # the repo's derived-constants file agrees with the closed forms where
    # they exist and with the independent amplitude oracles
    import math
    from scipy.integrate import quad as _quad
    from halfext.extremals import sharp_constant
    try:
        c4 = read_fixture("c[n=3,p=4]")
    except FileNotFoundError:
        pytest.skip("fixtures not generated")
    assert c4 == pytest.approx(sharp_constant(3, "conformal"), rel=5e-3)
    cd = read_fixture("c[n=3,p=1.333333333]")
    assert cd == pytest.approx(sharp_constant(3, "dual"), rel=1e-6)
    c2 = read_fixture("c[n=3,p=2]")
    assert c2 is not None and 0.0 < c2 < sharp_constant(3, "conformal")
    J = _quad(lambda t: (4 * t + 3) / ((t + 1) ** 3 * (2 * t + 1) ** 3),
              0, np.inf)[0]
    assert read_fixture("el_family_constant[conformal,n=3]") == \
        pytest.approx(math.sqrt(3.0 / J), rel=1e-3)
    assert read_fixture("el_family_constant[dual,n=3]") == \
        pytest.approx(2.0 * math.sqrt(2.0), rel=1e-3)
