import csv
import json
import os

import numpy as np
import pytest

from halfext.cli import ExperimentConfig, main
from halfext.grids import build_radial_grid, default_halfspace_grid


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


@pytest.mark.parametrize("name", [
    "verify-identities", "estimate-constant", "rearrange-demo",
    "conformal-invariance"])
def test_default_experiment_passes(tmp_path, name):
    # default flags, as scripts/run_all_experiments.py runs them
    out = tmp_path / name
    assert run_cli(["run", name, "--out", str(out)]) == 0
    assert load_summary(out)["pass"] is True


def test_unknown_experiment_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "not-an-experiment"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--grid-n", "8"], ["--p", "0.5"], ["--p", "inf"], ["--n", "1"],
    ["--trials", "0"], ["--max-iters", "0"], ["--tol-residual", "0"]],
    ids=["grid-n", "p", "p-inf", "n", "trials", "max-iters", "tol-residual"])
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
    # n = 2 has no closed-form family: its conformal start is a constant,
    # outside every L^p, so a usage error with nothing written; its dual
    # start is a Cauchy profile, in every L^p
    out = tmp_path / "n2"
    assert run_cli(["run", "solve-el", "--n", "2", "--init", "conformal",
                    "--grid-n", "32", "--out", str(out)]) == 2
    assert "outside L^" in capsys.readouterr().err
    assert not out.exists()
    ExperimentConfig("solve-el", n=2, p=1.01, init="dual").validate()


@pytest.mark.parametrize("n, p", [(3, "1.3333333333333333"), (4, "1.5")])
def test_solve_el_extremal_start_must_be_in_lp(tmp_path, capsys, n, p):
    # the conformal extremal's tail r^-(n-2) is not in L^p at the dual
    # exponent for n <= 4: rejected before any work
    out = tmp_path / "dual"
    assert run_cli(["run", "solve-el", "--n", str(n), "--p", p,
                    "--init", "conformal", "--out", str(out)]) == 2
    assert "outside L^" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_solve_el_extremal_start_conformal_exponent(tmp_path):
    # from the dual extremal, which is in L^4, to the conformal family
    out = tmp_path / "conf"
    assert run_cli(["run", "solve-el", "--n", "3", "--p", "4.0",
                    "--init", "dual", "--grid-n", "96",
                    "--tol-residual", "2e-4", "--out", str(out)]) == 0
    results = load_summary(out)["results"]
    assert results["family"] == "conformal"
    assert results["family_match_error"] <= 1e-3


def test_init_is_the_start_profile_menu(tmp_path, capsys):
    # --init takes start_profile's kinds only; the error comes from there
    out = tmp_path / "init"
    assert run_cli(["run", "solve-el", "--init", "extremal",
                    "--out", str(out)]) == 2
    assert "unknown start profile 'extremal'" in capsys.readouterr().err
    assert not out.exists()


def _operator_heights(monkeypatch):
    """Clear the operator cache; return the list that collects the height
    mesh of every operator built from then on."""
    from halfext import extension
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    heights = []
    build = extension._matrix_stack

    def recorded(n, grid, hs_heights):
        heights.append(hs_heights)
        return build(n, grid, hs_heights)

    monkeypatch.setattr(extension, "_matrix_stack", recorded)
    return heights


def test_solve_el_uses_the_library_height_mesh(tmp_path, monkeypatch):
    # the CLI's half-space mesh is default_halfspace_grid's, 48 heights at
    # --grid-n 64: the one height rule, shared with the benchmark
    heights = _operator_heights(monkeypatch)
    run_cli(["run", "solve-el", "--grid-n", "64", "--max-iters", "3",
             "--out", str(tmp_path / "el")])
    want = default_halfspace_grid(build_radial_grid(2, 64)).heights.nodes
    assert want.size == 48 and heights
    assert all(np.array_equal(h.nodes, want) for h in heights)


def test_solve_el_calibrates_on_the_solve_mesh(tmp_path, monkeypatch):
    # the solve returns its solution calibrated on its own operator: one
    # operator is built, and the Euler-Lagrange sides (one dual extension
    # each) are evaluated once per trace row and never after the loop
    from halfext import extremals
    heights = _operator_heights(monkeypatch)
    calls = []
    dual = extremals.dual_extend

    def counted(u):
        calls.append(u)
        return dual(u)

    monkeypatch.setattr(extremals, "dual_extend", counted)
    out = tmp_path / "el"
    run_cli(["run", "solve-el", "--grid-n", "64", "--max-iters", "3",
             "--out", str(out)])
    assert [h.size for h in heights] == [48]
    with open(out / "trace.csv") as fh:
        assert len(calls) == len(fh.readlines()) - 1 == 3
    assert "amplitude" not in load_summary(out)["results"]


def test_summary_meta_reports_operator_cache(tmp_path, monkeypatch):
    # meta counts one run's operator traffic; a second run of the same
    # experiment in the process finds its operator cached
    from halfext import extension
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    caches = []
    for name in ("first", "second"):
        assert run_cli(["run", "solve-el", "--grid-n", "64", "--max-iters",
                        "3", "--out", str(tmp_path / name)]) in (0, 1)
        caches.append(load_summary(tmp_path / name)["meta"]["operator_cache"])
    first, second = caches
    assert first["builds"] == 1 and second["builds"] == 0
    # the first run's build is the second run's hit
    assert second["hits"] == first["hits"] + 1 > 1
    assert first["evictions"] == second["evictions"] == 0
    hs = default_halfspace_grid(build_radial_grid(2, 64))
    assert second["held_mb"] == extension.operator_nbytes(hs) / 2 ** 20


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": 5, "grid_n": 96}))
    out = tmp_path / "cfgout"
    assert run_cli(["run", "verify-kernel", "--config", str(cfg),
                    "--seed", "9", "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["config"]["grid_n"] == 96     # from file
    assert summary["config"]["seed"] == 9        # flag wins


@pytest.mark.parametrize("entry", [
    {"grid_n": "96"}, {"p": None}, {"tol_residual": "1e-4"}, {"seed": 1.5},
    {"grid_n": 40.5}, {"trials": True}, [], 5],
    ids=["str-int", "null", "str-float", "float-int", "fraction", "bool-int",
         "list", "number"])
def test_config_file_values_typed_like_flags(tmp_path, capsys, entry):
    # a flat object whose values have their fields' types, or exit 2, one
    # error line, and nothing written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "bad"
    assert run_cli(["run", "verify-kernel", "--config", str(cfg),
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_config_file_integer_fills_a_float_field(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 4}))
    out = tmp_path / "int"
    assert run_cli(["run", "verify-kernel", "--config", str(cfg),
                    "--out", str(out)]) == 0
    p = load_summary(out)["config"]["p"]
    assert p == 4.0 and type(p) is float


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
                  "--init", "gaussian", "--grid-n", "128",
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
                    "--out", str(out)]) == 0
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
