import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from halfext.cli import (CLOSED_FORM_RTOL, CONFORMAL_GRID_FLOOR,
                         IDENTITIES_GRID_FLOOR, WEAK_N2_GRID_FLOOR,
                         ExperimentConfig, _build_parser,
                         _dual_superlevel_closed_form, main)
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
    # |P_t|_p by the library's quadrature against the Beta closed form, in
    # and away from the default dimension
    want = [f"pt_lp_norm[p={p},t={t}]"
            for p in ("1", "1.1", "1.25", "1.5", "2", "3")
            for t in ("0.25", "1", "4")]
    for n in (2, 3, 4, 5):
        out = tmp_path / f"vk{n}"
        assert run_cli(["run", "verify-kernel", "--n", str(n),
                        "--out", str(out)]) == 0
        summary = load_summary(out)
        assert summary["pass"] is True
        rows = summary["checks"]
        assert [row["name"] for row in rows] == want
        for row in rows:
            assert abs(row["value"] - row["target"]) <= 1e-8 * row["target"]
        # p = 1: the closed form is the unit mass
        assert rows[want.index("pt_lp_norm[p=1,t=1]")]["target"] == \
            pytest.approx(1.0, rel=1e-14)
        assert summary["config"]["n"] == n
        assert "timestamp" in summary["meta"]


DEFAULT_ROWS = {
    "verify-identities": [
        "conformal_extension_identity", "dual_extension_identity",
        *(f"slab_mass[{profile},a={a}]" for profile in ("cauchy", "gauss",
                                                        "bump")
          for a in ("0.3", "0.7", "2.0")),
        "duality_pairing"],
    "weak-type-sweep": ["superlevel_mass_vs_closed_form",
                        "weak_norm_vs_closed_form"],
    "estimate-constant": ["c_estimate_vs_closed_form"],
    "solve-el": ["converged", "family_match_error",
                 "family_constant_vs_closed_form", "rayleigh_vs_closed_form"],
    "rearrange-demo": ["translate_rearrangement", "translate_gain",
                       "two_bump_gain_positive"],
    "classify-radial": [
        row for kind, p in (("conformal", "3"), ("dual", "2"))
        for row in (f"amplitude_vs_closed_form[{kind}]",
                    f"el_residual[{kind}]", f"el_residual[{kind},p={p}]")],
    "conformal-invariance": [
        *(f"{side}[p={p}]" for p in ("3.6", "4", "4.4")
          for side in ("norm", "inverted_norm")),
        "halfspace_norm_preserved"],
}


@pytest.mark.parametrize("name", DEFAULT_ROWS)
def test_default_experiment_passes(tmp_path, name):
    # default flags, as scripts/run_all_experiments.py runs them (p = 4, the
    # conformal exponent): every row with a numeric target is an oracle, met
    # within its tolerance
    out = tmp_path / name
    assert run_cli(["run", name, "--out", str(out)]) == 0
    summary = load_summary(out)
    assert summary["pass"] is True
    assert [row["name"] for row in summary["checks"]] == DEFAULT_ROWS[name]
    for row in summary["checks"]:
        if not isinstance(row["target"], str):
            assert abs(row["value"] - row["target"]) <= row["tol"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dual_superlevel_closed_form_against_mpmath(n):
    # the measure of {(1+t)/|x+e_n|^n > s} by mpmath's quadrature in 30
    # digits, with the disc radius clamped at 0 past its root
    mp = pytest.importorskip("mpmath")
    levels = [1e-2, 0.1, 0.5, 0.9]
    got = _dual_superlevel_closed_form(n, levels)
    with mp.workdps(30):
        area = 2 * mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n - 1) / 2)
        for s, value in zip(map(mp.mpf, levels), got):
            T = s ** (-mp.mpf(1) / (n - 1)) - 1
            integral = mp.quad(lambda t: max(
                ((1 + t) / s) ** (mp.mpf(2) / n) - (1 + t) ** 2, 0)
                ** (mp.mpf(n - 1) / 2), [0, T])
            assert value == pytest.approx(float(area * integral / (n - 1)),
                                          rel=1e-10)


def test_unknown_experiment_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "not-an-experiment"])
    assert exc.value.code == 2


def test_run_flags_are_the_config_fields():
    # the flags are the only input: one per ExperimentConfig field, no other
    run = _build_parser()._subparsers._group_actions[0].choices["run"]
    dests = {a.dest for a in run._actions}
    assert dests == {f.name for f in fields(ExperimentConfig)} | {"help"}
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "verify-kernel", "--config", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("experiment, flags", [
    ("verify-kernel", ["--grid-n", "8"]), ("verify-kernel", ["--p", "0.5"]),
    ("verify-kernel", ["--p", "inf"]), ("verify-kernel", ["--n", "1"]),
    ("verify-kernel", ["--trials", "0"]),
    ("verify-kernel", ["--max-iters", "0"]),
    ("verify-kernel", ["--tol-residual", "0"]),
    # a misspelt init, which every experiment rejects (not only solve-el,
    # the one that reads it)
    ("verify-kernel", ["--init", "gausian"]),
    ("solve-el", ["--init", "gausian"]),
    # scripted on R^3_+ only
    ("verify-identities", ["--n", "4"]), ("rearrange-demo", ["--n", "5"]),
    ("classify-radial", ["--n", "4"])],
    ids=["grid-n", "p", "p-inf", "n", "trials", "max-iters", "tol-residual",
         "init-verify-kernel", "init-solve-el", "n4-verify-identities",
         "n5-rearrange-demo", "n4-classify-radial"])
def test_invalid_config_usage_error(tmp_path, capsys, experiment, flags):
    # values the config rejects are usage errors: exit 2, a one-line
    # message, and no summary written
    out = tmp_path / "bad"
    assert run_cli(["run", experiment, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("grid_n, code", [
    (48, 2), (CONFORMAL_GRID_FLOOR - 1, 2), (CONFORMAL_GRID_FLOOR, 0)])
def test_conformal_invariance_grid_floor(tmp_path, capsys, grid_n, code):
    # below the floor the mesh misses halfspace_norm_preserved's absolute
    # 1e-6 gate (-1.6e-6 at 48, -1.05e-6 at 53): a usage error that names
    # why, with nothing written; at the floor the run passes (-9.6e-7)
    out = tmp_path / "ci"
    assert run_cli(["run", "conformal-invariance", "--grid-n", str(grid_n),
                    "--out", str(out)]) == code
    if code == 2:
        assert "coarser mesh misses" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert load_summary(out)["pass"] is True


@pytest.mark.parametrize("grid_n, code", [
    (48, 2), (IDENTITIES_GRID_FLOOR - 1, 2), (IDENTITIES_GRID_FLOOR, 0)])
def test_verify_identities_grid_floor(tmp_path, capsys, grid_n, code):
    # every mesh from 16 to 61 fails (seeds 0-3), the last on the
    # seed-independent duality_pairing (relative 1.05e-6 at 61 against
    # 1e-6), and every mesh from 62 to 400 passes: below the floor the run
    # is a usage error that names the gate, with nothing written
    out = tmp_path / "vi"
    assert run_cli(["run", "verify-identities", "--grid-n", str(grid_n),
                    "--out", str(out)]) == code
    if code == 2:
        assert "duality_pairing" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert load_summary(out)["pass"] is True


@pytest.mark.parametrize("grid_n, code", [
    (160, 2), (WEAK_N2_GRID_FLOOR - 1, 2), (WEAK_N2_GRID_FLOOR, 0)])
def test_weak_type_sweep_n2_grid_floor(tmp_path, capsys, grid_n, code):
    # at n=2 the superlevel mass error is not monotone in N (0.060 at 160,
    # 0.042 at 208, 0.052 at 256 against 5e-2); every mesh from the floor
    # to 400 passes (at most 0.046), so below it the run is a usage error
    # that names why, with nothing written
    out = tmp_path / "wt2"
    assert run_cli(["run", "weak-type-sweep", "--n", "2", "--grid-n",
                    str(grid_n), "--out", str(out)]) == code
    if code == 2:
        assert "superlevel masses" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert load_summary(out)["pass"] is True


def test_numerical_failure_exit_code(tmp_path):
    # p = 1.1 outruns the 48-node mesh: every ascent trial diverges
    out = tmp_path / "fail"
    assert run_cli(["run", "estimate-constant", "--p", "1.1", "--trials", "1",
                    "--grid-n", "48", "--out", str(out)]) == 1
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
    # operator is built, and the Euler-Lagrange sides (one read of the
    # stack by the dual each) are evaluated once per trace row and never
    # after the loop
    from halfext import extension
    heights = _operator_heights(monkeypatch)
    calls = []
    dual = extension.PoissonOperator.dual

    def counted(op, u):
        calls.append(u)
        return dual(op, u)

    monkeypatch.setattr(extension.PoissonOperator, "dual", counted)
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


@pytest.mark.parametrize("init", ["gaussian", "bump"])
def test_solve_el_gates_follow_tol_residual(tmp_path, init):
    # a looser solve converges and fits its family to a few tol_residual
    # (misfit 1.5e-3 and 1.8e-3 here), so its gates are 20 tol_residual
    out = tmp_path / "dual"
    assert run_cli(["run", "solve-el", "--p", "1.3333333333333333",
                    "--tol-residual", "2e-4", "--init", init,
                    "--out", str(out)]) == 0
    rows = {row["name"]: row for row in load_summary(out)["checks"]}
    assert rows["family_match_error"]["target"] == "<= 0.004"
    assert rows["family_match_error"]["value"] > 1e-3
    amplitude = rows["family_constant_vs_closed_form"]
    assert amplitude["target"] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)
    assert amplitude["tol"] == pytest.approx(4e-3 * amplitude["target"])


@pytest.mark.parametrize("p", ["3.0", "4.0", "1.3333333333333333"])
def test_solve_el_classifies_its_solution(tmp_path, p):
    # the solutions are bubbles only at the closed-form exponents: at p = 4
    # the conformal family fits and the dual does not, at p = 4/3 the dual
    # fits and the conformal does not, at p = 3 neither does
    out = tmp_path / "el"
    assert run_cli(["run", "solve-el", "--p", p, "--out", str(out)]) == 0
    results = load_summary(out)["results"]
    family = {"4.0": "conformal", "1.3333333333333333": "dual"}.get(p)
    for kind in ("conformal", "dual"):
        if kind == family:
            assert results[f"misfit_{kind}"] <= 1e-3
        else:
            assert results[f"misfit_{kind}"] >= 0.1
    if family == "dual":
        # the conformal fit lands on the bracket's lower edge, so its misfit
        # is an upper bound; the dual fit is interior
        assert results["lambda_conformal"] == pytest.approx(np.exp(-3.0),
                                                            rel=1e-9)
        assert abs(np.log(results["lambda_dual"])) < 3.0 - 1e-2


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
    from halfext.extremals import sharp_constant
    try:
        c4 = read_fixture("c[n=3,p=4]")
    except FileNotFoundError:
        pytest.skip("fixtures not generated")
    c_conf, c_dual = sharp_constant(3, "conformal"), sharp_constant(3, "dual")
    assert c4 == pytest.approx(c_conf, rel=CLOSED_FORM_RTOL)
    cd = read_fixture("c[n=3,p=1.333333333]")
    assert cd == pytest.approx(c_dual, rel=1e-6)
    # Riesz-Thorin: log c is convex in 1/p and c = 1 at p = inf, so 1/p = 1/2
    # bounds c2 by the chords from 1/p = 0 through 1/4 and from 1/4 to 3/4
    c2 = read_fixture("c[n=3,p=2]")
    assert c2 is not None and c_conf ** 2 <= c2 <= math.sqrt(c_conf * c_dual)
    assert read_fixture("el_family_constant[conformal,n=3]") == \
        pytest.approx(math.sqrt(6.0), rel=1e-3)
    assert read_fixture("el_family_constant[dual,n=3]") == \
        pytest.approx(2.0 * math.sqrt(2.0), rel=1e-3)
