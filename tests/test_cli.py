import json
from collections import Counter

import numpy as np
import pytest

from groupsynch import bounds, ldlr
from groupsynch.cli import main
from groupsynch.ldlr import (ldlr_bruteforce_signals, ldlr_exact_multinomial,
                             ldlr_from_md, ldlr_montecarlo_overlap)
from groupsynch.models import Model


def test_help_listing(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("simulate", "sample-ensemble", "ldlr", "detect", "power",
                "md-count", "bounds", "suite", "phase-diagram"):
        assert cmd in out


def test_sample_ensemble_roundtrip(tmp_path):
    out = tmp_path / "w.json"
    assert main(["sample-ensemble", "--kind", "GUE", "--n", "6",
                 "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    w = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    assert w.shape == (6, 6)
    assert np.abs(w - w.conj().T).max() == 0


def test_simulate_and_detect(tmp_path):
    obs_path = tmp_path / "obs.json"
    assert main(["simulate", "--model", "circle", "--L", "1", "--n", "200",
                 "--lambda", "2.5", "--seed", "4", "--out", str(obs_path)]) == 0
    out = tmp_path / "verdict.json"
    assert main(["detect", "--in", str(obs_path), "--alpha", "0.05",
                 "--calib-trials", "50", "--seed", "1", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["label"] == "p"
    assert verdict["per_frequency"][0] > 2.5


@pytest.mark.parametrize("group", ["quaternion8", "dihedral(3)"])
def test_simulate_and_detect_group(tmp_path, group):
    obs_path = tmp_path / "obs.json"
    assert main(["simulate", "--model", "group", "--group", group, "--n", "30",
                 "--lambda", "3.0", "--seed", "4", "--out", str(obs_path)]) == 0
    out = tmp_path / "verdict.json"
    assert main(["detect", "--in", str(obs_path), "--calib-trials", "50",
                 "--seed", "1", "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())
    assert verdict["label"] == "p"
    assert len(verdict["per_frequency"]) == len(json.loads(obs_path.read_text())["freqs"])


@pytest.mark.parametrize("model", ["indicator->dihedral(3)", "group(klein4)",
                                   "circle(L=0)", "cyclic"])
def test_detect_rejects_unrebuildable_models(tmp_path, capsys, model):
    obs_path = tmp_path / "obs.json"
    assert main(["simulate", "--model", "cyclic", "--L", "3", "--n", "6",
                 "--out", str(obs_path)]) == 0
    data = json.loads(obs_path.read_text())
    data["model"] = model
    obs_path.write_text(json.dumps(data))
    assert main(["detect", "--in", str(obs_path), "--calib-trials", "50"]) == 2
    assert "cannot rebuild a null model" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ("{not json", "is not JSON"),
    ('{"model": "cyclic(L=3)", "n": 6}', "observation has no 'freqs'"),
    ('{"model": "cyclic(L=3)", "n": 6, "freqs": 3}', "malformed observation"),
    ('{"model": 3, "n": 6, "freqs": []}', "'model' must be a string"),
    ('{"model": "cyclic(L=3)", "n": 4.0, "freqs": []}', "'n' must be an integer >= 1"),
    ('{"model": "cyclic(L=3)", "n": 3, "freqs": [{"label": "k=1", "snr": 1.0, "dim": 1, '
     '"type": "complex", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}',
     "channel 'k=1' is (2, 2), not the 3 x 3"),
    ('{"model": "cyclic(L=3)", "n": 1, "freqs": [{"label": "k=1", "snr": 1.0, "dim": true, '
     '"type": "complex", "matrix": [[[1, 0]]]}]}', "'dim' must be an integer >= 1"),
])
def test_detect_refuses_unreadable_observations(tmp_path, capsys, content, message):
    obs_path = tmp_path / "obs.json"
    if content is not None:
        obs_path.write_text(content)
    assert main(["detect", "--in", str(obs_path), "--calib-trials", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: in: ") and message in err


def test_simulate_group_model(tmp_path):
    obs_path = tmp_path / "obs.json"
    assert main(["simulate", "--model", "group", "--group", "dihedral(3)",
                 "--n", "5", "--lambda", "0.5", "--seed", "2",
                 "--out", str(obs_path)]) == 0
    data = json.loads(obs_path.read_text())
    assert [f["type"] for f in data["freqs"]] == ["real", "real"]
    assert len(data["freqs"][1]["matrix"]) == 10


def test_ldlr_cli_matches_library(tmp_path):
    out = tmp_path / "ldlr.json"
    csv_out = tmp_path / "terms.csv"
    routes = {
        "exact": ldlr_exact_multinomial(3, 8, 0.7, 3),
        "brute": ldlr_bruteforce_signals(3, 8, 0.7, 3, exact=False),
        "md": ldlr_from_md("cyclic", 3, 8, 0.7, 3),
        "mc": ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=0.7), 8, 3, 3000, seed=5),
    }
    for method, rep in routes.items():
        assert main(["ldlr", "--method", method, "--L", "3", "--n", "8",
                     "--lambda", "0.7", "--D", "3", "--samples", "3000", "--seed", "5",
                     "--out", str(out), "--csv", str(csv_out)]) == 0
        data = json.loads(out.read_text())
        assert data["method"] == rep.method
        assert data["params"]["statistic"] == rep.params["statistic"]
        assert data["terms"] == [float(t) for t in rep.terms]
        assert data["cumulative"] == float(rep.cumulative)
        assert data.get("stderr") == (None if rep.stderr is None else list(rep.stderr))
        assert csv_out.read_text().splitlines()[0] == "d,term"


def test_md_count_cli(tmp_path, capsys):
    assert main(["md-count", "--prior", "circle", "--L", "2", "--n", "3",
                 "--D", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"] == [1, 6, 48]


def test_md_count_cli_budget_caps_the_walk_transitions(monkeypatch, capsys):
    # the walk to degree 3 at cyclic L=2, n=3 takes 44 transitions (test_ldlr
    # derives the count from the partial sums)
    argv = ["md-count", "--prior", "cyclic", "--L", "2", "--n", "3", "--D", "3"]
    monkeypatch.setattr(ldlr, "MD_BUDGET", 44)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == ldlr._md_counts(
        "cyclic", 2, 3, 3, ldlr.MD_BUDGET)
    layers = []
    monkeypatch.setattr(ldlr, "Counter", lambda: layers.append(1) or Counter())
    monkeypatch.setattr(ldlr, "MD_BUDGET", 43)
    assert main(argv) == 1
    assert "at least 44 walk transitions, past the budget of 43" in capsys.readouterr().err
    assert len(layers) == 2     # the top layer is never built


def test_bounds_cli(capsys):
    assert main(["bounds", "--which", "clt", "--n", "100", "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "holds=True" in out


def test_bounds_cli_overflow_is_an_error_line(capsys):
    # E s^d at n=1000 leaves the float range well before d=110
    assert main(["bounds", "--which", "l3", "--n", "1000", "--dmax", "110"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err


def test_suite_cli_exit_code(tmp_path):
    code = main(["suite", "--kind", "equivalence-suite", "--seed", "3",
                 "--csv", str(tmp_path / "eq.csv")])
    assert code == 0
    assert (tmp_path / "eq.csv").exists()


def test_suite_from_config_file(tmp_path):
    cfg = {"kind": "ldlr-sweep", "seed": 9,
           "params": {"L_grid": [2], "n_grid": [5], "snr_grid": [0.4],
                      "methods": ["exact"]},
           "out": {"csv": str(tmp_path / "sweep.csv")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["suite", "--config", str(path)]) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "ldlr-sweep", "seed": 1,
                                "params": {"L_grid": []}}))
    assert main(["suite", "--config", str(path)]) == 2


@pytest.mark.parametrize("kind, params, field", [
    ("ldlr-sweep", {"methods": ["exact", "mc"], "mc_samples": 50}, "params.mc_samples"),
    ("ldlr-sweep", {"D": -1}, "params.D"),
    ("bound-suite", {"clt_alpha": [1, 11]}, "params.clt_alpha"),
])
def test_bad_scalars_and_clt_grids_exit_2_before_any_row(tmp_path, monkeypatch, capsys, kind,
                                                          params, field):
    def ran(*args, **kwargs):
        raise AssertionError("a row was computed before the refusal")
    monkeypatch.setattr(ldlr, "ldlr_exact_multinomial", ran)
    monkeypatch.setattr(bounds, "_clt_checks", ran)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": kind, "seed": 1, "params": params}))
    assert main(["suite", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("content", [None, "{not json"])
def test_suite_config_file_missing_or_not_json_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    assert main(["suite", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config: ")


_POWER = ["power", "--model", "circle", "--n", "20", "--trials", "2"]


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--out", "x.csv", "--lambda-grid", "0.6:1.2:0"],
    [*_POWER, "--lambda-grid", "1:2:0"],
    [*_POWER, "--lambda-grid", "1:2:-0.5"],
    ["phase-diagram", "--out", "x.csv", "--lambda-grid", "a,b"],
    [*_POWER, "--lambda-grid", "a,b"],
    [*_POWER, "--lambda-grid", "1:2"],
    ["phase-diagram", "--out", "x.csv", "--L-grid", "3,x"],
    ["phase-diagram", "--out", "x.csv", "--lambda-grid", "1:0.5:0.1"],
    [*_POWER, "--lambda-grid", "1:0.5:0.1"],
])
def test_bad_grids_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = next(a for a in argv if a.endswith("-grid"))
    assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_phase_diagram_cli(tmp_path):
    out = tmp_path / "phase.csv"
    assert main(["phase-diagram", "--L-grid", "3,11", "--lambda-grid", "0.9",
                 "--n", "10", "--out", str(out)]) == 0
    lines = out.read_bytes().decode().strip().split("\r\n")
    assert len(lines) == 3  # header + 2 rows
    header = lines[0].split(",")
    row11 = dict(zip(header, lines[2].split(",")))
    assert float(row11["stat_upper"]) < 1.0


def test_suite_kind_phase_diagram_matches_its_command(tmp_path):
    via_suite, via_command = tmp_path / "suite.csv", tmp_path / "command.csv"
    assert main(["suite", "--kind", "phase-diagram", "--seed", "1",
                 "--csv", str(via_suite)]) == 0
    assert main(["phase-diagram", "--seed", "1", "--out", str(via_command)]) == 0
    assert via_suite.read_bytes() == via_command.read_bytes()


def test_ldlr_cli_reads_no_budget_from_the_environment(monkeypatch):
    # single calls run at the library's default budgets; a suite config lifts them
    monkeypatch.setenv("GROUPSYNCH_BUDGET", "10")
    assert main(["ldlr", "--method", "exact", "--L", "3", "--n", "50",
                 "--lambda", "0.5", "--D", "2"]) == 0


def test_ldlr_cli_rejects_circle_for_count_routes():
    assert main(["ldlr", "--method", "exact", "--prior", "circle", "--L", "2",
                 "--n", "4", "--lambda", "0.5", "--D", "2"]) == 2


@pytest.mark.parametrize("argv, field, route", [
    (["--method", "md", "--statistic", "pearson"], "statistic", "_md_counts"),
    (["--method", "md", "--prior", "circle", "--statistic", "pearson"], "statistic",
     "_md_counts"),
    (["--method", "mc", "--statistic", "all_frequencies"], "statistic", "sample_overlaps"),
    (["--method", "mc", "--prior", "circle", "--statistic", "pearson"], "statistic",
     "sample_overlaps"),
    (["--method", "mc", "--rational"], "rational", "sample_overlaps"),
    (["--method", "exact", "--statistic", "chi2"], "statistic", "ldlr_exact_multinomial"),
])
def test_ldlr_cli_refuses_what_the_route_does_not_compute(monkeypatch, capsys, argv, field,
                                                          route):
    def ran(*args, **kwargs):
        raise AssertionError("the route ran before the refusal")
    monkeypatch.setattr(ldlr, route, ran)
    assert main(["ldlr", "--L", "3", "--n", "6", "--lambda", "0.7", "--D", "2", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
