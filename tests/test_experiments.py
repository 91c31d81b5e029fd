import json
import math

import pytest

from groupsynch import experiments
from groupsynch.bounds import BoundCheck
from groupsynch.eigen import _blas_threads
from groupsynch.errors import (ConfigError, InvalidParameterError, NumericalOverflowError,
                               ResourceLimitError)
from groupsynch.experiments import (ExperimentConfig, run,
                                    stat_threshold_lower_bound,
                                    stat_threshold_upper_bound, write_csv)
from groupsynch.ldlr import (ldlr_bruteforce_signals, ldlr_exact_multinomial, ldlr_from_md,
                             ldlr_montecarlo_overlap)
from groupsynch.models import Model


def test_config_requires_kind_and_seed():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"seed": 1})
    assert exc.value.field == "kind"
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"kind": "oracle-suite"})
    assert exc.value.field == "seed"


def test_config_empty_grid_names_field():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"kind": "ldlr-sweep", "seed": 1,
                                    "params": {"L_grid": []}})
    assert exc.value.field == "params.L_grid"
    # grids whose names carry no _grid suffix
    for kind, key in (("bound-suite", "trec_gamma"), ("equivalence-suite", "groups"),
                      ("oracle-suite", "exact_instances"), ("ldlr-sweep", "methods")):
        for value in ([], 2):
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig.from_dict({"kind": kind, "seed": 1,
                                            "params": {key: value}})
            assert exc.value.field == f"params.{key}"


def test_config_bad_budget():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"kind": "oracle-suite", "seed": 1,
                                    "budgets": {"enumeration": -3}})
    assert exc.value.field == "budgets.enumeration"


@pytest.mark.parametrize("data, field", [
    ({"params": {"L_gird": [3]}}, "params.L_gird"),
    ({"params": {"n": 16}}, "params.n"),                  # a phase-diagram key
    ({"budgets": {"enumration": 10}}, "budgets.enumration"),
    ({"params": {"methods": ["exakt"]}}, "params.methods"),
    ({"params": {"methods": ["exact", "MC"]}}, "params.methods"),
    # the exact route counts cyclic count vectors, whatever the prior's label
    ({"params": {"prior": "circle", "methods": ["md", "exact"]}}, "params.methods"),
    ({"params": {"prior": "foo"}}, "params.prior"),
    ({"params": {"prior": "circle", "methods": ["brute"]}}, "params.methods"),
    ({"seed": True}, "seed"),          # a bool would hash apart from the integer 1
    ({"params": [2, 3]}, "params"),
    ({"budgets": 10}, "budgets"),
    ({"out": "sweep.csv"}, "out"),
    ({"kind": "power-sweep", "params": {"model": "klein4"}}, "params.model"),
    ({"kind": "power-sweep", "params": {"model": "cyclic", "L": 1}}, "params.L"),
])
def test_config_typos_name_the_field(data, field):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"kind": "ldlr-sweep", "seed": 1, **data})
    assert exc.value.field == field


@pytest.mark.parametrize("kind, params, field", [
    ("ldlr-sweep", {"methods": ["exact", "mc"], "mc_samples": 50}, "params.mc_samples"),
    ("ldlr-sweep", {"mc_samples": 2.5e4}, "params.mc_samples"),
    ("oracle-suite", {"mc_samples": 99}, "params.mc_samples"),
    ("ldlr-sweep", {"D": -1}, "params.D"),
    ("ldlr-sweep", {"D": 2.0}, "params.D"),
    ("ldlr-sweep", {"D": True}, "params.D"),
    ("oracle-suite", {"D": "3"}, "params.D"),
    ("bound-suite", {"clt_alpha": [1, 11]}, "params.clt_alpha"),
    ("bound-suite", {"clt_alpha": [math.nan]}, "params.clt_alpha"),
    ("bound-suite", {"clt_alpha": [-0.5]}, "params.clt_alpha"),
    ("bound-suite", {"clt_n": [30, 0]}, "params.clt_n"),
    ("bound-suite", {"clt_n": [10 ** 4 + 1]}, "params.clt_n"),
    ("bound-suite", {"clt_n": [30.0]}, "params.clt_n"),
    ("bound-suite", {"clt_bernoulli_p": [0.5, 1.0]}, "params.clt_bernoulli_p"),
    ("bound-suite", {"clt_bernoulli_p": [0]}, "params.clt_bernoulli_p"),
])
def test_config_scalars_and_clt_grids_name_the_field(kind, params, field):
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"kind": kind, "seed": 1, "params": params})
    assert exc.value.field == field


def test_config_accepts_the_edges_of_each_rule():
    for kind, params in (("ldlr-sweep", {"methods": ["exact"], "mc_samples": 50, "D": 0}),
                         ("ldlr-sweep", {"mc_samples": 100}),
                         ("bound-suite", {"clt_alpha": [0, 10], "clt_n": [1, 10 ** 4],
                                          "clt_bernoulli_p": [1e-9, 1 - 1e-9]})):
        ExperimentConfig.from_dict({"kind": kind, "seed": 1, "params": params})


def test_config_hash_pinned():
    # valid configs keep the hashes their CSV rows and manifests carry
    assert ExperimentConfig.from_dict({"kind": "oracle-suite", "seed": 1}).hash() \
        == "9b6dfc2e892fcde6"
    assert ExperimentConfig.from_dict({
        "kind": "ldlr-sweep", "seed": 7, "params": {"methods": ["exact", "md", "mc"]},
        "budgets": {"md": 1000}}).hash() == "91c5f516601c2268"


def test_config_hash_stable_and_param_sensitive():
    a = ExperimentConfig.from_dict({"kind": "oracle-suite", "seed": 1})
    b = ExperimentConfig.from_dict({"kind": "oracle-suite", "seed": 1})
    c = ExperimentConfig.from_dict({"kind": "oracle-suite", "seed": 2})
    assert a.hash() == b.hash() != c.hash()


def test_oracle_suite_passes(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "oracle-suite", "seed": 11,
        "out": {"csv": str(tmp_path / "r.csv"),
                "manifest": str(tmp_path / "m.json")},
    })
    result = run(cfg)
    assert result.failures == []
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["config_hash"] == cfg.hash()
    assert manifest["rows"] == len(result.rows)
    assert "numpy" in manifest["versions"]
    assert manifest["blas"] == _blas_threads()
    text = (tmp_path / "r.csv").read_bytes().decode()
    assert text.count("\r\n") >= len(result.rows)
    assert all("config_hash" in row and "seed" in row for row in result.rows)


def test_rerun_is_byte_identical(tmp_path):
    for tag in ("a", "b"):
        cfg = ExperimentConfig.from_dict({
            "kind": "oracle-suite", "seed": 5,
            "out": {"csv": str(tmp_path / f"{tag}.csv")},
        })
        run(cfg)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_failures_are_read_off_the_rows(monkeypatch, tmp_path):
    def broken(dist, n, alphas):
        return [BoundCheck(lhs=2.0, rhs=1.0, holds=False, detail={}) for _ in alphas]
    monkeypatch.setattr(experiments.bounds_mod, "_clt_checks", broken)
    result = run(ExperimentConfig.from_dict({
        "kind": "bound-suite", "seed": 1,
        "params": {"clt_n": [30], "clt_alpha": [1, 2], "clt_bernoulli_p": [0.5],
                   "trec_L": [3], "trec_n": [10], "trec_alpha_sum": 1,
                   "trec_gamma": [0], "l3_dmax": 2},
        "out": {"manifest": str(tmp_path / "m.json")},
    }))
    failed = [row for row in result.rows if not row["pass"]]
    assert len(failed) == 4 and {row["check"] for row in failed} == {"clt-moment"}
    assert len(result.failures) == len(failed)
    assert all(msg.startswith("check=clt-moment ") for msg in result.failures)
    assert result.exit_code == 1
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["failures"] == result.failures


def test_equivalence_suite_passes():
    result = run(ExperimentConfig.from_dict({"kind": "equivalence-suite",
                                             "seed": 7}))
    assert result.failures == []


def test_ldlr_sweep_rows():
    result = run(ExperimentConfig.from_dict({
        "kind": "ldlr-sweep", "seed": 2,
        "params": {"L_grid": [2], "n_grid": [6], "snr_grid": [0.5],
                   "methods": ["exact", "md", "mc"], "mc_samples": 2000},
    }))
    by_method = {r["method"]: r for r in result.rows}
    assert set(by_method) == {"exact", "md", "mc"}
    assert by_method["exact"]["t0"] == 1.0
    # md route covers the redundant channel list, so it dominates
    assert by_method["md"]["cumulative"] >= by_method["exact"]["cumulative"]


def test_ldlr_sweep_states_each_route_statistic():
    result = run(ExperimentConfig.from_dict({
        "kind": "ldlr-sweep", "seed": 4,
        "params": {"L_grid": [3], "n_grid": [6], "snr_grid": [0.7], "D": 2,
                   "methods": ["exact", "brute", "md", "mc"], "mc_samples": 2000},
    }))
    assert [r["statistic"] for r in result.rows] == \
        ["pearson", "pearson", "all_frequencies", "pearson"]
    direct = [ldlr_exact_multinomial(3, 6, 0.7, 2),
              ldlr_bruteforce_signals(3, 6, 0.7, 2, exact=False),
              ldlr_from_md("cyclic", 3, 6, 0.7, 2),
              ldlr_montecarlo_overlap(Model("cyclic", L=3, snr=0.7), 6, 2, 2000, seed=4)]
    for row, rep in zip(result.rows, direct):
        assert [row[f"t{d}"] for d in range(3)] == list(rep.terms), row["method"]


def test_ldlr_sweep_brute_is_held_to_the_enumeration_budget():
    cfg = ExperimentConfig.from_dict({
        "kind": "ldlr-sweep", "seed": 1, "budgets": {"enumeration": 100},
        "params": {"L_grid": [3], "n_grid": [6], "snr_grid": [0.7], "methods": ["brute"]}})
    with pytest.raises(ResourceLimitError):     # 3^6 = 729 assignments
        run(cfg)


@pytest.mark.parametrize("method, prior, statistic", [
    (method, prior, statistic) for method, (stats, _) in experiments._ROUTES.items()
    for prior in stats for statistic in (None, *stats[prior])])
def test_each_route_reports_the_statistic_of_the_route_table(method, prior, statistic):
    # the routes stamp their own params, so this ties the table to what they compute
    stats, rational = experiments._ROUTES[method]
    rep = experiments._ldlr_report(method, prior, 2, 3, 0.5, 2, exact=rational,
                                   statistic=statistic, samples=200, seed=1,
                                   budgets={"enumeration": 10 ** 4})
    assert rep.params["statistic"] == (statistic or stats[prior][0])


def test_phase_diagram_markers(tmp_path):
    result = run(ExperimentConfig.from_dict({
        "kind": "phase-diagram", "seed": 1,
        "params": {"L_grid": list(range(3, 17)), "snr_grid": [0.9], "n": 12,
                   "trials": 0},
        "out": {"csv": str(tmp_path / "phase.csv")},
    }))
    below_one = [r["L"] for r in result.rows if r["stat_upper"] < 1.0]
    assert min(below_one) == 11
    l3 = next(r for r in result.rows if r["L"] == 3)
    assert l3["stat_lower"] == pytest.approx(math.sqrt(4 * math.log(2) / 3),
                                             abs=1e-12)
    header = (tmp_path / "phase.csv").read_bytes().decode().split("\r\n")[0]
    for col in ("stat_lower", "stat_upper", "ldlr_cumulative", "L", "snr"):
        assert col in header.split(",")


def test_phase_diagram_scales_one_report_per_order():
    # the default grid, L = 3..13 at n = 16: L = 13 takes the Monte-Carlo
    # fallback; each row must match a direct route call at its own snr
    result = run(ExperimentConfig.from_dict({"kind": "phase-diagram", "seed": 1}))
    assert [r["ldlr_method"] for r in result.rows] == ["exact"] * 20 + ["mc"] * 4
    for row in result.rows:
        L, snr, n, D = row["L"], row["snr"], row["n"], row["D"]
        if row["ldlr_method"] == "exact":
            rep = ldlr_exact_multinomial(L, n, snr, D)
        else:
            rep = ldlr_montecarlo_overlap(Model("cyclic", L=L, snr=snr), n, D, 20000, seed=1)
        assert row["ldlr_cumulative"] == pytest.approx(float(rep.cumulative), rel=1e-14)


@pytest.mark.parametrize("snr", [-1.0, math.nan])
def test_phase_diagram_rejects_bad_snr_before_any_evaluation(snr, monkeypatch):
    def no_route(*args, **kwargs):
        raise AssertionError("an LDLR route ran before the snr grid was checked")
    monkeypatch.setattr(experiments.ldlr_mod, "ldlr_exact_multinomial", no_route)
    monkeypatch.setattr(experiments.ldlr_mod, "ldlr_montecarlo_overlap", no_route)
    with pytest.raises(ConfigError) as exc:     # the config check refuses it, before run
        run(ExperimentConfig.from_dict({"kind": "phase-diagram", "seed": 1,
                                        "params": {"L_grid": [3, 13], "snr_grid": [0.5, snr]}}))
    assert exc.value.field == "params.snr_grid"


def test_phase_diagram_overflow_is_typed():
    cfg = ExperimentConfig.from_dict({"kind": "phase-diagram", "seed": 1,
                                      "params": {"L_grid": [3], "snr_grid": [0.5, 1e200]}})
    with pytest.raises(NumericalOverflowError):
        run(cfg)


def test_marker_formulas():
    assert stat_threshold_lower_bound(2) == 1.0
    assert stat_threshold_lower_bound(3) == pytest.approx(0.9613512573, abs=1e-9)
    assert stat_threshold_upper_bound(11) == pytest.approx(0.9793656, abs=1e-6)
    assert stat_threshold_upper_bound(10) > 1.0


def test_write_csv_formats_fractions(tmp_path):
    from fractions import Fraction
    path = tmp_path / "x.csv"
    write_csv(path, [{"a": Fraction(1, 3), "b": 0.5}], columns=["a", "b"])
    assert path.read_bytes().decode() == "a,b\r\n1/3,0.5\r\n"
