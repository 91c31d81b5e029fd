import json
import math

import pytest

from groupsynch.eigen import _blas_threads
from groupsynch.errors import ConfigError
from groupsynch.experiments import (ExperimentConfig, run,
                                    stat_threshold_lower_bound,
                                    stat_threshold_upper_bound, write_csv)


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


def test_config_bad_budget():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict({"kind": "oracle-suite", "seed": 1,
                                    "budgets": {"enumeration": -3}})
    assert exc.value.field == "budgets.enumeration"


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
