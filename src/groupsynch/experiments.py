"""Experiment configuration, suite runners, and CSV/manifest emission.

A run is fully determined by (config, seed): exact-arithmetic suites
reproduce byte-identical CSV output on rerun, Monte-Carlo suites reproduce
exactly as well because every trial seed derives from the config seed.
Rows are flat dicts; every row carries the config hash and the seed.  The
manifest records library versions, the bundled OpenBLAS libraries with
their thread counts, wall time, and the pass/fail summary.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy

from . import bounds as bounds_mod
from . import ldlr as ldlr_mod
from .detect import DetectorConfig, power_curve
from .eigen import _blas_threads
from . import models as models_mod
from .errors import ConfigError, InvalidParameterError, ResourceLimitError
from .groups import build_catalog

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "run",
    "phase_diagram",
    "stat_threshold_lower_bound",
    "stat_threshold_upper_bound",
    "write_csv",
]

KINDS = ("ldlr-sweep", "power-sweep", "oracle-suite", "bound-suite",
         "equivalence-suite", "phase-diagram")

_DEFAULT_PARAMS = {
    "ldlr-sweep": {
        "prior": "cyclic",
        "L_grid": [2, 3],
        "n_grid": [8, 16],
        "snr_grid": [0.5, 0.9],
        "D": 3,
        "methods": ["exact", "mc"],
        "mc_samples": 20000,
    },
    "power-sweep": {
        "model": "circle",
        "L": 1,
        "n": 300,
        "snr_grid": [0.5, 1.5],
        "trials": 40,
        "alpha": 0.05,
        "calibration_trials": 60,
    },
    "oracle-suite": {
        "exact_instances": [[2, 4], [2, 6], [3, 3], [3, 5], [4, 3]],
        "md_instances": [[2, 3], [3, 3], [4, 2]],
        "snr": 0.9,
        "D": 3,
        "mc_samples": 40000,
    },
    "bound-suite": {
        "clt_n": [30, 100, 300, 1000, 3000, 10000],
        "clt_alpha": [0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10],
        "clt_bernoulli_p": [0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9],
        "trec_L": [3, 4, 5],
        "trec_n": [10, 20, 30],
        "trec_alpha_sum": 4,
        "trec_gamma": [0, 1, 2],
        "l3_n": 1000,
        "l3_dmax": 9,
    },
    "equivalence-suite": {
        "groups": ["cyclic(3)", "cyclic(4)", "dihedral(3)"],
        "n": 8,
        "snr": 0.7,
        "variance_pairs": 4000,
        "variance_n": 50,
        "variance_tol": 0.05,
    },
    "phase-diagram": {
        "L_grid": [3, 5, 7, 9, 11, 13],
        "snr_grid": [0.6, 0.8, 1.0, 1.2],
        "n": 16,
        "D_exponent": 0.3,
        "trials": 0,
        "power_n": 300,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    out_csv: str = None
    out_manifest: str = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("", "config must be a JSON object")
        kind = data.get("kind")
        if kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}, got {kind!r}")
        if "seed" not in data:
            raise ConfigError("seed", "is required")
        seed = data["seed"]
        if not isinstance(seed, int):
            raise ConfigError("seed", "must be an integer")
        params = dict(_DEFAULT_PARAMS[kind])
        params.update(data.get("params", {}))
        budgets = {"enumeration": ldlr_mod.DEFAULT_BUDGET}
        budgets.update(data.get("budgets", {}))
        out = data.get("out", {})
        cfg = ExperimentConfig(kind, seed, params, budgets,
                               out.get("csv"), out.get("manifest"))
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}")
        for key, value in self.budgets.items():
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"budgets.{key}", "must be a positive integer")
        for key, value in self.params.items():
            if key.endswith("_grid") or key in ("clt_n", "clt_alpha", "trec_L",
                                                "trec_n", "trec_gamma", "groups",
                                                "exact_instances", "md_instances",
                                                "clt_bernoulli_p", "methods"):
                if not isinstance(value, (list, tuple)) or len(value) == 0:
                    raise ConfigError(f"params.{key}", "grid must be a nonempty list")

    def canonical(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "params": self.params,
                "budgets": self.budgets}

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunResult:
    rows: list
    manifest: dict
    failures: list

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else 1


def _fmt(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return value


def write_csv(path, rows, columns=None) -> None:
    """Atomic RFC-4180 CSV write with a deterministic column order."""
    if columns is None:
        columns = sorted({k for row in rows for k in row})
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore",
                                lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items() if k in columns})
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Analytic phase-boundary markers
# ---------------------------------------------------------------------------

def stat_threshold_lower_bound(L: int) -> float:
    """Signal level below which detection is statistically impossible.

    sqrt(2 (L-1) log(L-1) / (L (L-2))) for L > 2; for L = 2 the threshold
    is the spectral one, so the marker is 1.
    """
    if L < 2:
        raise InvalidParameterError("marker needs L >= 2")
    if L == 2:
        return 1.0
    return math.sqrt(2 * (L - 1) * math.log(L - 1) / (L * (L - 2)))


def stat_threshold_upper_bound(L: int) -> float:
    """Signal level above which an (inefficient) test exists: sqrt(4 log L / (L-1))."""
    if L < 2:
        raise InvalidParameterError("marker needs L >= 2")
    return math.sqrt(4 * math.log(L) / (L - 1))


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

def _run_ldlr_sweep(cfg: ExperimentConfig):
    rows, failures = [], []
    p = cfg.params
    budget = cfg.budgets["enumeration"]
    for L in p["L_grid"]:
        for n in p["n_grid"]:
            for snr in p["snr_grid"]:
                for method in p["methods"]:
                    base = {"prior": p["prior"], "L": L, "n": n, "snr": snr,
                            "D": p["D"], "method": method}
                    if method == "exact":
                        rep = ldlr_mod.ldlr_exact_multinomial(
                            L, n, snr, p["D"], budget=budget)
                        base["stderr"] = ""
                    elif method == "md":
                        rep = ldlr_mod.ldlr_from_md(
                            p["prior"], L, n, snr, p["D"],
                            budget=cfg.budgets.get("md", ldlr_mod.MD_BUDGET))
                        base["stderr"] = ""
                    else:
                        model = models_mod.Model(p["prior"], L=L, snr=snr)
                        rep = ldlr_mod.ldlr_montecarlo_overlap(
                            model, n, p["D"], p["mc_samples"], seed=cfg.seed)
                        base["stderr"] = rep.stderr[-1]
                    base["cumulative"] = float(rep.cumulative)
                    for d, t in enumerate(rep.terms):
                        base[f"t{d}"] = float(t)
                    rows.append(base)
    return rows, failures


def _run_power_sweep(cfg: ExperimentConfig):
    p = cfg.params
    model = _model_from_name(p["model"], p["L"], 0.0)
    config = DetectorConfig(alpha=p["alpha"],
                                       calibration_trials=p["calibration_trials"])
    rows = power_curve(model, p["n"], p["snr_grid"], p["trials"],
                                  config, seed=cfg.seed)
    return rows, []


def _model_from_name(name: str, L: int, snr: float) -> models_mod.Model:
    if name == "circle":
        return models_mod.Model("circle", L=L, snr=snr)
    if name == "cyclic":
        return models_mod.Model("cyclic", L=L, snr=snr)
    group, full = build_catalog(name)
    return models_mod.Model("group", snr=snr, group=group,
                            irreps=full.nonredundant())


def _run_oracle_suite(cfg: ExperimentConfig):
    rows, failures = [], []
    p = cfg.params
    snr, D = p["snr"], p["D"]
    budget = cfg.budgets["enumeration"]

    for L, n in p["exact_instances"]:
        a = ldlr_mod.ldlr_exact_multinomial(L, n, snr, D, exact=True, budget=budget)
        b = ldlr_mod.ldlr_bruteforce_signals(L, n, snr, D, exact=True, budget=budget)
        diff = max(abs(x - y) for x, y in zip(a.terms, b.terms))
        ok = diff == 0
        rows.append({"check": "exact-vs-bruteforce", "L": L, "n": n, "snr": snr,
                     "D": D, "diff": float(diff), "pass": ok})
        if not ok:
            failures.append(f"exact-vs-bruteforce L={L} n={n} diff={diff}")

    for L, n in p["md_instances"]:
        md_budget = cfg.budgets.get("md", ldlr_mod.MD_BUDGET)
        md = ldlr_mod.ldlr_from_md("cyclic", L, n, snr, D, exact=True,
                                   budget=md_budget)
        mn = ldlr_mod.ldlr_exact_multinomial(L, n, snr, D, exact=True,
                                             statistic="all_frequencies",
                                             budget=budget)
        diff = max(abs(x - y) for x, y in zip(md.terms, mn.terms))
        circle = [ldlr_mod.md_count("circle", L, n, d, md_budget)
                  for d in range(D + 1)]
        cyclic = [ldlr_mod.md_count("cyclic", L, n, d, md_budget)
                  for d in range(D + 1)]
        contain = all(c <= z for c, z in zip(circle, cyclic))
        ok = diff == 0 and contain
        rows.append({"check": "md-vs-multinomial", "L": L, "n": n, "snr": snr,
                     "D": D, "diff": float(diff), "pass": ok})
        if not ok:
            failures.append(f"md-vs-multinomial L={L} n={n} diff={diff} "
                            f"containment={contain}")

    model = models_mod.Model("cyclic", L=3, snr=snr)
    exact = ldlr_mod.ldlr_exact_multinomial(3, 12, snr, D, budget=budget)
    mc = ldlr_mod.ldlr_montecarlo_overlap(model, 12, D, p["mc_samples"], seed=cfg.seed)
    gap = abs(mc.cumulative - float(exact.cumulative))
    ok = gap <= 3 * mc.stderr[-1]
    rows.append({"check": "mc-vs-exact", "L": 3, "n": 12, "snr": snr, "D": D,
                 "diff": gap, "pass": ok})
    if not ok:
        failures.append(f"mc-vs-exact gap={gap} > 3*{mc.stderr[-1]}")

    for L in range(2, 9):
        for n in (10, 100):
            got = ldlr_mod.first_moment_via_binomial(L, n, exact=True)
            want = Fraction(n * (L - 1), 2)
            ok = got == want
            rows.append({"check": "first-moment", "L": L, "n": n, "snr": "",
                         "D": 1, "diff": float(abs(got - want)), "pass": ok})
            if not ok:
                failures.append(f"first-moment L={L} n={n}: {got} != {want}")
    return rows, failures


def _run_bound_suite(cfg: ExperimentConfig):
    rows, failures = [], []
    p = cfg.params

    distros = ["rademacher"] + [("bernoulli", q) for q in p["clt_bernoulli_p"]]
    for dist in distros:
        for n in p["clt_n"]:
            for a in p["clt_alpha"]:
                res = bounds_mod.check_clt_moment_bound(dist, n, a)
                rows.append({"check": "clt-moment", "case": str(dist), "n": n,
                             "param": a, "lhs": res.lhs, "rhs": res.rhs,
                             "pass": res.holds})
                if not res.holds:
                    failures.append(f"clt-moment {dist} n={n} alpha={a}: "
                                    f"{res.lhs} > {res.rhs}")

    for L in p["trec_L"]:
        for n in p["trec_n"]:
            for k in range(1, L):
                for alpha in _alpha_vectors(k, p["trec_alpha_sum"]):
                    for gam in p["trec_gamma"]:
                        res = bounds_mod.check_t_recursion(L, n, k, alpha, gam)
                        if not res.holds:
                            failures.append(
                                f"t-recursion L={L} n={n} k={k} alpha={alpha} "
                                f"gamma={gam}: witness {res.detail['worst_tuple']} "
                                f"lhs={res.lhs} rhs={res.rhs}")
                        rows.append({"check": "t-recursion", "case": f"L={L},k={k}",
                                     "n": n, "param": f"{alpha}|g={gam}",
                                     "lhs": res.lhs, "rhs": res.rhs,
                                     "pass": res.holds})

    for res in bounds_mod.check_l3_moment_bound(p["l3_n"], p["l3_dmax"]):
        rows.append({"check": "l3-moment", "case": "L=3", "n": p["l3_n"],
                     "param": res.detail["d"], "lhs": res.lhs, "rhs": res.rhs,
                     "pass": res.holds})
        if not res.holds:
            failures.append(f"l3-moment d={res.detail['d']}: {res.lhs} > {res.rhs}")
    return rows, failures


def _alpha_vectors(k: int, total: int):
    if k == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _alpha_vectors(k - 1, total - head):
            yield (head,) + tail


def _run_equivalence_suite(cfg: ExperimentConfig):
    rows, failures = [], []
    p = cfg.params
    n, snr = p["n"], p["snr"]

    for name in p["groups"]:
        group, full = build_catalog(name)
        L = group.order
        gamma = snr * math.sqrt(L / n)
        signal = models_mod.sample_signal(("haar", group), n, seed=cfg.seed)
        scores = np.zeros((n, n, L), dtype=complex)
        rel = group.mul[np.ix_(signal.values, group.inverse[signal.values])]
        k_idx, j_idx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        scores[k_idx, j_idx, rel] += gamma
        clean = models_mod.IndicatorObservation(scores, gamma, signal.values, n,
                                                cfg.seed)
        canon = models_mod.indicator_to_canonical(clean, group, full)
        err = 0.0
        for freq, irrep in zip(canon.freqs, [r for r in full if not r.is_trivial]):
            d = irrep.dim
            for a in range(n):
                for b in range(n):
                    blk = freq.matrix[a * d:(a + 1) * d, b * d:(b + 1) * d]
                    want = (snr / n) * irrep.matrices[signal.values[a]] \
                        @ irrep.matrices[group.inverse[signal.values[b]]]
                    err = max(err, float(np.abs(blk - want).max()))
        ok = err <= 1e-10
        rows.append({"check": "indicator-signal", "case": name, "n": n,
                     "value": err, "tol": 1e-10, "pass": ok})
        if not ok:
            failures.append(f"indicator-signal {name}: err={err}")

        vn = p["variance_n"]
        per_obs = vn * (vn - 1) // 2
        draws = -(-p["variance_pairs"] // per_obs)
        sq = None
        pairs = 0
        for t in range(draws):
            obs = models_mod.sample_indicator(group, vn, 0.0, seed=cfg.seed + t)
            canon = models_mod.indicator_to_canonical(obs, group, full)
            if sq is None:
                sq = [[] for _ in canon.freqs]
            iu = np.triu_indices(vn, 1)
            for ci, freq in enumerate(canon.freqs):
                d = freq.matrix.shape[0] // vn
                blocks = freq.matrix.reshape(vn, d, vn, d).transpose(0, 2, 1, 3)
                sq[ci].append(np.abs(blocks[iu]) ** 2)
            pairs += len(iu[0])
        for ci, (freq, chunks) in enumerate(zip(canon.freqs, sq)):
            d = freq.matrix.shape[0] // vn
            mean_sq = float(np.mean(np.concatenate(chunks)))
            target = 1.0 / (vn * d)
            relerr = abs(mean_sq - target) / target
            ok = relerr <= p["variance_tol"]
            rows.append({"check": "indicator-variance",
                         "case": f"{name}:{freq.label}", "n": vn,
                         "value": relerr, "tol": p["variance_tol"], "pass": ok})
            if not ok:
                failures.append(f"indicator-variance {name} {freq.label}: "
                                f"rel err {relerr} over {pairs} pairs")

    for L in (3, 4):
        via_cyclic = models_mod.sample_gsynch_cyclic(L, snr, n, seed=cfg.seed)
        gm = models_mod.cyclic_group_model(L, snr)
        via_group = gm.sample(n, seed=cfg.seed)
        null_c = models_mod.sample_gsynch_cyclic(L, 0.0, n, seed=cfg.seed)
        null_g = gm.null().sample(n, seed=cfg.seed)
        diff = max(
            float(np.abs((a.matrix - na.matrix) - (b.matrix - nb.matrix)).max())
            for a, b, na, nb in zip(via_cyclic.freqs, via_group.freqs,
                                    null_c.freqs, null_g.freqs))
        ok = diff == 0.0
        rows.append({"check": "coupled-signal", "case": f"cyclic({L})", "n": n,
                     "value": diff, "tol": 0.0, "pass": ok})
        if not ok:
            failures.append(f"coupled-signal L={L}: diff={diff}")
    return rows, failures


def _run_phase_diagram(cfg: ExperimentConfig):
    rows, failures = [], []
    p = cfg.params
    budget = cfg.budgets["enumeration"]
    for L in p["L_grid"]:
        lb = stat_threshold_lower_bound(L)
        ub = stat_threshold_upper_bound(L)
        D = max(1, int(p["n"] ** p["D_exponent"]))
        for snr in p["snr_grid"]:
            row = {"L": L, "snr": snr, "n": p["n"], "D": D,
                   "stat_lower": lb, "stat_upper": ub, "spectral": 1.0}
            try:
                rep = ldlr_mod.ldlr_exact_multinomial(L, p["n"], snr, D,
                                                      budget=budget)
                row["ldlr_method"] = "exact"
            except ResourceLimitError:
                # count-vector enumeration outgrows the budget for large L;
                # fall back to the Monte-Carlo overlap route
                model = models_mod.Model("cyclic", L=L, snr=snr)
                rep = ldlr_mod.ldlr_montecarlo_overlap(model, p["n"], D,
                                                       20000, seed=cfg.seed)
                row["ldlr_method"] = "mc"
            row["ldlr_cumulative"] = float(rep.cumulative)
            if p["trials"]:
                model = models_mod.Model("cyclic", L=L, snr=snr)
                pw = power_curve(model, p["power_n"], [snr],
                                            p["trials"], seed=cfg.seed)
                row["power"] = pw[0]["power"]
                row["type1"] = pw[0]["type1"]
            else:
                row["power"] = ""
                row["type1"] = ""
            rows.append(row)
    return rows, failures


_RUNNERS = {
    "ldlr-sweep": _run_ldlr_sweep,
    "power-sweep": _run_power_sweep,
    "oracle-suite": _run_oracle_suite,
    "bound-suite": _run_bound_suite,
    "equivalence-suite": _run_equivalence_suite,
    "phase-diagram": _run_phase_diagram,
}


def run(config: ExperimentConfig) -> RunResult:
    """Execute a configured suite; write CSV rows and a JSON manifest."""
    config.validate()
    start = time.time()
    rows, failures = _RUNNERS[config.kind](config)
    chash = config.hash()
    for row in rows:
        row["config_hash"] = chash
        row["seed"] = config.seed
    manifest = {
        "kind": config.kind,
        "config": config.canonical(),
        "config_hash": chash,
        "seed": config.seed,
        "rows": len(rows),
        "failures": failures,
        "wall_time_s": round(time.time() - start, 3),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "groupsynch": "0.1.0",
        },
        "blas": _blas_threads(),
    }
    if config.out_csv:
        write_csv(config.out_csv, rows)
    if config.out_manifest:
        tmp = f"{config.out_manifest}.tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, config.out_manifest)
    return RunResult(rows, manifest, failures)


def phase_diagram(L_grid, snr_grid, n, D_exponent=0.3, trials=0, seed=0,
                  out_csv=None):
    """Convenience wrapper around the phase-diagram suite."""
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-diagram", "seed": seed,
        "params": {"L_grid": list(L_grid), "snr_grid": list(snr_grid), "n": n,
                   "D_exponent": D_exponent, "trials": trials},
        "out": {"csv": out_csv} if out_csv else {},
    })
    return run(cfg)
