"""Experiment configuration, suite runners, and CSV/manifest emission.

A run is fully determined by (config, seed): exact-arithmetic suites
reproduce byte-identical CSV output on rerun, Monte-Carlo suites reproduce
exactly as well because every trial seed derives from the config seed.
Rows are flat dicts; every row carries the config hash and the seed.  A
check row's verdict is its ``pass`` column, and :func:`run` reads the
failures off those rows: one message per row whose ``pass`` is false.  The
manifest records library versions, the bundled OpenBLAS libraries with
their thread counts, wall time, and the failures.  ``_ROUTES`` says which
statistic each LDLR route computes and the rule it checks L against; the CLI,
the sweep and phase diagram read it.  ``_KINDS`` holds each suite kind's
runner and, per param, its default and the rule of the function that reads
it; every param is checked against that rule before any row, and a bad one is
a ``ConfigError`` naming it.
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
from ._rules import COUNT, NONNEGATIVE, ORDER, PROBABILITY, SIZE
from .detect import _CALIBRATION_TRIALS, DetectorConfig, power_curve
from .eigen import _blas_threads
from . import models as models_mod
from .errors import (ConfigError, InvalidParameterError, NumericalOverflowError,
                     ResourceLimitError)
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

_BUDGETS = ("enumeration", "md")      # count vectors; md walk transitions
# What each LDLR route computes: method -> ({prior: its statistics there, its own first},
# has a rational form, the rule its own entry checks L against); md's all_frequencies
# includes the trivial channel on cyclic priors, and mc's L rule is its model's
# (Model.from_name)
_ROUTES = {
    "exact": ({"cyclic": ("pearson", "all_frequencies")}, True, ORDER),
    "brute": ({"cyclic": ("pearson", "all_frequencies")}, True, ORDER),
    "md": ({"circle": ("all_frequencies",), "cyclic": ("all_frequencies",)}, True, SIZE),
    "mc": ({"circle": ("all_frequencies",), "cyclic": ("pearson",)}, False, None),
}
_PRIORS = tuple(sorted({prior for stats, *_ in _ROUTES.values() for prior in stats}))


class _Instance(tuple):
    """The rule of an [L, n] instance: a list of two values, each keeping its own rule."""

    def holds(self, value) -> bool:
        return (isinstance(value, (list, tuple)) and len(value) == 2
                and self[0].holds(value[0]) and self[1].holds(value[1]))

    def __str__(self) -> str:
        return f"[L, n] with L {self[0]} and n {self[1]}"


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
        for key in ("params", "budgets", "out"):
            if not isinstance(data.get(key, {}), dict):
                raise ConfigError(key, "must be a JSON object")
        params = {key: default for key, (default, _) in _KINDS[kind][1].items()}
        params.update(data.get("params", {}))
        budgets = {"enumeration": ldlr_mod.DEFAULT_BUDGET}
        budgets.update(data.get("budgets", {}))
        out = data.get("out", {})
        cfg = ExperimentConfig(kind, data["seed"], params, budgets,
                               out.get("csv"), out.get("manifest"))
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(_load_json(path, "config"))

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}")
        if not COUNT.holds(self.seed):      # the seed rule of rng.make_rng
            raise ConfigError("seed", f"must be {COUNT}")
        for key, value in self.budgets.items():
            if key not in _BUDGETS:
                raise ConfigError(f"budgets.{key}",
                                  f"unknown budget; expected one of {_BUDGETS}")
            if not SIZE.holds(value):
                raise ConfigError(f"budgets.{key}", f"must be {SIZE}")
        params = _KINDS[self.kind][1]
        for key, value in self.params.items():
            if key not in params:
                raise ConfigError(f"params.{key}", f"unknown parameter for {self.kind}")
            default, rule = params[key]
            # a param is a grid exactly when its default is a list
            grid = isinstance(default, list)
            if grid and (not isinstance(value, (list, tuple)) or len(value) == 0):
                raise ConfigError(f"params.{key}", "grid must be a nonempty list")
            if key == "mc_samples" and "mc" not in self.params.get("methods", ("mc",)):
                rule = None
            if rule is not None and not all(map(rule.holds, value if grid else [value])):
                raise ConfigError(f"params.{key}", f"{'entries ' if grid else ''}must be {rule}")
        for name in self.params.get("groups", ()):
            try:
                build_catalog(name)
            except InvalidParameterError as exc:
                raise ConfigError("params.groups", str(exc)) from exc
        if "prior" in self.params and self.params["prior"] not in _PRIORS:
            raise ConfigError("params.prior", f"must be one of {_PRIORS}")
        for method in self.params.get("methods", ()):
            _check_route(method, self.params["prior"], None, False, "params.methods")
            L_rule = _ROUTES[method][2]
            for L in self.params["L_grid"]:     # and the L rule of each chosen route
                try:
                    if L_rule is None:
                        models_mod.Model.from_name(self.params["prior"], L)
                    else:
                        L_rule.check("L", L)
                except InvalidParameterError as exc:
                    raise ConfigError("params.L_grid", f"the {method} route: {exc}") from exc
        if self.kind == "power-sweep":     # L is read only by a bare circle or cyclic
            model, L = self.params["model"], self.params["L"]
            try:
                models_mod.Model.from_name(model, L)
            except (InvalidParameterError, TypeError) as exc:
                raise ConfigError("params.L" if model in ("circle", "cyclic") else "params.model",
                                  str(exc)) from exc

        if self.kind == "phase-diagram":
            try:
                D = _phase_degree(self.params)
            except OverflowError:       # n^D_exponent past the float range
                D = math.inf
            if not ldlr_mod._DEGREES.holds(D):
                raise ConfigError("params.D_exponent",
                                  f"the degree n^D_exponent must be {ldlr_mod._DEGREES}")

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


def _atomic_write(path, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then move it into place.

    Readers see the old file or the whole new one; a failed write leaves no
    temporary file behind.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_json(path, field: str):
    """The JSON document at ``path``, or a ConfigError under ``field``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(field, f"cannot read {path!r}: {exc.strerror}") from exc
    except ValueError as exc:       # not JSON, or not UTF-8 text
        raise ConfigError(field, f"{path!r} is not JSON: {exc}") from exc


def write_csv(path, rows, columns=None) -> None:
    """Atomic RFC-4180 CSV write with a deterministic column order."""
    if columns is None:
        columns = sorted({k for row in rows for k in row})

    def write(fh):
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore",
                                lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items() if k in columns})
    _atomic_write(path, write)


# ---------------------------------------------------------------------------
# Analytic phase-boundary markers
# ---------------------------------------------------------------------------

def stat_threshold_lower_bound(L: int) -> float:
    """Signal level below which detection is statistically impossible.

    sqrt(2 (L-1) log(L-1) / (L (L-2))) for L > 2; for L = 2 the threshold
    is the spectral one, so the marker is 1.
    """
    if ORDER.check("L", L) == 2:
        return 1.0
    return math.sqrt(2 * (L - 1) * math.log(L - 1) / (L * (L - 2)))


def stat_threshold_upper_bound(L: int) -> float:
    """Signal level above which an (inefficient) test exists: sqrt(4 log L / (L-1))."""
    ORDER.check("L", L)
    return math.sqrt(4 * math.log(L) / (L - 1))


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

def _check_route(method: str, prior: str, statistic, exact: bool, field: str) -> str:
    """The statistic ``method`` computes on ``prior`` (its own if ``statistic`` is None),
    or a ConfigError under ``field``, ``statistic`` or ``rational``, read off ``_ROUTES``."""
    stats, rational, _ = _ROUTES.get(method, ({}, False, None))
    if prior not in stats:
        raise ConfigError(field, f"no {method!r} route covers the {prior} prior")
    if statistic is not None and statistic not in stats[prior]:
        raise ConfigError("statistic", f"{method} computes {'/'.join(stats[prior])} on {prior}")
    if exact and not rational:
        raise ConfigError("rational", f"the {method} route has no rational form")
    return stats[prior][0] if statistic is None else statistic


def _ldlr_report(method, prior, L, n, snr, D, *, exact, statistic, samples, seed,
                 budgets) -> ldlr_mod.LdlrReport:
    """The LDLR route for one method, exact, brute, md or mc, once _check_route passes;
    a budget missing from ``budgets`` is the library default."""
    statistic = _check_route(method, prior, statistic, exact, "prior")
    if method in ("exact", "brute"):
        route = (ldlr_mod.ldlr_exact_multinomial if method == "exact"
                 else ldlr_mod.ldlr_bruteforce_signals)
        return route(L, n, snr, D, exact=exact, statistic=statistic,
                     budget=budgets.get("enumeration", ldlr_mod.DEFAULT_BUDGET))
    if method == "md":
        return ldlr_mod.ldlr_from_md(prior, L, n, snr, D, exact=exact,
                                     budget=budgets.get("md", ldlr_mod.MD_BUDGET))
    return ldlr_mod.ldlr_montecarlo_overlap(models_mod.Model.from_name(prior, L, snr), n, D,
                                            samples, seed=seed)


def _run_ldlr_sweep(cfg: ExperimentConfig):
    rows = []
    p = cfg.params
    for L in p["L_grid"]:
        for n in p["n_grid"]:
            for snr in p["snr_grid"]:
                for method in p["methods"]:
                    rep = _ldlr_report(method, p["prior"], L, n, snr, p["D"],
                                       exact=False, statistic=None, samples=p["mc_samples"],
                                       seed=cfg.seed, budgets=cfg.budgets)
                    row = {"prior": p["prior"], "L": L, "n": n, "snr": snr,
                           "D": p["D"], "method": method,
                           "statistic": rep.params["statistic"],
                           "stderr": "" if rep.stderr is None else rep.stderr[-1],
                           "cumulative": float(rep.cumulative)}
                    row.update((f"t{d}", float(t)) for d, t in enumerate(rep.terms))
                    rows.append(row)
    return rows


def _run_power_sweep(cfg: ExperimentConfig):
    p = cfg.params
    model = models_mod.Model.from_name(p["model"], p["L"])
    config = DetectorConfig(alpha=p["alpha"], calibration_trials=p["calibration_trials"])
    return power_curve(model, p["n"], p["snr_grid"], p["trials"], config, seed=cfg.seed)


def _run_oracle_suite(cfg: ExperimentConfig):
    rows = []
    p = cfg.params
    snr, D = p["snr"], p["D"]
    budget = cfg.budgets["enumeration"]

    for L, n in p["exact_instances"]:
        a = ldlr_mod.ldlr_exact_multinomial(L, n, snr, D, exact=True, budget=budget)
        b = ldlr_mod.ldlr_bruteforce_signals(L, n, snr, D, exact=True, budget=budget)
        diff = max(abs(x - y) for x, y in zip(a.terms, b.terms))
        rows.append({"check": "exact-vs-bruteforce", "L": L, "n": n, "snr": snr,
                     "D": D, "diff": float(diff), "pass": diff == 0})

    md_budget = cfg.budgets.get("md", ldlr_mod.MD_BUDGET)
    for L, n in p["md_instances"]:
        circle, cyclic = (ldlr_mod._md_counts(prior, L, n, D, md_budget)
                          for prior in ("circle", "cyclic"))
        mn = ldlr_mod.ldlr_exact_multinomial(L, n, snr, D, exact=True,
                                             statistic="all_frequencies",
                                             budget=budget)
        md_terms = ldlr_mod._terms(cyclic, snr, n, True)
        diff = max(abs(x - y) for x, y in zip(md_terms, mn.terms))
        contain = all(c <= z for c, z in zip(circle, cyclic))
        rows.append({"check": "md-vs-multinomial", "L": L, "n": n, "snr": snr,
                     "D": D, "diff": float(diff), "pass": diff == 0 and contain})

    model = models_mod.Model("cyclic", L=3, snr=snr)
    exact = ldlr_mod.ldlr_exact_multinomial(3, 12, snr, D, budget=budget)
    mc = ldlr_mod.ldlr_montecarlo_overlap(model, 12, D, p["mc_samples"], seed=cfg.seed)
    gap = abs(mc.cumulative - float(exact.cumulative))
    rows.append({"check": "mc-vs-exact", "L": 3, "n": 12, "snr": snr, "D": D,
                 "diff": gap, "pass": gap <= 3 * mc.stderr[-1]})

    for L in range(2, 9):
        for n in (10, 100):
            got = ldlr_mod.first_moment_via_binomial(L, n, exact=True)
            want = Fraction(n * (L - 1), 2)
            rows.append({"check": "first-moment", "L": L, "n": n, "snr": "",
                         "D": 1, "diff": float(abs(got - want)), "pass": got == want})
    return rows


def _run_bound_suite(cfg: ExperimentConfig):
    rows = []
    p = cfg.params

    distros = ["rademacher"] + [("bernoulli", q) for q in p["clt_bernoulli_p"]]
    for dist in distros:
        for n in p["clt_n"]:
            for a, res in zip(p["clt_alpha"], bounds_mod._clt_checks(dist, n, p["clt_alpha"])):
                rows.append({"check": "clt-moment", "case": str(dist), "n": n,
                             "param": a, "lhs": res.lhs, "rhs": res.rhs,
                             "pass": res.holds})

    for L in p["trec_L"]:
        for n in p["trec_n"]:
            for k in range(1, L):
                alphas = bounds_mod._partial_tuples(p["trec_alpha_sum"], k).tolist()
                for alpha in map(tuple, alphas):
                    for gam in p["trec_gamma"]:
                        res = bounds_mod.check_t_recursion(L, n, k, alpha, gam)
                        rows.append({"check": "t-recursion", "case": f"L={L},k={k}",
                                     "n": n, "param": f"{alpha}|g={gam}",
                                     "lhs": res.lhs, "rhs": res.rhs,
                                     "pass": res.holds})

    for res in bounds_mod.check_l3_moment_bound(p["l3_n"], p["l3_dmax"]):
        rows.append({"check": "l3-moment", "case": "L=3", "n": p["l3_n"],
                     "param": res.detail["d"], "lhs": res.lhs, "rhs": res.rhs,
                     "pass": res.holds})
    return rows


def _run_equivalence_suite(cfg: ExperimentConfig):
    rows = []
    p = cfg.params
    n, snr = p["n"], p["snr"]

    for name in p["groups"]:
        group, full = build_catalog(name)
        L = group.order
        gamma = snr * math.sqrt(L / n)
        nontrivial = [r for r in full if not r.is_trivial]     # one channel each, in order
        # noise-free score tables, planted as sample_indicator plants them
        u = models_mod.sample_signal(("haar", group), n, seed=cfg.seed).values
        scores = np.zeros((n, n, L), dtype=complex)
        models_mod._plant(scores, group, u, gamma)
        clean = models_mod.IndicatorObservation(scores, gamma, u, n, cfg.seed)
        canon = models_mod.indicator_to_canonical(clean, group, full)
        # each channel against the samplers' own signal (snr/n) X X*
        err = 0.0
        for freq, irrep in zip(canon.freqs, nontrivial):
            x = models_mod._irrep_stack(irrep, u)
            err = max(err, float(np.abs(freq.matrix - (snr / n) * (x @ x.conj().T)).max()))
        rows.append({"check": "indicator-signal", "case": name, "n": n,
                     "value": err, "tol": 1e-10, "pass": err <= 1e-10})

        vn = p["variance_n"]
        iu = np.triu_indices(vn, 1)
        draws = -(-p["variance_pairs"] // len(iu[0]))
        sq = [[] for _ in nontrivial]   # per channel, each draw's squared block entries
        for t in range(draws):
            obs = models_mod.sample_indicator(group, vn, 0.0, seed=cfg.seed + t)
            canon = models_mod.indicator_to_canonical(obs, group, full)
            for freq, chunks in zip(canon.freqs, sq):
                d = freq.matrix.shape[0] // vn
                blocks = freq.matrix.reshape(vn, d, vn, d).transpose(0, 2, 1, 3)
                chunks.append(np.abs(blocks[iu]) ** 2)
        for freq, chunks in zip(canon.freqs, sq):
            d = freq.matrix.shape[0] // vn
            mean_sq = float(np.mean(np.concatenate(chunks)))
            target = 1.0 / (vn * d)
            relerr = abs(mean_sq - target) / target
            rows.append({"check": "indicator-variance",
                         "case": f"{name}:{freq.label}", "n": vn, "value": relerr,
                         "tol": p["variance_tol"], "pass": relerr <= p["variance_tol"]})

    for L in (3, 4):
        via_cyclic = models_mod.sample_gsynch_cyclic(L, snr, n, seed=cfg.seed)
        gm = models_mod.Model.from_name(f"group(cyclic({L}))", snr=snr)
        via_group = gm.sample(n, seed=cfg.seed)
        null_c = models_mod.sample_gsynch_cyclic(L, 0.0, n, seed=cfg.seed)
        null_g = gm.null().sample(n, seed=cfg.seed)
        diff = max(
            float(np.abs((a.matrix - na.matrix) - (b.matrix - nb.matrix)).max())
            for a, b, na, nb in zip(via_cyclic.freqs, via_group.freqs,
                                    null_c.freqs, null_g.freqs))
        rows.append({"check": "coupled-signal", "case": f"cyclic({L})", "n": n,
                     "value": diff, "tol": 0.0, "pass": diff == 0.0})
    return rows


def _phase_degree(p) -> int:
    """The phase diagram's degree, max(1, floor(n^D_exponent)), in floats, so a
    huge exponent raises OverflowError rather than building a huge integer."""
    return max(1, int(float(p["n"]) ** p["D_exponent"]))


def _run_phase_diagram(cfg: ExperimentConfig):
    """Markers and cumulatives per (L, snr) from one report per L, at snr 1.

    Each term t_d scales as snr^(2d), on the Monte-Carlo fallback too (every
    snr draws the same signals), so a row's cumulative is sum_d t_d snr^(2d).
    """
    rows = []
    p = cfg.params
    route = dict(exact=False, statistic=None, samples=20000, seed=cfg.seed, budgets=cfg.budgets)
    for L in p["L_grid"]:
        lb = stat_threshold_lower_bound(L)
        ub = stat_threshold_upper_bound(L)
        D = _phase_degree(p)
        try:
            method, rep = "exact", _ldlr_report("exact", "cyclic", L, p["n"], 1.0, D, **route)
        except ResourceLimitError:
            # the count vectors C(n+L-1, L-1) outgrow the budget for large L;
            # fall back to the Monte-Carlo overlap route
            method, rep = "mc", _ldlr_report("mc", "cyclic", L, p["n"], 1.0, D, **route)
        for snr in p["snr_grid"]:
            try:
                cumulative = sum(t * float(snr) ** (2 * d) for d, t in enumerate(rep.terms))
            except OverflowError:       # snr^(2d) past the float range
                cumulative = math.inf
            if not math.isfinite(cumulative):
                raise NumericalOverflowError(f"cumulative at L={L}, snr={snr} overflowed")
            pw = power_curve(models_mod.Model("cyclic", L=L, snr=snr), p["power_n"], [snr],
                             p["trials"], seed=cfg.seed)[0] if p["trials"] else {}
            rows.append({"L": L, "snr": snr, "n": p["n"], "D": D,
                         "stat_lower": lb, "stat_upper": ub, "spectral": 1.0,
                         "ldlr_method": method, "ldlr_cumulative": cumulative,
                         "power": pw.get("power", ""), "type1": pw.get("type1", "")})
    return rows


# Each suite kind: its runner and, per param, (default, rule).  The rule is the rule of
# the function that reads the param, checked before any row is computed, for the value
# or each entry of a grid; mc_samples is checked only where mc runs.  The choice keys
# prior, methods, model and groups have no rule: they are looked up instead.
_KINDS = {
    "ldlr-sweep": (_run_ldlr_sweep, {
        "prior": ("cyclic", None),
        "L_grid": ([2, 3], SIZE),
        "n_grid": ([8, 16], SIZE),
        "snr_grid": ([0.5, 0.9], NONNEGATIVE),
        "D": (3, ldlr_mod._DEGREES),
        "methods": (["exact", "mc"], None),
        "mc_samples": (20000, ldlr_mod._MC_SAMPLES),
    }),
    "power-sweep": (_run_power_sweep, {
        "model": ("circle", None),
        "L": (1, SIZE),
        "n": (300, SIZE),
        "snr_grid": ([0.5, 1.5], NONNEGATIVE),
        "trials": (40, SIZE),
        "alpha": (0.05, PROBABILITY),
        "calibration_trials": (60, _CALIBRATION_TRIALS),
    }),
    "oracle-suite": (_run_oracle_suite, {
        "exact_instances": ([[2, 4], [2, 6], [3, 3], [3, 5], [4, 3]], _Instance((ORDER, SIZE))),
        "md_instances": ([[2, 3], [3, 3], [4, 2]], _Instance((ORDER, SIZE))),
        "snr": (0.9, NONNEGATIVE),
        "D": (3, ldlr_mod._DEGREES),
        "mc_samples": (40000, ldlr_mod._MC_SAMPLES),
    }),
    "bound-suite": (_run_bound_suite, {
        "clt_n": ([30, 100, 300, 1000, 3000, 10000], bounds_mod._CLT_N),
        "clt_alpha": ([0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10], bounds_mod._CLT_ALPHA),
        "clt_bernoulli_p": ([0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9], PROBABILITY),
        "trec_L": ([3, 4, 5], bounds_mod._T_RECURSION_L),
        "trec_n": ([10, 20, 30], COUNT),
        "trec_alpha_sum": (4, COUNT),
        "trec_gamma": ([0, 1, 2], NONNEGATIVE),
        "l3_n": (1000, SIZE),
        "l3_dmax": (9, SIZE),
    }),
    "equivalence-suite": (_run_equivalence_suite, {
        "groups": (["cyclic(3)", "cyclic(4)", "dihedral(3)"], None),
        "n": (8, SIZE),
        "snr": (0.7, NONNEGATIVE),
        "variance_pairs": (4000, SIZE),
        "variance_n": (50, ORDER),
        "variance_tol": (0.05, NONNEGATIVE),
    }),
    "phase-diagram": (_run_phase_diagram, {
        "L_grid": ([3, 5, 7, 9, 11, 13], ORDER),
        "snr_grid": ([0.6, 0.8, 1.0, 1.2], NONNEGATIVE),
        "n": (16, SIZE),
        "D_exponent": (0.3, NONNEGATIVE),
        "trials": (0, COUNT),
        "power_n": (300, SIZE),
    }),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig) -> RunResult:
    """Execute a configured suite; write CSV rows and a JSON manifest."""
    config.validate()
    start = time.time()
    rows = _KINDS[config.kind][0](config)
    failures = [" ".join(f"{k}={v}" for k, v in row.items() if k != "pass")
                for row in rows if "pass" in row and not row["pass"]]
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
        _atomic_write(config.out_manifest,
                      lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True))
    return RunResult(rows, manifest, failures)


def phase_diagram(L_grid, snr_grid, n, seed=0):
    """Convenience wrapper around the phase-diagram suite."""
    return run(ExperimentConfig.from_dict({
        "kind": "phase-diagram", "seed": seed,
        "params": {"L_grid": list(L_grid), "snr_grid": list(snr_grid), "n": n},
    }))
