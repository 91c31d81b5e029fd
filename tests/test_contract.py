"""The argument contract of the public surface.

Every name in a submodule's ``__all__`` is listed here: either in ``SPECS``,
with valid arguments and the names of its size and real arguments, or in
``NO_SIZES`` as taking none.  For each size or real argument, Hypothesis
draws hostile values (bools, None, strings, floats where an integer belongs,
NaN, +-inf, negatives, zero and ints past int64) while the other arguments
keep their valid values.  Each call must return or raise a
:class:`GroupsynchError` subclass.

Sizes that no budget bounds yet get no ints past int64, so that no case
allocates much memory or runs long: the samplers' n and L, the Monte-Carlo
table's n and samples, and the trial and seed counts.  D meets ``ldlr._DEGREES``
(md's D its walk budget) before the first degree, so D is drawn past int64
everywhere.
"""
import ast
import importlib
import math
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsynch.errors import ConfigError, GroupsynchError, InvalidParameterError

# by import_module: the package's own ``detect`` is the function of that name
(_rules, bounds, detect, eigen, ensembles, experiments, groups, ldlr, models, rng) = (
    importlib.import_module(f"groupsynch.{name}") for name in (
        "_rules", "bounds", "detect", "eigen", "ensembles", "experiments", "groups", "ldlr",
        "models", "rng"))
MODULES = (bounds, detect, eigen, ensembles, experiments, groups, ldlr, models, rng)

_GROUP, _FULL = groups.build_catalog("cyclic(3)")
_CIRCLE = models.Model("circle", L=1)
_OBS = models.sample_gsynch_circle(1, 1.0, 3, seed=1)
_KIND = ensembles.EnsembleKind("GOE", 3)
_CONFIG = detect.DetectorConfig(calibration_trials=50)

# name -> (call, valid keyword arguments, integer arguments, real arguments, the capped
# ones among them, which are drawn without the ints past int64)
SPECS = {
    "bounds.check_clt_moment_bound": (
        lambda n, alpha, p: bounds.check_clt_moment_bound(("bernoulli", p), n, alpha),
        dict(n=10, alpha=1.0, p=0.5), "n", "alpha p", ""),
    "bounds.check_t_recursion": (
        lambda L, n, k, a, gamma: bounds.check_t_recursion(L, n, k, [1.0, a], gamma),
        dict(L=3, n=5, k=2, a=1.0, gamma=0.5), "L n k", "a gamma", ""),
    "bounds.check_l3_moment_bound": (bounds.check_l3_moment_bound, dict(n=27, d_max=3),
                                     "n d_max", "", ""),
    "detect.DetectorConfig": (detect.DetectorConfig,
                              dict(alpha=0.05, calibration_trials=50, eigen_tol=1e-8),
                              "calibration_trials", "alpha eigen_tol", ""),
    "detect.max_top_eigenvalue": (detect.max_top_eigenvalue, dict(obs=_OBS, tol=1e-8),
                                  "", "tol", ""),
    "detect.calibrate_threshold": (detect.calibrate_threshold,
                                   dict(model=_CIRCLE, n=3, config=_CONFIG, seed=1),
                                   "n seed", "", "n"),
    "detect.detect": (detect.detect, dict(obs=_OBS, threshold=2.0, tol=1e-8),
                      "", "threshold tol", ""),
    "detect.power_curve": (
        lambda n, snr, trials, seed: detect.power_curve(_CIRCLE, n, [snr], trials, _CONFIG,
                                                        seed),
        dict(n=3, snr=1.0, trials=1, seed=1), "n trials seed", "snr", "n trials"),
    "detect.wilson_interval": (detect.wilson_interval, dict(successes=1, trials=2),
                               "successes trials", "", ""),
    "eigen.top_eigenvalue": (eigen.top_eigenvalue, dict(h=np.eye(3), tol=1e-8, maxiter=10),
                             "maxiter", "tol", ""),
    "ensembles.EnsembleKind": (ensembles.EnsembleKind, dict(tag="GOE", n=3), "n", "", ""),
    "ensembles.sample": (ensembles.sample, dict(kind=_KIND, seed=1), "seed", "", ""),
    "ensembles.sample_goe": (ensembles.sample_goe, dict(n=3, rng=np.random.default_rng(0)),
                             "n", "", "n"),
    "ensembles.sample_gue": (ensembles.sample_gue, dict(n=3, rng=np.random.default_rng(0)),
                             "n", "", "n"),
    "ensembles.sample_gse": (ensembles.sample_gse, dict(n=3, rng=np.random.default_rng(0)),
                             "n", "", "n"),
    "ensembles.spectral_edge_check": (ensembles.spectral_edge_check,
                                      dict(kind=_KIND, trials=2, seed=1), "trials seed", "",
                                      "trials"),
    "experiments.ExperimentConfig": (
        lambda seed: experiments.ExperimentConfig.from_dict({"kind": "oracle-suite",
                                                             "seed": seed}),
        dict(seed=1), "seed", "", ""),
    "experiments.phase_diagram": (
        lambda L, snr, n, seed: experiments.phase_diagram([L], [snr], n, seed),
        dict(L=3, snr=0.5, n=4, seed=1), "L n seed", "snr", "L n"),
    "experiments.stat_threshold_lower_bound": (experiments.stat_threshold_lower_bound,
                                               dict(L=3), "L", "", ""),
    "experiments.stat_threshold_upper_bound": (experiments.stat_threshold_upper_bound,
                                               dict(L=3), "L", "", ""),
    "groups.build_cyclic": (groups.build_cyclic, dict(L=3), "L", "", "L"),
    "groups.build_dihedral": (groups.build_dihedral, dict(m=3), "m", "", "m"),
    "groups.regular_rep_unitary": (groups.regular_rep_unitary,
                                   dict(group=_GROUP, irreps=_FULL, tol=1e-10), "", "tol", ""),
    "ldlr.first_moment_via_binomial": (ldlr.first_moment_via_binomial, dict(L=3, n=4),
                                       "L n", "", ""),
    "ldlr.moment_table": (ldlr.moment_table, dict(L=3, n=4, D=2), "L n D", "", ""),
    "ldlr.ldlr_exact_multinomial": (ldlr.ldlr_exact_multinomial,
                                    dict(L=3, n=4, lam=0.5, D=2, budget=10 ** 7),
                                    "L n D budget", "lam", ""),
    "ldlr.ldlr_bruteforce_signals": (ldlr.ldlr_bruteforce_signals,
                                     dict(L=3, n=4, lam=0.5, D=2, budget=10 ** 7),
                                     "L n D budget", "lam", ""),
    "ldlr.md_count": (ldlr.md_count, dict(prior="cyclic", L=2, n=3, d=2, budget=10 ** 8),
                      "L n d budget", "", ""),
    "ldlr.ldlr_from_md": (ldlr.ldlr_from_md,
                          dict(prior="circle", L=2, n=3, lam=0.5, D=2, budget=10 ** 8),
                          "L n D budget", "lam", ""),
    "ldlr.ldlr_montecarlo_overlap": (ldlr.ldlr_montecarlo_overlap,
                                     dict(model=models.Model("cyclic", L=3, snr=0.5), n=4, D=2,
                                          samples=100, seed=1),
                                     "n D samples seed", "", "n samples"),
    "ldlr.sample_overlaps": (ldlr.sample_overlaps,
                             dict(model=models.Model("cyclic", L=3, snr=0.5), n=4, samples=10,
                                  seed=1),
                             "n samples seed", "", "n samples"),
    "ldlr.polylog_neg": (ldlr.polylog_neg, dict(order=2, z=0.5), "order", "z", ""),
    "models.Model": (lambda L, snr: models.Model("cyclic", L=L, snr=snr), dict(L=3, snr=0.5),
                     "L", "snr", ""),
    "models.Model.from_name": (models.Model.from_name, dict(name="circle", L=2, snr=0.5),
                               "L", "snr", ""),
    "models.Model.with_snr": (_CIRCLE.with_snr, dict(snr=0.5), "", "snr", ""),
    "models.sample_signal": (
        lambda L, n, seed: models.sample_signal(("cyclic", L), n, seed),
        dict(L=3, n=3, seed=1), "L n seed", "", "n"),
    "models.sample_gsynch_circle": (models.sample_gsynch_circle,
                                    dict(L=1, snr=0.5, n=3, seed=1), "L n seed", "snr", "L n"),
    "models.sample_gsynch_cyclic": (models.sample_gsynch_cyclic,
                                    dict(L=3, snr=0.5, n=3, seed=1), "L n seed", "snr", "L n"),
    "models.sample_gsynch_group": (models.sample_gsynch_group,
                                   dict(group=_GROUP, irreps=_FULL.nonredundant(), snr=0.5, n=3,
                                        seed=1),
                                   "n seed", "snr", "n"),
    "models.sample_indicator": (models.sample_indicator,
                                dict(group=_GROUP, n=3, gamma=0.5, seed=1), "n seed", "gamma",
                                "n"),
    "rng.make_rng": (lambda seed, stream: rng.make_rng(seed, stream), dict(seed=1, stream=0),
                     "seed stream", "", ""),
    "rng.spawn_seeds": (rng.spawn_seeds, dict(seed=1, count=2, stream=0), "seed count stream",
                        "", "count"),
}

# result containers, and entries whose arguments are objects, arrays, names or paths
NO_SIZES = {
    "bounds.BoundCheck", "detect.DetectionVerdict", "ensembles.NoiseMatrix",
    "experiments.RunResult", "experiments.run", "experiments.write_csv",
    "groups.FiniteGroup", "groups.Irrep", "groups.IrrepList", "groups.build_quaternion8",
    "groups.build_catalog", "groups.peter_weyl_orthogonality_check",
    "ldlr.LdlrReport", "ldlr.group_overlap_stat", "models.SignalVector",
    "models.FrequencyObservation", "models.SynchObservation", "models.IndicatorObservation",
    "models.indicator_to_canonical",
}

_WRONG = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.integers(-2 ** 70, 0))
_HUGE = st.integers(2 ** 63, 2 ** 200)
_NOT_INTEGERS = st.floats()         # NaN and +-inf included
_BAD_REALS = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf]))

CASES = [(name, arg, kind, arg not in capped.split())
         for name, (_, _, ints, reals, capped) in SPECS.items()
         for kind, args in (("int", ints), ("real", reals)) for arg in args.split()]


def test_every_public_name_is_listed():
    public = {f"{m.__name__.rsplit('.', 1)[1]}.{name}" for m in MODULES for name in m.__all__}
    assert public - NO_SIZES - set(SPECS) == set()
    assert NO_SIZES <= public


def _names_used(path: pathlib.Path) -> set:
    """Every name a file reads, as a bare name, an attribute or an imported name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    # a def or class statement names itself without reading it, and the package's
    # __init__ only re-exports; the package, the demos and the benchmark are the callers
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [path for path in (root / "src").rglob("*.py") if path.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    used = set().union(*map(_names_used, files))
    assert {f"{m.__name__}.{name}" for m in MODULES for name in m.__all__
            if name not in used} == set()


@pytest.mark.parametrize("name, arg, kind, huge", CASES,
                         ids=[f"{n}:{a}" for n, a, _, _ in CASES])
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_sizes_and_reals_return_or_raise_typed(name, arg, kind, huge, data):
    call, valid, *_ = SPECS[name]
    strategy = st.one_of(_WRONG, _BAD_REALS if kind == "real" else _NOT_INTEGERS,
                         *([_HUGE] if huge else []))
    value = data.draw(strategy, label=arg)
    try:
        call(**{**valid, arg: value})
    except GroupsynchError:
        pass


@pytest.mark.parametrize("value, holds", [
    (3, True), (np.int64(3), True), (True, False), (3.0, False), ("3", False), (0, False),
])
def test_an_integer_rule_refuses_bools_and_floats(value, holds):
    assert _rules.SIZE.holds(value) is holds


@pytest.mark.parametrize("value, holds", [
    (0, True), (0.5, True), (np.float32(2.5), True), (False, False), (math.nan, False),
    (math.inf, False), (-0.5, False), (10 ** 400, False), ("0.5", False),
])
def test_a_real_rule_refuses_bools_nan_and_values_past_the_float_range(value, holds):
    assert _rules.NONNEGATIVE.holds(value) is holds


def test_a_failed_rule_names_the_argument():
    with pytest.raises(GroupsynchError, match="^n must be an integer >= 1$"):
        ldlr.ldlr_exact_multinomial(3, 2.5, 0.5, 2)
    assert str(_rules.PROBABILITY) == "a finite real in (0, 1)"
    assert str(_rules.REAL) == "a real"


@pytest.mark.parametrize("call", [
    lambda: ldlr.ldlr_exact_multinomial(3, 10, 0.5, 2.5),
    lambda: ldlr.md_count("circle", 1.5, 3, 2),
    lambda: ldlr.first_moment_via_binomial(3, 10 ** 6),     # past the n <= 1e4 its sum allows
    lambda: ldlr.polylog_neg(True, 0.5),
    lambda: models.sample_signal("circle", 2.5),
    lambda: models.sample_signal("cauchy", 3),
    lambda: detect.calibrate_threshold(_CIRCLE, 10.5, _CONFIG),
    lambda: models.Model("circle", L=2.5),
    lambda: models.Model("circle", L=True),
    lambda: ensembles.EnsembleKind("GOE", True),
    lambda: bounds.check_clt_moment_bound("cauchy", 10, 1.0),
], ids=["exact-D", "md-L", "binomial-n", "polylog-order", "signal-n", "signal-prior",
        "calibrate-n", "model-L", "model-L-bool", "ensemble-n-bool", "clt-distribution"])
def test_inputs_once_untyped_or_accepted_are_refused(call):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert type(exc.value) is InvalidParameterError


_DEGREE_ENTRIES = {name: SPECS[name] for name in (
    "ldlr.moment_table", "ldlr.ldlr_exact_multinomial", "ldlr.ldlr_bruteforce_signals",
    "ldlr.ldlr_montecarlo_overlap")}


@pytest.mark.parametrize("name", _DEGREE_ENTRIES)
@pytest.mark.parametrize("D", [ldlr._DEGREES.high + 1, 2 ** 63])
def test_a_degree_past_the_rule_is_refused_at_once(name, D):
    call, valid, *_ = _DEGREE_ENTRIES[name]
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError, match="^D must be an integer in"):
        call(**{**valid, "D": D})
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("seed", [1.7, True, -1, "1"])
def test_seeds_refuse_floats_bools_and_negatives(seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        rng.make_rng(seed)
    with pytest.raises(InvalidParameterError, match="seed"):
        rng.spawn_seeds(seed, 2)
    with pytest.raises(InvalidParameterError, match="seed"):
        models.sample_signal("circle", 4, seed=seed)


def test_counts_refuse_negatives_and_none_and_numpy_seeds_keep_working():
    with pytest.raises(InvalidParameterError, match="count"):
        rng.spawn_seeds(1, -1)
    assert rng.spawn_seeds(np.int64(5), 3) == rng.spawn_seeds(5, 3)
    assert rng.make_rng(np.uint64(5), np.int32(2)).random() == rng.make_rng(5, 2).random()
    assert len(rng.spawn_seeds(None, 2)) == 2 and 0 <= rng.make_rng(None).random() < 1


PARAMS = [(kind, key) for kind, (_, params) in experiments._KINDS.items() for key in params]


@pytest.mark.parametrize("kind, key", PARAMS, ids=[f"{k}:{p}" for k, p in PARAMS])
@pytest.mark.parametrize("bad", [-1, "x"])
def test_each_bad_param_is_a_config_error_naming_it(kind, key, bad):
    grid = isinstance(experiments._KINDS[kind][1][key][0], list)
    with pytest.raises(ConfigError) as exc:
        experiments.ExperimentConfig.from_dict(
            {"kind": kind, "seed": 1, "params": {key: [bad] if grid else bad}})
    assert exc.value.field == f"params.{key}"
