import importlib

import numpy as np
import pytest

from groupsynch.detect import (DetectorConfig, calibrate_threshold, detect,
                               power_curve, wilson_interval)
from groupsynch.eigen import _check_hermitian, top_eigenvalue
from groupsynch.ensembles import EnsembleKind, sample
from groupsynch.errors import InvalidParameterError
from groupsynch.groups import build_quaternion8
from groupsynch.models import Model, sample_gsynch_group
from groupsynch.rng import make_rng


def test_top_eigenvalue_diagonal():
    assert top_eigenvalue(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0)


def test_top_eigenvalue_rank_one_spike():
    rng = make_rng(1, 0)
    n = 300
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, n))  # |v|^2 = n
    h = np.outer(v, v.conj()) / n
    h = 0.5 * (h + h.conj().T)
    assert top_eigenvalue(h) == pytest.approx(1.0, abs=1e-8)


def test_top_eigenvalue_rejects_non_hermitian():
    with pytest.raises(InvalidParameterError):
        top_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, value", [(3, np.nan), (3, np.inf), (300, np.nan),
                                      (0, 0.0)])
def test_top_eigenvalue_rejects_non_finite(n, value):
    # n = 0: an empty matrix is rejected too, in double and in single precision
    for tol in (1e-8, 1e-4):
        with pytest.raises(InvalidParameterError):
            top_eigenvalue(np.full((n, n), value), tol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e-6])
@pytest.mark.parametrize("where", [(3, 5), (10, 400), (400, 10), (599, 599)])
def test_hermitian_check_sees_every_tile(where, value):
    # (3, 5): first tile, clean tiles after it; (10, 400) and (400, 10): the
    # off-diagonal tile pair; (599, 599): diagonal of the last, partial tile
    h = sample(EnsembleKind("GUE", 600), seed=3).entries
    _check_hermitian(h)
    i, j = where
    if value == 1e-6:
        h[i, j] += 1e-6j if i == j else 1e-6
    else:
        h[i, j] = value
    with pytest.raises(InvalidParameterError):
        _check_hermitian(h)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kwargs", [{"tol": np.nan}, {"tol": -1e-8}, {"tol": np.inf},
                                    {"maxiter": 0}, {"maxiter": -3}])
@pytest.mark.parametrize("n", [3, 300])
def test_top_eigenvalue_rejects_bad_solver_settings(kwargs, n):
    with pytest.raises(InvalidParameterError) as info:
        top_eigenvalue(np.eye(n), **kwargs)
    assert type(info.value) is InvalidParameterError


def test_top_eigenvalue_matches_dense_on_large_matrix():
    rng = make_rng(2, 0)
    a = rng.standard_normal((400, 400))
    h = a + a.T
    assert top_eigenvalue(h) == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-6)


def test_variational_lower_bound_property():
    rng = make_rng(3, 0)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    h = a + a.conj().T
    lam = top_eigenvalue(h)
    for _ in range(20):
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        rayleigh = (x.conj() @ h @ x).real / (np.abs(x) ** 2).sum()
        assert rayleigh <= lam + 1e-10


def test_gse_channel_reports_paired_top_eigenvalues():
    group, full = build_quaternion8()
    obs = sample_gsynch_group(group, full.nonredundant(), 0.8, 12, seed=4)
    quat = obs.freqs[-1].matrix
    top2 = np.linalg.eigvalsh(quat)[::-1][:2]
    assert abs(top2[0] - top2[1]) < 1e-6


def test_calibrate_alpha_limit_is_minimum():
    model = Model("cyclic", L=2, snr=0.0)
    config = DetectorConfig(alpha=0.999, calibration_trials=50)
    thr = calibrate_threshold(model, 60, config, seed=5)
    config2 = DetectorConfig(alpha=0.5, calibration_trials=50)
    thr2 = calibrate_threshold(model, 60, config2, seed=5)
    assert thr <= thr2


def test_calibrated_threshold_is_pinned():
    # the value computed before eigen ran its BLAS on one thread
    thr = calibrate_threshold(Model("cyclic", L=2), 60,
                              DetectorConfig(calibration_trials=50), seed=5)
    assert thr == 2.0732626096527684


def test_more_frequencies_raise_threshold():
    one = calibrate_threshold(Model("circle", L=1, snr=0.0), 80,
                              DetectorConfig(calibration_trials=60), seed=6)
    two = calibrate_threshold(Model("circle", L=2, snr=0.0), 80,
                              DetectorConfig(calibration_trials=60), seed=6)
    assert two >= one


def test_detect_verdict_and_scale_invariance():
    model = Model("circle", L=1, snr=2.0)
    obs = model.sample(200, seed=7)
    verdict = detect(obs, threshold=2.05)
    assert verdict.label == "p"
    assert len(verdict.per_frequency) == 1
    # rescaling observation and threshold together keeps the verdict
    from groupsynch.models import FrequencyObservation, SynchObservation
    scaled = SynchObservation(tuple(
        FrequencyObservation(3.0 * f.matrix, f.snr, f.dim, f.type_tag, f.label)
        for f in obs.freqs), obs.model, obs.n, obs.seed)
    assert detect(scaled, threshold=3 * 2.05).label == verdict.label
    null_verdict = detect(model.null().sample(200, seed=8), threshold=2.2)
    assert null_verdict.label == "q"


def test_type_one_rate_matches_alpha():
    model = Model("cyclic", L=2, snr=0.0)
    config = DetectorConfig(alpha=0.2, calibration_trials=100)
    thr = calibrate_threshold(model, 80, config, seed=9)
    from groupsynch.rng import spawn_seeds
    hits = sum(detect(model.sample(80, s), thr).label == "p"
               for s in spawn_seeds(9, 200, stream=5))
    # fresh nulls reject at roughly alpha
    assert hits / 200 == pytest.approx(0.2, abs=0.1)


def test_power_curve_monotone_and_calibrated():
    model = Model("circle", L=1, snr=0.0)
    rows = power_curve(model, 250, [0.4, 1.6, 2.4], trials=25,
                       config=DetectorConfig(calibration_trials=60), seed=10)
    powers = [r["power"] for r in rows]
    # monotone within confidence slack
    assert powers[0] <= rows[1]["power_hi"]
    assert powers[1] <= rows[2]["power_hi"] + 1e-12
    assert powers[2] >= 0.9
    assert rows[0]["type1"] <= 0.2


def test_power_curve_rejects_empty_grid():
    with pytest.raises(InvalidParameterError):
        power_curve(Model("circle", L=1, snr=0.0), 50, [], trials=10, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("trials", [0, -1])
def test_power_curve_needs_a_trial(trials, monkeypatch):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before the trial count was checked")

    detect_module = importlib.import_module("groupsynch.detect")  # the package exports detect()
    monkeypatch.setattr(detect_module, "calibrate_threshold", no_calibration)
    with pytest.raises(InvalidParameterError) as info:
        power_curve(Model("circle", L=1, snr=0.0), 20, [1.0], trials=trials, seed=0)
    assert type(info.value) is InvalidParameterError


@pytest.mark.parametrize("successes", [-1, 11, 10.5])
def test_wilson_interval_rejects_successes_out_of_range(successes):
    with pytest.raises(InvalidParameterError) as info:
        wilson_interval(successes, 10)
    assert type(info.value) is InvalidParameterError


def test_wilson_interval_basic():
    lo, hi = wilson_interval(8, 10)
    assert 0.0 <= lo <= 0.8 <= hi <= 1.0
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi < 0.35


def test_detector_config_validation():
    with pytest.raises(InvalidParameterError):
        DetectorConfig(alpha=0.0)
    with pytest.raises(InvalidParameterError):
        DetectorConfig(calibration_trials=10)
    with pytest.raises(InvalidParameterError):
        DetectorConfig(calibration_trials=50.5)


@pytest.mark.parametrize("eigen_tol", [np.nan, -1.0, np.inf])
def test_detector_config_rejects_bad_eigen_tol(eigen_tol):
    with pytest.raises(InvalidParameterError) as info:
        DetectorConfig(eigen_tol=eigen_tol)
    assert type(info.value) is InvalidParameterError
