import numpy as np
import pytest

from groupsynch.detect import (DetectorConfig, calibrate_threshold, detect,
                               power_curve, top_eigenvalue, wilson_interval)
from groupsynch.eigen import top_eigenvalues
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
@pytest.mark.parametrize("n, value", [(3, np.nan), (3, np.inf), (300, np.nan)])
def test_top_eigenvalue_rejects_non_finite(n, value):
    with pytest.raises(InvalidParameterError):
        top_eigenvalue(np.full((n, n), value))


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
    top2 = top_eigenvalues(quat, 2)
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
        DetectorConfig(aggregation="sum")
