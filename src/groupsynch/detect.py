"""Spectral detection of a planted signal from multi-frequency observations.

The test statistic is the maximum, over frequency channels, of the top
eigenvalue.  The decision threshold is the (1 - alpha) empirical quantile
of that statistic under the matching pure-noise model, calibrated by Monte
Carlo, so the type-I rate is controlled at finite n rather than relying on
the asymptotic bulk edge at 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rules import COUNT, NONNEGATIVE, PROBABILITY, REAL, SIZE, integer
from .eigen import top_eigenvalue
from .errors import InvalidParameterError
from .models import Model, SynchObservation
from .rng import spawn_seeds

__all__ = [
    "DetectorConfig",
    "DetectionVerdict",
    "max_top_eigenvalue",
    "calibrate_threshold",
    "detect",
    "power_curve",
    "wilson_interval",
]


# fewer null draws leave the (1 - alpha) quantile too coarse
_CALIBRATION_TRIALS = integer(50)


@dataclass(frozen=True)
class DetectorConfig:
    alpha: float = 0.05
    calibration_trials: int = 100
    eigen_tol: float = 1e-8

    def __post_init__(self):
        PROBABILITY.check("alpha", self.alpha)
        _CALIBRATION_TRIALS.check("calibration_trials", self.calibration_trials)
        NONNEGATIVE.check("eigen_tol", self.eigen_tol)


@dataclass(frozen=True)
class DetectionVerdict:
    label: str                  # "p" (planted) or "q" (null)
    per_frequency: tuple        # top eigenvalue per channel
    threshold: float


def max_top_eigenvalue(obs: SynchObservation, tol: float = 1e-8):
    vals = tuple(top_eigenvalue(f.matrix, tol=tol) for f in obs.freqs)
    return max(vals), vals


def _max_stats(model: Model, n: int, seeds, tol: float) -> np.ndarray:
    """The max-over-channels top eigenvalue of one draw of ``model`` per seed."""
    return np.array([max_top_eigenvalue(model.sample(n, s), tol)[0] for s in seeds])


def calibrate_threshold(model: Model, n: int, config: DetectorConfig,
                        seed=None) -> float:
    """(1 - alpha) empirical quantile of the null max-eigenvalue statistic.

    The quantile uses the conservative (next-higher order statistic) rule,
    so small calibration samples err on the side of fewer false alarms.
    At alpha -> 1 this degrades to the sample minimum.
    """
    SIZE.check("n", n)
    stats = _max_stats(model.null(), n, spawn_seeds(seed, config.calibration_trials),
                       config.eigen_tol)
    return float(np.quantile(stats, 1.0 - config.alpha, method="higher"))


def detect(obs: SynchObservation, threshold: float, tol: float = 1e-8) -> DetectionVerdict:
    """Declare planted iff the max top eigenvalue exceeds the threshold."""
    REAL.check("threshold", threshold)
    stat, vals = max_top_eigenvalue(obs, tol)
    return DetectionVerdict("p" if stat > threshold else "q", vals, float(threshold))


def wilson_interval(successes: int, trials: int):
    """Wilson score interval at 95 % (z = 1.96) for a binomial proportion."""
    SIZE.check("trials", trials)
    if COUNT.check("successes", successes) > trials:
        raise InvalidParameterError("successes must lie in [0, trials]")
    phat, z = successes / trials, 1.96
    denom = 1 + z ** 2 / trials
    center = (phat + z ** 2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z ** 2 / (4 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def power_curve(model: Model, n: int, snr_grid, trials: int,
                config: DetectorConfig = DetectorConfig(), seed=None):
    """Empirical detection power over a signal-strength grid.

    One threshold is calibrated from the null, then reused across the grid;
    the null rejection rate (empirical type-I error) is measured on fresh
    null draws.  Returns a list of rows with Wilson confidence intervals.
    """
    snr_grid = [float(NONNEGATIVE.check("snr", lam)) for lam in snr_grid]
    if not snr_grid:
        raise InvalidParameterError("snr grid must be nonempty")
    SIZE.check("trials", trials)
    threshold = calibrate_threshold(model, n, config, seed=seed)

    def rejections(m: Model, stream: int) -> int:
        stats = _max_stats(m, n, spawn_seeds(seed, trials, stream=stream), config.eigen_tol)
        return int((stats > threshold).sum())

    type1 = rejections(model.null(), 1) / trials
    rows = []
    for gi, lam in enumerate(snr_grid):
        hits = rejections(model.with_snr(lam), 2 + gi)
        lo, hi = wilson_interval(hits, trials)
        rows.append({"snr": lam, "power": hits / trials,
                     "power_lo": lo, "power_hi": hi,
                     "type1": type1, "threshold": threshold,
                     "n": n, "trials": trials})
    return rows
