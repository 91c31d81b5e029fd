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


@dataclass(frozen=True)
class DetectorConfig:
    alpha: float = 0.05
    calibration_trials: int = 100
    eigen_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise InvalidParameterError("significance level must lie in (0, 1)")
        if self.calibration_trials < 50:
            raise InvalidParameterError("need at least 50 calibration trials")
        if not 0 <= self.eigen_tol < math.inf:
            raise InvalidParameterError("eigen_tol must be finite and nonnegative")


@dataclass(frozen=True)
class DetectionVerdict:
    label: str                  # "p" (planted) or "q" (null)
    per_frequency: tuple        # top eigenvalue per channel
    threshold: float


def max_top_eigenvalue(obs: SynchObservation, tol: float = 1e-8):
    vals = tuple(top_eigenvalue(f.matrix, tol=tol) for f in obs.freqs)
    return max(vals), vals


def calibrate_threshold(model: Model, n: int, config: DetectorConfig,
                        seed=None) -> float:
    """(1 - alpha) empirical quantile of the null max-eigenvalue statistic.

    The quantile uses the conservative (next-higher order statistic) rule,
    so small calibration samples err on the side of fewer false alarms.
    At alpha -> 1 this degrades to the sample minimum.
    """
    null = model.null()
    stats = np.empty(config.calibration_trials)
    for t, s in enumerate(spawn_seeds(seed, config.calibration_trials)):
        stats[t] = max_top_eigenvalue(null.sample(n, s), config.eigen_tol)[0]
    return float(np.quantile(stats, 1.0 - config.alpha, method="higher"))


def detect(obs: SynchObservation, threshold: float, tol: float = 1e-8) -> DetectionVerdict:
    """Declare planted iff the max top eigenvalue exceeds the threshold."""
    stat, vals = max_top_eigenvalue(obs, tol)
    return DetectionVerdict("p" if stat > threshold else "q", vals, float(threshold))


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise InvalidParameterError("trials must be positive")
    if not 0 <= successes <= trials:
        raise InvalidParameterError("successes must lie in [0, trials]")
    phat = successes / trials
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
    snr_grid = list(snr_grid)
    if not snr_grid:
        raise InvalidParameterError("snr grid must be nonempty")
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    threshold = calibrate_threshold(model, n, config, seed=seed)
    rejections = sum(
        detect(model.null().sample(n, s), threshold, config.eigen_tol).label == "p"
        for s in spawn_seeds(seed, trials, stream=1))
    type1 = rejections / trials
    rows = []
    for gi, lam in enumerate(snr_grid):
        planted = model.with_snr(float(lam))
        seeds = spawn_seeds(seed, trials, stream=2 + gi)
        hits = sum(detect(planted.sample(n, s), threshold, config.eigen_tol).label == "p"
                   for s in seeds)
        lo, hi = wilson_interval(hits, trials)
        rows.append({"snr": float(lam), "power": hits / trials,
                     "power_lo": lo, "power_hi": hi,
                     "type1": type1, "threshold": threshold,
                     "n": n, "trials": trials})
    return rows
