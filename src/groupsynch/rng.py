"""Reproducible random-number streams.

All sampling in the package goes through Philox, a counter-based generator,
keyed from a user seed plus a tuple of small integers naming the stream
(e.g. the trial index, or a per-frequency index).  Streams with different
names are statistically independent, so parallel trials can each derive
their own generator without sharing state.
"""
from __future__ import annotations

import numpy as np

from ._rules import COUNT

__all__ = ["make_rng", "spawn_seeds"]


def make_rng(seed, *stream) -> np.random.Generator:
    """Return a Philox generator keyed by ``seed`` and a stream name.

    ``seed`` and each label of ``stream`` are integers >= 0 (never bools);
    (seed, *stream) fully determines the output.  ``seed=None`` gives fresh
    OS entropy.
    """
    stream = tuple(int(COUNT.check("stream", s)) for s in stream)
    if seed is None:
        return np.random.Generator(np.random.Philox())
    entropy = (int(COUNT.check("seed", seed)),) + stream
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def spawn_seeds(seed, count, stream=0) -> list[int]:
    """Derive ``count`` child seeds from (seed, stream) for independent trials.

    Different ``stream`` labels give disjoint seed families, so e.g.
    calibration draws and evaluation draws never share randomness.  ``seed``
    (unless None), ``count`` and ``stream`` are integers >= 0.
    """
    COUNT.check("count", count)
    COUNT.check("stream", stream)
    if seed is None:
        ss = np.random.SeedSequence()
    else:
        ss = np.random.SeedSequence((int(COUNT.check("seed", seed)), int(stream)))
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]
