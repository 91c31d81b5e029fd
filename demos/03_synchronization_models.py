"""The observation models: circle prior, cyclic prior, general finite group,
and the noisy-indicator view that reduces to them.

Demonstrates the channel layout per model, the exact coupling between the
cyclic sampler and the group sampler over the same cyclic group, and the
change of basis that takes per-pair score tables to per-irrep matrices.
"""
import math

import numpy as np

from groupsynch import build_catalog
from groupsynch.models import (Model, indicator_to_canonical, sample_gsynch_circle,
                               sample_gsynch_cyclic, sample_gsynch_group, sample_indicator)

n = 12
obs = sample_gsynch_circle(3, [0.5, 0.8, 1.1], n, seed=1)
print("circle prior, 3 channels:",
      [(f.label, f.type_tag, f.matrix.shape) for f in obs.freqs])

obs = sample_gsynch_cyclic(6, 0.9, n, seed=2)
print("cyclic(6) prior, floor(6/2) = 3 nonredundant channels:",
      [(f.label, f.type_tag) for f in obs.freqs])

group, full = build_catalog("quaternion8")
obs = sample_gsynch_group(group, full.nonredundant(), 0.7, n, seed=3)
print("quaternion8 channels:",
      [(f.label, f.type_tag, f.matrix.shape) for f in obs.freqs])

# the cyclic sampler is the group sampler specialized to a cyclic group:
# Model.from_name reads "group(cyclic(4))" as the catalog group cyclic(4)
a = sample_gsynch_cyclic(4, 0.8, n, seed=4)
b = Model.from_name("group(cyclic(4))", snr=0.8).sample(n, seed=4)
same = all(np.array_equal(np.asarray(x.matrix, dtype=complex),
                          np.asarray(y.matrix, dtype=complex))
           for x, y in zip(a.freqs, b.freqs))
print("cyclic sampler == group sampler over cyclic(4), bit for bit:", same)

# noisy indicator scores -> canonical channels
group, full = build_catalog("dihedral(3)")
snr = 0.9
gamma = snr * math.sqrt(group.order / n)
obs = sample_indicator(group, n, gamma, seed=5)
canon = indicator_to_canonical(obs, group, full)
print(f"indicator tables with bump height {gamma:.3f} map to channels:",
      [(f.label, f.matrix.shape, f"snr={f.snr:.2f}") for f in canon.freqs])

# the planted bump sits at the true relative element
signal = obs.signal
rel = group.mul[signal[0], group.inverse[signal[1]]]
score = obs.scores[0, 1].real
print(f"pair (0,1): true relative element {group.label(rel)!r}, "
      f"scores {np.round(score, 2)}")
