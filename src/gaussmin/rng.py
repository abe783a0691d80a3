"""Counter-keyed random streams.

Every randomized routine in the package draws from Philox generators keyed
by (seed, stream index), so results are reproducible and independent of how
work is partitioned across tasks.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xD1CE

# Each verify check's stream, keyed by the one verify seed.  No two may be
# equal: the comass check's base points are calibration.ambient_samples' first
# draw, so on the closedness stream both checks would probe the same points.
VERIFY_STREAMS = {"comass": 0, "tangent_distance": 1, "closedness": 3}


def substream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)  # raises outside [0, 2^64)
    return np.random.Generator(np.random.Philox(key=key))
