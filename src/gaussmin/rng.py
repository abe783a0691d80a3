"""Counter-keyed random streams.

Every randomized routine in the package draws from Philox generators keyed
by (seed, stream index), so results are reproducible and independent of how
work is partitioned across tasks.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 0xD1CE

# Each verify check's stream, keyed by the one verify seed.  No two may be
# equal: the comass and closedness checks both sample through
# calibration.ambient_samples, and on one stream would probe the same points.
VERIFY_STREAMS = {"comass": 0, "tangent_distance": 1, "closedness": 3}


def substream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
