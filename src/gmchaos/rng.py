"""Splittable, counter-based random streams.

Every stochastic object in the library draws from a Philox generator whose
key is derived from (experiment seed, purpose tag, replica id, level or
probe keys) through a SeedSequence spawn key.  Streams for distinct tuples
are independent, there is no global generator state, and replicas can run
in any order or in parallel without coordination.  Two purposes draw
randomness: the level and level-block fields of a replica and the
grid-free Monte Carlo probes.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keep streams for different subsystems disjoint even when the
# remaining key components collide.
TAG_FIELD = 0
TAG_PROBE = 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def field_stream(seed: int, replica: int, *levels: int) -> np.random.Generator:
    """Stream feeding one field of one replica: a level's field keyed by the
    level, the field of the block of levels lo..hi keyed by (lo, hi)."""
    return stream(seed, TAG_FIELD, replica, *levels)


def probe_stream(seed: int, *key: int) -> np.random.Generator:
    """Stream for Monte Carlo probes detached from any grid."""
    return stream(seed, TAG_PROBE, *key)
