"""Deterministic, keyed random streams.

Every stochastic component draws from a Philox counter-based generator
keyed by ``(seed, *key)``.  Streams with different keys are independent,
so results never depend on scheduling, batch composition, or the order
in which components consume randomness.
"""

from __future__ import annotations

import numpy as np

from .config import require


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    require("run", "seed", seed)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, *key) into a single integer seed for a sub-task."""
    state = _seed_sequence(seed, key).generate_state(1, np.uint64)
    return int(state[0])
