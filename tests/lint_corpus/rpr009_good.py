# repro-lint: treat-as=src/repro/sim/goodseed.py
"""RPR009 negatives: every seed expression roots in a parameter.

This is the ``(seed, shot_index)`` discipline that makes shot streams
shard-stable: any worker can re-derive the exact stream for shot *k*
from the spec alone.
"""

from __future__ import annotations

import random

import numpy as np

from repro.sim.stochastic import TRIGGER_STREAM, mix


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, shot_index))


def sample(seed: int, shots: int) -> list:
    values = []
    for shot in range(shots):
        rng = np.random.default_rng((seed, shot))
        values.append(rng.random())
    return values


def spec_stream(spec, offset: int) -> random.Random:
    base = spec.seed + offset
    return random.Random(base)


def trigger_draws(seed: int, shots, draw: int):
    # only mix's seed is audited: stream numbers are module constants
    return mix(seed, shots, TRIGGER_STREAM, draw)
