# repro-lint: treat-as=src/repro/sim/badseed.py
"""RPR009 positives: seeds that do not derive from parameters.

All constructions are *seeded* (so RPR001 stays quiet — one finding
per defect); what is wrong is where the seed comes from.
"""

from __future__ import annotations

import random

import numpy as np

from repro.sim.stochastic import TRIGGER_STREAM, mix

GLOBAL_SEED = 42

# RPR009: module-level generator - stream position is import-order state
_RNG = np.random.default_rng(0)


def constant_stream(shots: int) -> list:
    # RPR009: constant seed - every call site shares one stream
    rng = np.random.default_rng(1234)
    return [rng.random() for _ in range(shots)]


def ambient_stream(shots: int) -> list:
    # RPR009: seeded from a module global, not a parameter
    rng = np.random.default_rng(GLOBAL_SEED)
    return [rng.random() for _ in range(shots)]


def derived_from_constants(shots: int) -> list:
    base = 7
    offset = 3
    # RPR009: dataflow roots only in constants, never in a parameter
    rng = random.Random(base + offset)
    return [rng.random() for _ in range(shots)]


def ambient_mix(shot: int):
    # RPR009: the counter-based draw is keyed on a module global
    return mix(GLOBAL_SEED, shot, TRIGGER_STREAM, 0)
