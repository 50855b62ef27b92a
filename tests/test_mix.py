"""Tests for ``mix``, the counter-based source of every sampled number.

``mix(seed, shot, stream, counter)`` is the sampler's whole randomness
contract, so it is pinned three ways: against an independent
pure-Python implementation (known answers, including the wide seeds and
shot indices a fixed-width entropy scheme would have to special-case),
by shard merging at those widths, and by a cheap statistical check of
uniformity and independence.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.noise.channels import ErrorSite, SiteTable
from repro.sim.stochastic import (
    LABEL_STREAM,
    LEAK_STREAM,
    OUTCOME_STREAM,
    TRIGGER_STREAM,
    StochasticSampler,
    merge_shot_results,
    mix,
)

STREAMS = (TRIGGER_STREAM, LABEL_STREAM, OUTCOME_STREAM, LEAK_STREAM)

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_mix(seed: int, shot: int, stream: int, counter: int) -> float:
    """``mix`` in plain Python integers masked to 64 bits."""
    key = 0
    while True:
        key = _finalize(((key ^ (seed & M64)) + GOLDEN) & M64)
        seed >>= 64
        if not seed:
            break
    word = (stream << 56) | counter
    column = _finalize((key + word * GOLDEN) & M64)
    return (_finalize((column + shot * GOLDEN) & M64) >> 11) / 2.0 ** 53


class TestKnownAnswers:
    @pytest.mark.parametrize("seed, shot, stream, counter", [
        (0, 0, TRIGGER_STREAM, 0),
        (2021, 17, TRIGGER_STREAM, 3),
        (7, 2**32 + 5, LABEL_STREAM, 11),        # shot index >= 2**32
        (2**64 + 2021, 3, OUTCOME_STREAM, 0),     # seed >= 2**64
        (2**130 + 1, 2**40, LEAK_STREAM, 15),     # three seed words
        (M64, M64, LEAK_STREAM, 2**56 - 1),       # every field at its max
    ])
    def test_matches_the_pure_python_definition(self, seed, shot, stream,
                                                counter):
        value = mix(seed, shot, stream, counter)
        assert value.shape == (1,)
        assert value[0] == reference_mix(seed, shot, stream, counter)

    def test_arrays_broadcast_to_the_scalar_answers(self):
        shots = np.array([0, 1, 2**33], dtype=np.uint64)
        counters = np.arange(4)
        grid = mix(99, shots[:, None], LABEL_STREAM, counters)
        assert grid.shape == (3, 4)
        for i, shot in enumerate(shots.tolist()):
            for counter in counters.tolist():
                assert grid[i, counter] == reference_mix(99, shot,
                                                         LABEL_STREAM,
                                                         counter)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(SimulationError):
            mix(-1, 0, TRIGGER_STREAM, 0)


class TestWideEntropy:
    def test_seed_is_not_truncated_to_64_bits(self):
        shots = np.arange(64, dtype=np.uint64)
        for seed in (0, 2021):
            assert not np.array_equal(
                mix(seed, shots, TRIGGER_STREAM, 0),
                mix(seed + 2**64, shots, TRIGGER_STREAM, 0),
            )

    @staticmethod
    def _sampler():
        return StochasticSampler(
            architecture="x", circuit_name="y",
            table=SiteTable.from_sites([
                ErrorSite(index=0, kind="pauli1", qubits=(0,),
                          probability=0.25),
                ErrorSite(index=1, kind="pauli2", qubits=(0, 1),
                          probability=0.1),
            ]),
        )

    def test_wide_seed_shards_merge_into_the_serial_run(self):
        sampler = self._sampler()
        seed = 2**64 + 2021
        serial = sampler.run(300, seed=seed)
        shards = [sampler.run(width, seed=seed, shot_offset=offset)
                  for offset, width in ((0, 100), (100, 200))]
        assert merge_shot_results(shards) == serial
        narrow = sampler.run(300, seed=2021)
        assert serial.errors_per_shot != narrow.errors_per_shot

    def test_shards_straddling_shot_2_to_the_32_merge(self):
        sampler = self._sampler()
        offset = 2**32 - 50
        serial = sampler.run(100, seed=3, shot_offset=offset)
        shards = [sampler.run(50, seed=3, shot_offset=offset + start)
                  for start in (0, 50)]
        assert merge_shot_results(shards) == serial

    def test_shot_indices_beyond_64_bits_are_rejected(self):
        with pytest.raises(SimulationError):
            self._sampler().run(10, seed=1, shot_offset=2**64 - 5)


class TestStatistics:
    """2**16 draws per stream: (256 shots) x (256 counters)."""

    @pytest.mark.parametrize("stream", STREAMS)
    def test_uniform_and_independent(self, stream):
        shots = np.arange(256, dtype=np.uint64)[:, None]
        draws = mix(2021, shots, stream, np.arange(256))
        assert draws.min() >= 0.0 and draws.max() < 1.0
        observed = np.bincount((draws * 64).astype(np.int64).ravel(),
                               minlength=64)
        expected = draws.size / 64
        chi_square = float(((observed - expected) ** 2 / expected).sum())
        # 63 degrees of freedom: the 99.99th percentile is ~114
        assert chi_square < 120, chi_square
        for first, second in ((draws[:-1], draws[1:]),          # shots
                              (draws[:, :-1], draws[:, 1:])):   # counters
            r = np.corrcoef(first.ravel(), second.ravel())[0, 1]
            assert abs(r) < 4.0 / math.sqrt(first.size), r

    def test_streams_are_uncorrelated(self):
        shots = np.arange(256, dtype=np.uint64)[:, None]
        counters = np.arange(256)
        draws = [mix(7, shots, stream, counters).ravel()
                 for stream in STREAMS]
        for a in range(len(STREAMS)):
            for b in range(a + 1, len(STREAMS)):
                r = np.corrcoef(draws[a], draws[b])[0, 1]
                assert abs(r) < 4.0 / math.sqrt(draws[a].size), (a, b, r)
