"""The engine's in-memory result cache.

:class:`ResultCache` maps :func:`~repro.exec.jobs.spec_key` content
hashes to :class:`~repro.exec.jobs.JobResult` records for the life of
one engine, so repeated sweeps inside a process skip all compilation and
simulation work.  It persists nothing: the one on-disk result format is
:class:`~repro.exec.store.RunStore` (``ExecutionEngine(store=...)``).

The engine's outputs are deterministic functions of the spec (compilation
is seeded, the noise model is analytic and every shot's randomness
derives from ``(seed, global shot index)``), so serving a cached result
is behaviour-preserving; only the recorded wall-clock compile timings
reflect the run that first produced the entry.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.jobs import JobResult


class ResultCache:
    """In-memory store of job results, keyed by content hash."""

    def __init__(self) -> None:
        self._memory: dict[str, JobResult] = {}

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory

    def __iter__(self) -> Iterator[str]:
        return iter(dict(self._memory))

    def get(self, key: str) -> JobResult | None:
        """The cached result for *key*, or ``None``."""
        return self._memory.get(key)

    def store(self, result: JobResult) -> None:
        """Insert *result* under its own key."""
        self._memory[result.key] = result

    def clear(self) -> None:
        """Drop every entry."""
        self._memory.clear()

    def flush(self) -> None:
        """No-op: an in-memory cache has nothing to persist."""
