"""The batch execution engine.

:class:`ExecutionEngine` takes a batch of :class:`~repro.exec.jobs.JobSpec`
objects and returns one :class:`~repro.exec.jobs.JobResult` per spec, in
input order.  Work proceeds in three steps:

1. **cache lookup** — specs whose content hash is already in the
   engine's in-memory :class:`~repro.exec.cache.ResultCache`, or in its
   durable :class:`~repro.exec.store.RunStore`, are served immediately;
2. **deduplication** — remaining specs with equal hashes collapse to one
   execution;
3. **execution** — unique specs are handed to a
   :class:`~repro.exec.backends.Backend`: serial in-process for one
   worker, a chunked work-stealing process pool for more.  They arrive
   grouped by circuit, compile key and sampler key, so consecutive jobs
   share one lowering, compiled program and sampler
   (:class:`~repro.exec.backends.CompileMemo`).

Because compilation is seeded, the analytic noise model is closed-form
and every draw of stochastic sampling is a pure function of ``(seed,
global shot index)``, serial and pooled batches produce bit-identical
results; they differ only in wall-clock time.  Batch-level counters
(cache hits/misses, jobs executed, per-job timings) accumulate as plain
attributes of ``engine.stats`` (:class:`EngineStats`) for the acceptance
checks and the progress report; ``engine.stats.reset()`` zeroes them
between measurement phases.

Opt-in structured tracing (``ExecutionEngine(trace=...)`` or
``TILT_REPRO_TRACE=<path>``) records each batch as a span tree —
``engine.batch`` → ``engine.cache_lookup`` / ``engine.dispatch`` (with a
``job.done`` event and a worker-side ``job.execute`` span per executed
job) → ``engine.flush``, appended to a torn-line-tolerant JSONL file
that ``python -m repro.obs.report`` analyses offline.  See
:mod:`repro.obs`.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.exceptions import ReproError
from repro.exec.backends import (
    Backend,
    CompileMemo,
    WORKERS_ENV_VAR,
    execute_spec,
    resolve_backend,
    resolve_workers,
    sharing_order,
)
from repro.exec.cache import ResultCache
from repro.exec.jobs import JobResult, JobSpec, spec_key
from repro.exec.store import RunStore, collect_provenance
from repro.obs import HISTORY_ENV_VAR
from repro.obs.trace import NullRecorder, TraceRecorder, activate, resolve_trace

if TYPE_CHECKING:
    from repro.obs.history import RunLedger

__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "WORKERS_ENV_VAR",
    "default_engine",
    "execute_spec",
    "reset_default_engine",
    "resolve_backend",
    "resolve_workers",
    "run_jobs",
]

#: Type of the optional progress callback: (jobs finished, total, result).
ProgressCallback = Callable[[int, int, JobResult], None]


class EngineStats:
    """Cumulative counters over every batch an engine has run.

    Plain attributes, written only by the batch loop in the thread that
    runs the batch.  Per-job wall times are kept bounded: the count and
    sum over every job are ``jobs_executed`` and ``execution_time_s``,
    beside an exact running min and max, and only the last
    :data:`JOB_TIME_TAIL` times are kept, for ``job_times_s`` and the
    quantiles of :meth:`job_time_summary`.
    """

    #: Recent per-job wall times kept for ``job_times_s`` and quantiles.
    JOB_TIME_TAIL = 256

    def __init__(self) -> None:
        self._job_times: deque[float] = deque(maxlen=self.JOB_TIME_TAIL)
        self.reset()

    @property
    def cache_misses(self) -> int:
        """Specs that had to be executed (submitted minus hits and dupes)."""
        return self.jobs_submitted - self.cache_hits - self.deduplicated

    @property
    def job_times_s(self) -> list[float]:
        """The most recent executed-job wall times, oldest first.

        At most :data:`JOB_TIME_TAIL` entries; the count and sum over
        *every* job are ``jobs_executed`` and ``execution_time_s``.
        """
        return list(self._job_times)

    def job_time_summary(self) -> dict[str, float]:
        """Per-job wall times as plain JSON: count, sum, mean, min and
        max over every job, nearest-rank p50/p90/p99 over the recent
        tail — what history records carry as their ``latency`` section."""
        count, total = self.jobs_executed, self.execution_time_s
        tail = sorted(self._job_times)

        def quantile(q: float) -> float:
            return tail[math.ceil(q * len(tail)) - 1] if tail else 0.0

        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": self._job_time_min if count else 0.0,
            "max": self._job_time_max if count else 0.0,
            "p50": quantile(0.50),
            "p90": quantile(0.90),
            "p99": quantile(0.99),
        }

    def record_job(self, wall_time_s: float) -> None:
        """Fold one executed job's wall time into the counters."""
        self.jobs_executed += 1
        self.execution_time_s += wall_time_s
        self._job_times.append(wall_time_s)
        self._job_time_min = min(self._job_time_min, wall_time_s)
        self._job_time_max = max(self._job_time_max, wall_time_s)

    def reset(self) -> None:
        """Zero every counter (the cache itself is untouched).

        Lets callers measure phases separately — e.g. a benchmark
        resetting between its cold and warm passes so each phase reports
        its own cache-hit/dedup numbers instead of cumulative totals.
        """
        self.jobs_submitted = 0
        self.jobs_executed = 0
        self.cache_hits = 0
        self.deduplicated = 0
        self.execution_time_s = 0.0
        self.batch_time_s = 0.0
        self._job_times.clear()
        self._job_time_min = math.inf
        self._job_time_max = -math.inf

    def to_dict(self) -> dict[str, float]:
        """Plain-JSON snapshot of every counter plus derived rates.

        This is what gets dumped next to search results / CI artifacts so
        cache-hit-rate regressions are visible across runs.  The raw
        counters come first so two snapshots can be subtracted; the
        derived ``cache_misses`` / ``cache_hit_rate`` entries are
        recomputed from whichever counters the consumer ends up with.
        """
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_executed": self.jobs_executed,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (
                self.cache_hits / self.jobs_submitted
                if self.jobs_submitted else 0.0
            ),
            "execution_time_s": self.execution_time_s,
            "batch_time_s": self.batch_time_s,
        }

    def summary(self) -> str:
        return (
            f"{self.jobs_submitted} jobs: {self.jobs_executed} executed, "
            f"{self.cache_hits} cache hits, {self.deduplicated} deduplicated "
            f"({self.execution_time_s:.2f} s work in "
            f"{self.batch_time_s:.2f} s wall)"
        )


class ExecutionEngine:
    """Run batches of jobs with caching, deduplication and a backend.

    Parameters
    ----------
    workers:
        The one execution choice.  ``1`` (the default) selects the
        serial backend — fully deterministic; more selects the process
        pool; ``0`` means "one per CPU"; ``None`` defers to the
        ``TILT_REPRO_WORKERS`` environment variable.
    store:
        The one persistence knob: a :class:`~repro.exec.store.RunStore`
        (or a directory path for one).  Results persist per job in
        append-only segments, so an interrupted run keeps everything it
        finished and a later engine on the same store resumes from it.
        ``None`` (the default) keeps results in a private in-memory
        :class:`ResultCache` for the engine's lifetime.
    backend:
        A :class:`~repro.exec.backends.Backend` instance to run every
        batch on, used exactly as constructed; ``None`` (the default)
        lets *workers* pick serial or pool per batch.
    progress:
        Optional callback invoked after every finished job with
        ``(jobs done, total, result)``.
    trace:
        Opt-in structured tracing: a
        :class:`~repro.obs.trace.TraceRecorder`, a path for one, or
        ``None`` — which consults the ``TILT_REPRO_TRACE`` environment
        variable and leaves tracing off when it is unset.  Tracing only
        *observes*: results are bit-identical with it on or off.
    history:
        Opt-in cross-run telemetry: a
        :class:`~repro.obs.history.RunLedger`, a path for one, or
        ``None`` — which consults the ``TILT_REPRO_HISTORY`` environment
        variable.  When on, every batch appends one summarized record
        (``stats.to_dict()``, backend config, cache ratios, latency
        quantiles, provenance, trace path) to the ledger that
        ``python -m repro.obs.history`` analyses across runs.
    """

    def __init__(self, *, workers: int | None = 1,
                 store: RunStore | str | os.PathLike[str] | None = None,
                 backend: Backend | None = None,
                 progress: ProgressCallback | None = None,
                 trace: TraceRecorder | NullRecorder | str
                        | os.PathLike[str] | None = None,
                 history: RunLedger | str
                          | os.PathLike[str] | None = None) -> None:
        self.workers = resolve_workers(workers)
        self.trace = resolve_trace(trace)
        # With history off, the ledger module (and its CLI imports) is
        # never loaded.
        self.history: RunLedger | None = None
        if history is not None or os.environ.get(HISTORY_ENV_VAR, "").strip():
            from repro.obs.history import resolve_ledger

            self.history = resolve_ledger(history)
        self._history_provenance: dict[str, object] | None = None
        if store is None:
            self.cache: ResultCache | RunStore = ResultCache()
        else:
            self.cache = (store if isinstance(store, RunStore)
                          else RunStore(store))
        self.backend = backend
        self.progress = progress
        self.stats = EngineStats()

    @property
    def store(self) -> RunStore | None:
        """The durable run store backing this engine, if any."""
        return self.cache if isinstance(self.cache, RunStore) else None

    def describe_backend(self, workers: int | None = None) -> str:
        """Identity string of the backend a batch would run on."""
        count = self.workers if workers is None else resolve_workers(workers)
        return resolve_backend(self.backend, count).describe()

    def describe_backend_config(self, workers: int | None = None
                                ) -> dict[str, object]:
        """Structured dispatch configuration of the batch backend.

        The dict form of :meth:`describe_backend` — worker counts and
        chunking parameters as real values, recorded in traces and
        :class:`~repro.exec.store.RunManifest` so the actual dispatch
        configuration of a run is machine-readable.
        """
        count = self.workers if workers is None else resolve_workers(workers)
        return resolve_backend(self.backend, count).describe_config()

    def append_history(self, kind: str, *, label: str | None = None,
                       metrics: dict[str, object] | None = None,
                       cache: dict[str, object] | None = None,
                       extra: dict[str, object] | None = None,
                       workers: int | None = None) -> str | None:
        """Append one summarized record to the run ledger (if one is on).

        Fills in what only the engine knows — backend configuration,
        latency quantiles from :meth:`EngineStats.job_time_summary`,
        cached git/seed provenance and the trace path — so callers (the
        engine's own batch loop, :func:`repro.search.runner.run_search`)
        only supply their ``kind``, their counters (*metrics*) and
        their own sections.  Returns the record id, or ``None``
        when history recording is off (the near-free path: one
        attribute check).
        """
        if self.history is None:
            return None
        if self._history_provenance is None:
            # collected once per engine: git subprocess calls are not
            # per-batch money
            self._history_provenance = collect_provenance(
                trace=self.trace.path if self.trace.enabled else None,
            )
        from repro.obs.history import new_record

        record = new_record(
            kind,
            label=label,
            metrics=metrics,
            backend=self.describe_backend_config(workers),
            cache=cache,
            latency=self.stats.job_time_summary(),
            provenance=self._history_provenance,
            trace=self.trace.path if self.trace.enabled else None,
            extra=extra,
        )
        return self.history.append(record)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_one(self, spec: JobSpec) -> JobResult:
        """Run a single spec (through the cache)."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[JobSpec], *,
            workers: int | None = None) -> list[JobResult]:
        """Run *specs*, returning one result per spec in input order.

        ``workers`` overrides the engine's worker count for this batch
        only (engine state is not mutated).  A :class:`Backend` instance
        given to the engine owns its parallelism and is used exactly as
        constructed — ``workers`` does not reconfigure it.
        """
        trace = self.trace
        batch_start = time.perf_counter()
        batch_workers = (self.workers if workers is None
                         else resolve_workers(workers))
        with activate(trace), trace.span(
            "engine.batch", jobs=len(specs), workers=batch_workers,
        ) as batch_span:
            circuits: dict[int, bytes] = {}  # each circuit encoded once
            keys = [spec_key(spec, circuits) for spec in specs]
            results: list[JobResult | None] = [None] * len(specs)
            done = 0
            total = len(specs)

            # 1. Serve cache hits; 2. collapse duplicates to one execution.
            pending: dict[str, list[int]] = {}
            with trace.span("engine.cache_lookup") as lookup_span:
                for index, (spec, key) in enumerate(zip(specs, keys)):
                    cached = self.cache.get(key)
                    if cached is not None:
                        results[index] = cached.with_cache_hit(
                            label=spec.label
                        )
                        self.stats.cache_hits += 1
                        done += 1
                        if self.progress is not None:
                            self.progress(done, total, results[index])
                    else:
                        pending.setdefault(key, []).append(index)
                unique = [(key, specs[indices[0]])
                          for key, indices in pending.items()]
                batch_hits = done
                batch_dupes = sum(
                    len(indices) - 1 for indices in pending.values()
                )
                self.stats.jobs_submitted += len(specs)
                self.stats.deduplicated += batch_dupes
                lookup_span.add(cache_hits=batch_hits,
                                deduplicated=batch_dupes,
                                unique=len(unique))

            # 3. Execute the unique misses on the selected backend.
            # Results stream: each one is stored (durably, for a
            # RunStore) as it arrives, so an interrupted serial run
            # keeps its finished jobs.
            batch_executed = 0
            batch_exec_time = 0.0
            with trace.span("engine.dispatch", jobs=len(unique)):
                for key, result in self._execute_all(unique, batch_workers):
                    indices = pending.pop(key, None)
                    if indices is None:
                        raise ReproError(
                            f"backend returned a result for spec key "
                            f"{key} that this batch did not submit, or "
                            f"returned it twice"
                        )
                    self.cache.store(result)
                    self.stats.record_job(result.wall_time_s)
                    batch_executed += 1
                    batch_exec_time += result.wall_time_s
                    if trace.enabled:
                        trace.event(
                            "job.done", spec_key=key,
                            wall_time_s=result.wall_time_s,
                            backend=result.backend, label=result.label,
                        )
                    for position, index in enumerate(indices):
                        if position == 0:
                            results[index] = result
                        else:  # duplicate spec in batch: shared result
                            results[index] = result.with_cache_hit(
                                label=specs[index].label
                            )
                        done += 1
                        if self.progress is not None:
                            self.progress(done, total, results[index])

            with trace.span("engine.flush"):
                self.cache.flush()
            if pending:
                raise ReproError(
                    f"backend returned no result for {len(pending)} of "
                    f"{len(unique)} submitted job(s); missing spec keys: "
                    + ", ".join(sorted(pending))
                )
            self.stats.batch_time_s += time.perf_counter() - batch_start
            if trace.enabled:
                batch_span.add(cache_hits=batch_hits,
                               deduplicated=batch_dupes,
                               executed=batch_executed,
                               execution_time_s=batch_exec_time)
                trace.merge_segments()
        if self.history is not None:
            jobs = len(specs)
            self.append_history(
                "engine.batch",
                metrics=self.stats.to_dict(),
                cache={
                    "jobs": jobs,
                    "cache_hits": batch_hits,
                    "deduplicated": batch_dupes,
                    "executed": batch_executed,
                    "hit_ratio": batch_hits / jobs if jobs else 0.0,
                },
                extra={"execution_time_s": batch_exec_time,
                       "workers": batch_workers},
                workers=batch_workers,
            )
        return results  # type: ignore[return-value]  # no slot left empty

    # ------------------------------------------------------------------
    # Backend dispatch
    # ------------------------------------------------------------------
    def _execute_all(
        self, unique: list[tuple[str, JobSpec]], workers: int,
    ) -> Iterable[tuple[str, JobResult]]:
        """Yield each unique job's result as its backend finishes it.

        The backend receives the jobs in
        :func:`~repro.exec.backends.sharing_order`, so each circuit is
        lowered, and each compiled program and sampler built, once per
        loop.
        A generator end to end: serial and process backends stream, so
        the caller persists every result the moment it exists (the
        durable-store guarantee).  If a pooled backend breaks
        (:class:`concurrent.futures.BrokenExecutor`: a pool that cannot
        start in a sandbox without semaphores or fork, an OOM-killed
        worker), the jobs *not yet yielded* re-run on the serial path —
        execute_spec is pure, so the retry is safe, and already-yielded
        results are not re-executed or double-counted.  An error raised
        *by a job* (an ``OSError`` included) propagates unchanged: the
        job ran once and failed, and running it again would not help.
        """
        if not unique:
            return
        resolved = resolve_backend(self.backend, workers)
        ordered = sharing_order(unique)
        try:
            done: set[str] = set()
            try:
                for key, result in resolved.submit(ordered):
                    done.add(key)
                    yield key, result
            except concurrent.futures.BrokenExecutor:
                memo = CompileMemo()
                for key, spec in ordered:
                    if key not in done:
                        yield key, execute_spec(spec, key, memo)
        finally:
            if resolved is not self.backend:  # engine-constructed: release it
                resolved.close()


# ----------------------------------------------------------------------
# The process-wide default engine
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: ExecutionEngine | None = None


def default_engine() -> ExecutionEngine:
    """The process-wide shared engine (created on first use).

    Its in-memory cache is what makes repeated sweep invocations inside
    one process free; its worker count, and with it serial or pool,
    comes from ``TILT_REPRO_WORKERS`` (default: serial).
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExecutionEngine(workers=None)
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Drop the shared engine (mainly for tests)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = None


def run_jobs(specs: Sequence[JobSpec], *,
             workers: int | None = None,
             engine: ExecutionEngine | None = None) -> list[JobResult]:
    """Run *specs* on *engine* (default: the shared engine).

    ``workers`` overrides the engine's worker count for this call only,
    so callers can opt into parallelism without reconfiguring the
    engine.
    """
    chosen = engine if engine is not None else default_engine()
    return chosen.run(specs, workers=workers)
