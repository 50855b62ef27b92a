"""Live run monitoring: heartbeats, ETA and straggler alerts in-process.

:class:`ProgressMonitor` subscribes to a :class:`~repro.obs.trace.TraceRecorder`
stream (:meth:`~repro.obs.trace.TraceRecorder.subscribe`) and folds the
records the engine is already emitting into running operational state:

* **planned vs completed** — ``engine.cache_lookup`` spans carry how
  many unique jobs each batch will execute; ``job.done`` events count
  them off.  Throughput and ETA come straight from that ledger;
* **rolling cache-hit ratio** — cache hits / jobs submitted, cumulative
  over every batch the monitor has seen;
* **straggler alerts** — a job whose wall time exceeds
  ``straggler_factor`` × the rolling ``straggler_quantile`` latency is
  flagged the moment its ``job.done`` event arrives (not minutes later
  in an offline report), once at least ``min_samples`` jobs grounded
  the quantile;
* **per-backend breakdown** — job counts and wall-time totals keyed by
  the toolchain backend on each ``job.done`` event.

State is surfaced two ways: **heartbeat JSONL** (``TILT_REPRO_LIVE=<path>``
or ``heartbeat_path=``) — machine-readable ``heartbeat`` / ``alert``
records, the health channel a future ``RemoteBackend`` worker will
stream to its coordinator — and an opt-in **single-line stderr
renderer** (``TILT_REPRO_LIVE_STDERR=1``) for humans watching a long
run.

Off-path cost: nothing.  An engine without a live monitor has an empty
listener tuple on its recorder (one truthiness check per record when
tracing is on, no check at all when tracing is off — ``NULL_TRACE``
writes no records).  Monitors only *observe*: results are bit-identical
with monitoring on or off, pinned by ``tests/test_obs.py``.
"""

from __future__ import annotations

import collections
import os
import sys
import threading
import time
from typing import Any, TextIO

from repro.obs.jsonl import append_record
from repro.obs.trace import NullRecorder, TraceRecorder

__all__ = [
    "LIVE_ENV_VAR",
    "LIVE_STDERR_ENV_VAR",
    "ProgressMonitor",
    "auto_attach",
]

#: Environment variable naming the heartbeat JSONL file for new engines.
LIVE_ENV_VAR = "TILT_REPRO_LIVE"

#: Environment variable enabling the single-line stderr renderer.
LIVE_STDERR_ENV_VAR = "TILT_REPRO_LIVE_STDERR"

#: Layout marker for heartbeat records.
HEARTBEAT_VERSION = 1

#: Rolling window of job wall times behind quantiles and stragglers.
DURATION_WINDOW = 256


class ProgressMonitor:
    """Fold a live trace-record stream into progress/health state.

    Attach to an *enabled* recorder with :meth:`attach` (or use the
    instance as a context manager); every record the recorder writes is
    then fed to this monitor synchronously.  All state mutation happens
    under one lock, so multi-threaded backends (async executor threads)
    are safe.
    """

    def __init__(self, recorder: TraceRecorder, *,
                 heartbeat_path: str | os.PathLike[str] | None = None,
                 stream: TextIO | None = None,
                 straggler_quantile: float = 0.90,
                 straggler_factor: float = 4.0,
                 min_samples: int = 20) -> None:
        if not recorder.enabled:
            raise ValueError(
                "ProgressMonitor needs an enabled TraceRecorder; there "
                "is nothing to monitor on NULL_TRACE"
            )
        self._recorder = recorder
        self._heartbeat_path = (os.path.abspath(os.fspath(heartbeat_path))
                                if heartbeat_path is not None else None)
        self._stream = stream
        self._straggler_quantile = straggler_quantile
        self._straggler_factor = straggler_factor
        self._min_samples = min_samples
        self._lock = threading.Lock()
        self._attached = False
        self._started_monotonic: float | None = None
        # progress ledger
        self._planned = 0
        self._completed = 0
        self._jobs_seen = 0
        self._cache_hits = 0
        self._deduplicated = 0
        self._batches = 0
        self._alerts = 0
        self._last_fanout: dict[str, Any] | None = None
        self._durations: collections.deque[float] = collections.deque(
            maxlen=DURATION_WINDOW
        )
        self._backends: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "ProgressMonitor":
        self._recorder.subscribe(self._on_record)
        self._attached = True
        return self

    def detach(self) -> None:
        self._recorder.unsubscribe(self._on_record)
        self._attached = False

    def __enter__(self) -> "ProgressMonitor":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    @property
    def heartbeat_path(self) -> str | None:
        return self._heartbeat_path

    # ------------------------------------------------------------------
    # Record stream
    # ------------------------------------------------------------------
    def _on_record(self, record: dict[str, Any]) -> None:
        kind = record.get("kind")
        name = record.get("name")
        if kind == "event" and name == "job.done":
            self._note_job_done(record.get("attrs") or {})
        elif kind == "event" and name == "sampling.planned":
            with self._lock:
                self._last_fanout = dict(record.get("attrs") or {})
        elif kind == "span" and name == "engine.cache_lookup":
            self._note_cache_lookup(record.get("attrs") or {})
        elif kind == "span" and name == "engine.batch":
            self._note_batch_end(record.get("attrs") or {})

    def _note_cache_lookup(self, attrs: dict[str, Any]) -> None:
        with self._lock:
            if self._started_monotonic is None:
                self._started_monotonic = time.monotonic()
            unique = int(attrs.get("unique", 0) or 0)
            hits = int(attrs.get("cache_hits", 0) or 0)
            dupes = int(attrs.get("deduplicated", 0) or 0)
            self._planned += unique
            self._cache_hits += hits
            self._deduplicated += dupes
            self._jobs_seen += unique + hits + dupes

    def _note_job_done(self, attrs: dict[str, Any]) -> None:
        wall = float(attrs.get("wall_time_s", 0.0) or 0.0)
        backend = str(attrs.get("backend", "unknown"))
        with self._lock:
            if self._started_monotonic is None:
                self._started_monotonic = time.monotonic()
            self._completed += 1
            threshold = self._straggler_threshold()
            self._durations.append(wall)
            row = self._backends.setdefault(
                backend, {"jobs": 0.0, "wall_s": 0.0}
            )
            row["jobs"] += 1
            row["wall_s"] += wall
            straggler = threshold is not None and wall > threshold
            if straggler:
                self._alerts += 1
            snapshot = self._snapshot("job")
        if straggler:
            self._emit({
                "v": HEARTBEAT_VERSION,
                "kind": "alert",
                "alert": "straggler",
                "ts": time.time(),
                "pid": os.getpid(),
                "wall_time_s": wall,
                "threshold_s": threshold,
                "spec_key": attrs.get("spec_key"),
                "label": attrs.get("label"),
                "backend": backend,
            })
        self._emit(snapshot)
        self._render(snapshot)

    def _note_batch_end(self, attrs: dict[str, Any]) -> None:
        with self._lock:
            self._batches += 1
            snapshot = self._snapshot("batch")
            snapshot["batch"] = {
                "jobs": attrs.get("jobs"),
                "cache_hits": attrs.get("cache_hits"),
                "deduplicated": attrs.get("deduplicated"),
                "executed": attrs.get("executed"),
            }
        self._emit(snapshot)
        self._render(snapshot, final=True)

    # ------------------------------------------------------------------
    # Derived state (callers hold the lock)
    # ------------------------------------------------------------------
    def _straggler_threshold(self) -> float | None:
        if len(self._durations) < self._min_samples:
            return None
        ordered = sorted(self._durations)
        rank = min(len(ordered) - 1,
                   max(0, int(self._straggler_quantile * len(ordered))))
        return ordered[rank] * self._straggler_factor

    def _snapshot(self, phase: str) -> dict[str, Any]:
        elapsed = (time.monotonic() - self._started_monotonic
                   if self._started_monotonic is not None else 0.0)
        throughput = self._completed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self._planned - self._completed)
        eta = remaining / throughput if throughput > 0 else None
        snapshot: dict[str, Any] = {
            "v": HEARTBEAT_VERSION,
            "kind": "heartbeat",
            "phase": phase,
            "ts": time.time(),
            "pid": os.getpid(),
            "planned": self._planned,
            "completed": self._completed,
            "remaining": remaining,
            "elapsed_s": elapsed,
            "throughput_jps": throughput,
            "eta_s": eta,
            "jobs_seen": self._jobs_seen,
            "cache_hits": self._cache_hits,
            "deduplicated": self._deduplicated,
            "cache_hit_ratio": (self._cache_hits / self._jobs_seen
                                if self._jobs_seen else 0.0),
            "batches": self._batches,
            "alerts": self._alerts,
            "backends": {
                backend: dict(row)
                for backend, row in sorted(self._backends.items())
            },
        }
        if self._last_fanout is not None:
            snapshot["fanout"] = dict(self._last_fanout)
        return snapshot

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    def _emit(self, record: dict[str, Any]) -> None:
        if self._heartbeat_path is None:
            return
        try:
            append_record(self._heartbeat_path, record)
        except OSError:
            # a full disk or vanished directory must not fail the run;
            # the heartbeat channel simply goes quiet
            pass

    def _render(self, snapshot: dict[str, Any], final: bool = False) -> None:
        if self._stream is None:
            return
        eta = snapshot.get("eta_s")
        eta_text = f"{eta:.1f}s" if eta is not None else "?"
        line = (
            f"\r[obs.live] {snapshot['completed']}/{snapshot['planned']} "
            f"jobs  {snapshot['throughput_jps']:.1f}/s  eta {eta_text}  "
            f"cache {snapshot['cache_hit_ratio']:.0%}  "
            f"alerts {snapshot['alerts']}"
        )
        try:
            self._stream.write(line + ("\n" if final else ""))
            self._stream.flush()
        except (OSError, ValueError):
            pass  # closed/broken stream: stop rendering, keep running


# ----------------------------------------------------------------------
# Environment-driven attachment (one monitor per recorder path)
# ----------------------------------------------------------------------
_MONITORS: dict[str, ProgressMonitor] = {}
_REGISTRY_LOCK = threading.Lock()


def auto_attach(
    recorder: "TraceRecorder | NullRecorder",
) -> ProgressMonitor | None:
    """Attach the env-configured live monitor to *recorder*, if any.

    Called by :class:`~repro.exec.engine.ExecutionEngine` after trace
    resolution: when tracing is on and :data:`LIVE_ENV_VAR` (or
    :data:`LIVE_STDERR_ENV_VAR`) asks for monitoring, one shared
    :class:`ProgressMonitor` per trace path is created and subscribed.
    Returns the monitor, or ``None`` when monitoring stays off —
    engines never pay for monitoring they did not ask for.
    """
    if not recorder.enabled or recorder.path is None:
        return None
    heartbeat = os.environ.get(LIVE_ENV_VAR, "").strip() or None
    stderr_on = os.environ.get(LIVE_STDERR_ENV_VAR, "").strip() not in (
        "", "0", "false", "no", "off",
    )
    if heartbeat is None and not stderr_on:
        return None
    with _REGISTRY_LOCK:
        monitor = _MONITORS.get(recorder.path)
        if monitor is None:
            monitor = ProgressMonitor(
                recorder,
                heartbeat_path=heartbeat,
                stream=sys.stderr if stderr_on else None,
            )
            monitor.attach()
            _MONITORS[recorder.path] = monitor
        return monitor
