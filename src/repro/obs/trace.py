"""Structured tracing: hierarchical spans and events on append-only JSONL.

:class:`TraceRecorder` is the push-based event stream behind the
engine's observability plane.  Instrumented code opens **spans** (timed,
hierarchical regions — ``engine.batch`` → ``engine.cache_lookup`` /
``engine.dispatch`` → ``job.execute`` → ``engine.flush``) and emits
**events** (point-in-time records such as ``job.done``); every record is
one JSON object appended to a ``.jsonl`` file and flushed immediately,
through the torn-line-tolerant helpers of :mod:`repro.obs.jsonl` that
:class:`~repro.exec.store.RunStore` also uses — a killed process loses
at most its half-written last line.

**Process safety.**  The parent process owns the trace file.  Pool
workers must never append to it concurrently; instead each worker writes
a private sidecar segment (``<trace>.<pid>-<nonce>.seg``, see
:func:`worker_recorder`) and the parent folds finished segments back
into the main file after each traced batch (:meth:`TraceRecorder.merge_segments`).
Worker spans carry the job's content hash in ``attrs["spec_key"]``, which
is how the offline report re-parents them under the batch that dispatched
them — the cross-process glue is the spec key, not a shared span stack.

**Zero cost when off.**  Tracing is opt-in
(``ExecutionEngine(trace=...)`` or the :data:`TRACE_ENV_VAR`
environment variable); untraced code paths see :data:`NULL_TRACE`, whose
``span`` / ``event`` calls are attribute lookups returning a shared
no-op — no I/O, no string formatting, no timestamps.  Tracing must never
influence results: recorders only *read* what instrumented code passes
in, and the bit-identity of traced vs untraced runs is pinned by
``tests/test_obs.py``.

This module is the RPR001 wall-clock carve-out: ``time.time()`` epoch
stamps are legal here (and only here, plus the rest of ``repro.obs``)
because they land exclusively in telemetry records, never in results.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
import uuid
from typing import Any, Iterator

from repro.obs.jsonl import (
    SEGMENT_SUFFIX,
    append_record,
    claim_records,
    read_records,
    sidecar_paths,
)

__all__ = [
    "NULL_TRACE",
    "NullRecorder",
    "TRACE_ENV_VAR",
    "TraceRecorder",
    "activate",
    "current_trace",
    "load_records",
    "resolve_trace",
    "worker_recorder",
]

#: Environment variable naming the default trace file for new engines.
TRACE_ENV_VAR = "TILT_REPRO_TRACE"

#: Layout marker for trace records.
TRACE_VERSION = 1


class Span:
    """One timed region; a context manager handed out by ``recorder.span``.

    ``attrs`` passed at open time (or added with :meth:`add`) are written
    with the record when the span closes.  The wall-clock ``ts`` (epoch
    seconds, ``time.time``) makes spans comparable *across processes*;
    the duration comes from ``time.perf_counter`` so it is immune to
    clock steps.
    """

    __slots__ = ("_recorder", "name", "span_id", "parent_id", "attrs",
                 "ts", "_start")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 attrs: dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.span_id = recorder._next_id()
        self.parent_id: str | None = None
        self.attrs = attrs
        self.ts = 0.0
        self._start = 0.0

    def add(self, **attrs: Any) -> None:
        """Attach more attributes before the span closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._recorder._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        stack = self._recorder._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._recorder._write({
            "v": TRACE_VERSION,
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": self.ts,
            "dur_s": duration,
            "pid": os.getpid(),
            "attrs": self.attrs,
        })


class _NullSpan:
    """The shared do-nothing span of :class:`NullRecorder`."""

    __slots__ = ()

    def add(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Tracing disabled: every operation is a no-op.

    ``enabled`` is the cheap guard instrumented hot loops check before
    building per-record attribute dicts.
    """

    enabled = False
    path: str | None = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def merge_segments(self) -> int:
        return 0

    def close(self) -> None:
        pass


#: The process-wide "tracing off" singleton.
NULL_TRACE = NullRecorder()


class TraceRecorder:
    """Append-only JSONL trace writer with per-thread span stacks.

    One recorder per trace path per process (see :func:`resolve_trace`);
    appends are serialised by a lock and each record is written, flushed
    and closed in one go, so concurrent threads interleave whole lines,
    never fragments.  Span parenthood follows a thread-local stack:
    spans opened on the same thread nest, spans on other threads (or in
    pool workers) start parentless and are re-parented offline via
    their ``spec_key``.
    """

    enabled = True

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = os.path.abspath(os.fspath(path))
        directory = os.path.dirname(self._path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = itertools.count()
        self._write({
            "v": TRACE_VERSION,
            "kind": "meta",
            "pid": os.getpid(),
            "ts": time.time(),
        })

    # ------------------------------------------------------------------
    # Record emission
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The trace file this recorder appends to."""
        return self._path

    def _next_id(self) -> str:
        return f"{os.getpid()}-{next(self._counter)}"

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _write(self, record: dict[str, Any]) -> None:
        with self._lock:
            append_record(self._path, record)

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span context manager (recorded when it exits)."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time record, parented to the current open span."""
        stack = self._stack()
        self._write({
            "v": TRACE_VERSION,
            "kind": "event",
            "name": name,
            "span": stack[-1] if stack else None,
            "ts": time.time(),
            "pid": os.getpid(),
            "attrs": attrs,
        })

    # ------------------------------------------------------------------
    # Worker segment merge
    # ------------------------------------------------------------------
    def merge_segments(self) -> int:
        """Fold finished worker sidecar segments into the main file.

        Returns the number of records merged.  Each sidecar is claimed
        (read, then unlinked) before its records are appended, so a
        sidecar that cannot be removed is left for the next merge and
        none is ever merged twice.
        """
        merged = 0
        for segment in sidecar_paths(self._path):
            records = claim_records(segment, "v", TRACE_VERSION) or []
            for record in records:
                self._write(record)
            merged += len(records)
        return merged

    def close(self) -> None:
        """Merge any outstanding worker segments (idempotent)."""
        self.merge_segments()


class _WorkerRecorder(TraceRecorder):
    """A recorder writing a private sidecar segment next to the trace.

    Pool workers (separate processes) must not interleave appends with
    the parent on one file; each worker process gets its own
    ``<trace>.<pid>-<nonce>.seg`` file instead, merged by the parent
    after the batch.  No meta record — the segment is a fragment of the
    parent trace, not a trace of its own.
    """

    def __init__(self, trace_path: str) -> None:
        sidecar = (
            f"{trace_path}.{os.getpid()}-{uuid.uuid4().hex[:6]}"
            f"{SEGMENT_SUFFIX}"
        )
        self._path = os.path.abspath(sidecar)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = itertools.count()


# ----------------------------------------------------------------------
# The process-wide active recorder
# ----------------------------------------------------------------------
_ACTIVE: TraceRecorder | NullRecorder = NULL_TRACE

#: Recorders by absolute trace path, so every engine resolving the same
#: path (e.g. via the environment variable) shares one writer.
_RECORDERS: dict[str, TraceRecorder] = {}
_REGISTRY_LOCK = threading.Lock()

#: Worker-side sidecar recorders by parent trace path (one per process).
_WORKER_RECORDERS: dict[str, _WorkerRecorder] = {}


def current_trace() -> TraceRecorder | NullRecorder:
    """The recorder instrumented code should emit to right now."""
    return _ACTIVE


@contextlib.contextmanager
def activate(recorder: TraceRecorder | NullRecorder) -> Iterator[None]:
    """Make *recorder* the process-wide active trace for a region.

    The engine activates its recorder around each batch so code that
    cannot be handed a recorder explicitly — :func:`~repro.exec.backends.execute_spec`
    deep inside a backend — still finds it.  Always restores the
    previous recorder, so nested engines (a search driving the shared
    default engine) compose.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield
    finally:
        _ACTIVE = previous


def resolve_trace(
    trace: "TraceRecorder | NullRecorder | str | os.PathLike[str] | None",
) -> TraceRecorder | NullRecorder:
    """Turn a trace selector into a recorder (shared per path).

    ``trace`` may be a recorder (used as-is), a path (recorder created or
    reused for that file) or ``None`` — which consults the
    :data:`TRACE_ENV_VAR` environment variable and, when that is unset
    or empty, disables tracing (:data:`NULL_TRACE`).
    """
    if isinstance(trace, (TraceRecorder, NullRecorder)):
        return trace
    if trace is None:
        raw = os.environ.get(TRACE_ENV_VAR, "").strip()
        if not raw:
            return NULL_TRACE
        trace = raw
    path = os.path.abspath(os.fspath(trace))
    with _REGISTRY_LOCK:
        recorder = _RECORDERS.get(path)
        if recorder is None:
            recorder = TraceRecorder(path)
            _RECORDERS[path] = recorder
        return recorder


def worker_recorder(trace_path: str) -> TraceRecorder:
    """The per-process sidecar recorder a pool worker emits to.

    Cached per trace path, so every chunk a long-lived worker executes
    lands in one segment file.
    """
    with _REGISTRY_LOCK:
        recorder = _WORKER_RECORDERS.get(trace_path)
        if recorder is None:
            recorder = _WorkerRecorder(trace_path)
            _WORKER_RECORDERS[trace_path] = recorder
        return recorder


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
def load_records(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Every valid record in a trace file plus unmerged sidecar segments.

    Torn lines, blank lines and foreign-version records are skipped
    (the same tolerance the writer's crash model requires); sidecars are
    *read*, never deleted — loading a live trace must not race its
    owner's merge.
    """
    path = os.path.abspath(os.fspath(path))
    return [record for source in (path, *sidecar_paths(path))
            for record in read_records(source, "v", TRACE_VERSION)]
