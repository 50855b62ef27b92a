"""Operational observability: tracing, metrics, history, profiling.

Four planes, all opt-in and all forbidden from ever touching results:

* :mod:`repro.obs.trace` — hierarchical spans and events written as
  append-only, torn-line-tolerant JSONL (``ExecutionEngine(trace=...)``
  or ``TILT_REPRO_TRACE=<path>``), with per-process sidecar segments so
  pool workers can emit per-job records that merge back into the parent
  trace;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry that
  :class:`~repro.exec.engine.EngineStats` is a thin view over;
* :mod:`repro.obs.history` — a persistent cross-run **run ledger**
  (``ExecutionEngine(history=...)`` or ``TILT_REPRO_HISTORY=<path>``):
  every traced batch, search and benchmark-gate run appends one
  summarized record, and ``python -m repro.obs.history`` renders
  per-metric trends, cross-run diffs and a ``--check`` trend gate;
* :mod:`repro.obs.profile` — opt-in per-job resource profiling
  (``TILT_REPRO_PROFILE=1`` or ``tracemalloc``): CPU time, peak RSS and
  top allocation sites attached to each ``job.execute`` span.

Traces, the ledger and the engine's durable
:class:`~repro.exec.store.RunStore` all persist through one set of
append-only JSONL helpers, :mod:`repro.obs.jsonl`.

``python -m repro.obs.report <trace.jsonl>`` renders the offline
analysis: span tree, per-backend queue/execute breakdown, cache/dedup
ratios, straggler and critical-path analysis, the per-job resource
table when profiling was on, and a cross-run diff of two traces
(``--diff``).
"""

from repro.obs.history import (
    HISTORY_ENV_VAR,
    RunLedger,
    load_ledger,
    new_record,
    resolve_ledger,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    PROFILE_ENV_VAR,
    JobProfiler,
    profile_enabled,
    start_job_profile,
)
from repro.obs.trace import (
    NULL_TRACE,
    NullRecorder,
    TRACE_ENV_VAR,
    TraceRecorder,
    activate,
    current_trace,
    load_records,
    resolve_trace,
    worker_recorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "HISTORY_ENV_VAR",
    "Histogram",
    "JobProfiler",
    "MetricsRegistry",
    "NULL_TRACE",
    "NullRecorder",
    "PROFILE_ENV_VAR",
    "RunLedger",
    "TRACE_ENV_VAR",
    "TraceRecorder",
    "activate",
    "current_trace",
    "load_ledger",
    "load_records",
    "new_record",
    "profile_enabled",
    "resolve_ledger",
    "resolve_trace",
    "start_job_profile",
    "worker_recorder",
]
