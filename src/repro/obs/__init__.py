"""Operational observability: tracing, history, profiling.

Three planes, all opt-in and all forbidden from ever touching results:

* :mod:`repro.obs.trace` — hierarchical spans and events written as
  append-only, torn-line-tolerant JSONL (``ExecutionEngine(trace=...)``
  or ``TILT_REPRO_TRACE=<path>``), with per-process sidecar segments so
  pool workers can emit per-job records that merge back into the parent
  trace;
* :mod:`repro.obs.history` — a persistent cross-run **run ledger**
  (``ExecutionEngine(history=...)`` or ``TILT_REPRO_HISTORY=<path>``):
  every batch, search and benchmark-gate run appends one summarized
  record (a batch's carries the engine's counters,
  :meth:`~repro.exec.engine.EngineStats.to_dict`), and
  ``python -m repro.obs.history`` renders
  per-metric trends, cross-run diffs and a ``--check`` trend gate;
* :mod:`repro.obs.profile` — opt-in per-job resource profiling
  (``TILT_REPRO_PROFILE=1``, read at each traced job): CPU time, peak
  RSS and page faults attached to each ``job.execute`` span.

Traces, the ledger and the engine's durable
:class:`~repro.exec.store.RunStore` all persist through one set of
append-only JSONL helpers, :mod:`repro.obs.jsonl`.

``python -m repro.obs.report <trace.jsonl>`` renders the offline
analysis: span tree, per-backend queue/execute breakdown, cache/dedup
ratios, straggler and critical-path analysis, the per-job resource
table when profiling was on, and a cross-run diff of two traces
(``--diff``).

The package re-exports nothing: import from the submodule that owns a
name, so importing one plane loads no other.
"""

#: Environment variable naming the default run ledger for new engines.
#: It lives here rather than in :mod:`repro.obs.history`, so the engine
#: can tell whether history is on without importing the ledger.
HISTORY_ENV_VAR = "TILT_REPRO_HISTORY"

