"""Batch execution engine for the reproduction's experiments.

Every paper figure and table boils down to the same unit of work: compile
one circuit for one device under one :class:`~repro.compiler.pipeline.CompilerConfig`
and simulate it under one :class:`~repro.noise.parameters.NoiseParameters`.
This package turns that unit into a declarative :class:`JobSpec` and runs
batches of them through a shared :class:`ExecutionEngine` that

* deduplicates identical specs inside a batch,
* caches results by a content hash of the spec — in an in-memory
  :class:`ResultCache`, or in a durable append-only :class:`RunStore`
  (the one on-disk result format) that survives interruptions and
  concurrent writers and serves only results of the current
  ``RESULT_SEMANTICS_VERSION``,
* executes the unique misses on the :class:`Backend` its worker count
  picks — :class:`SerialBackend` (deterministic in-process reference)
  for one worker, :class:`ProcessPoolBackend` (chunked, work-stealing
  process-pool fan-out) for more — bit-identically, and
* records per-job wall-clock timings plus batch-level counters.

The sweep / comparison / experiment drivers in :mod:`repro.core` and
:mod:`repro.analysis` are thin wrappers over this engine.

Sampled (Monte-Carlo) jobs add a ``shots=`` / ``seed=`` dimension to the
spec; :func:`run_sampled_job` cuts one logical run into contiguous shot
shards that the engine executes — and caches — like any other batch, then
merges them bit-identically (see :mod:`repro.exec.sampling`).

Long runs pair the engine with a :class:`RunStore`
(``ExecutionEngine(store=...)``): every finished job is appended durably,
a :class:`RunManifest` records the plan and its provenance, and a later
engine on the same store resumes from exactly the completed jobs.
"""

from repro.exec.backends import (
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.exec.cache import ResultCache
from repro.exec.engine import (
    EngineStats,
    ExecutionEngine,
    default_engine,
    execute_spec,
    reset_default_engine,
    run_jobs,
)
from repro.exec.jobs import JobResult, JobSpec, spec_key
from repro.exec.sampling import run_sampled_job, shard_sampling_spec
from repro.exec.store import (
    RunManifest,
    RunStore,
    collect_provenance,
    read_manifest,
)

__all__ = [
    "Backend",
    "EngineStats",
    "ExecutionEngine",
    "JobResult",
    "JobSpec",
    "ProcessPoolBackend",
    "ResultCache",
    "RunManifest",
    "RunStore",
    "SerialBackend",
    "collect_provenance",
    "default_engine",
    "execute_spec",
    "read_manifest",
    "reset_default_engine",
    "resolve_backend",
    "run_jobs",
    "run_sampled_job",
    "shard_sampling_spec",
    "spec_key",
]
