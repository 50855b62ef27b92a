"""Shot fan-out: run one sampled job as engine shards and merge the shards.

A stochastic job with many shots is embarrassingly parallel: because every
draw of a shot is a pure function of ``(root seed, global shot index)``
(:func:`~repro.sim.stochastic.mix`), the run can be cut into contiguous
shard :class:`~repro.exec.jobs.JobSpec` objects (same
circuit/device/noise, disjoint ``shot_offset`` ranges) that
the :class:`~repro.exec.engine.ExecutionEngine` executes like any other
batch — deduplicated, content-hash cached (the hash covers seed, shots and
offset) and fanned out over the process pool.  Merging the shard
:class:`~repro.sim.stochastic.ShotResult` objects reproduces the serial
run bit for bit, which ``tests/test_stochastic.py`` pins down.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import ReproError
from repro.exec.engine import (
    ExecutionEngine,
    default_engine,
    resolve_workers,
    run_jobs,
)
from repro.exec.jobs import JobResult, JobSpec, spec_key
from repro.sim.stochastic import merge_shot_results

#: Floor on the shots one *default* shard carries.  The vectorized
#: sampler amortises its trigger kernels over the whole shot block, so
#: cutting a small run into worker-count slivers costs more than the
#: pool parallelises; the default fan-out only opens a shard per this
#: many shots.  An explicit ``shards=`` always wins, and either way the
#: merged result is bit-identical — sharding changes batching, never
#: the draws of any shot.
MIN_SHOTS_PER_SHARD = 1024


def shard_sampling_spec(spec: JobSpec, shards: int) -> list[JobSpec]:
    """Split a sampled spec into *shards* contiguous shot-range specs.

    Shots are distributed as evenly as possible (the first ``shots %
    shards`` shards take one extra).  Shards whose share would be zero are
    dropped, so asking for more shards than shots is harmless.
    """
    if spec.shots <= 0:
        raise ReproError("only specs with shots > 0 can be sharded")
    if shards <= 0:
        raise ReproError(f"shards must be positive, got {shards}")
    shards = min(shards, spec.shots)
    base, extra = divmod(spec.shots, shards)
    specs: list[JobSpec] = []
    offset = spec.shot_offset
    for shard in range(shards):
        share = base + (1 if shard < extra else 0)
        specs.append(dataclasses.replace(
            spec, shots=share, shot_offset=offset,
            label=f"{spec.label}[{offset}:{offset + share}]",
        ))
        offset += share
    return specs


def run_sampled_job(spec: JobSpec, *, shards: int | None = None,
                    workers: int | None = None,
                    engine: ExecutionEngine | None = None) -> JobResult:
    """Run one sampled job, sharded across the execution engine.

    Parameters
    ----------
    spec:
        A :class:`JobSpec` with ``shots > 0``.
    shards:
        Number of contiguous shot ranges to cut the run into.  Defaults
        to the worker count of whatever will execute the batch — the
        *workers* override, the given *engine*, or the shared default
        engine (whose pool size follows ``TILT_REPRO_WORKERS``) — so a
        serial engine runs one shard and a pooled engine saturates its
        pool; the default is additionally capped so every shard keeps at
        least :data:`MIN_SHOTS_PER_SHARD` shots for the vectorized
        sampler to batch over.
    workers, engine:
        Standard engine controls (see :func:`~repro.exec.engine.run_jobs`).
        Shard merging is bit-identical for any worker count.

    Returns
    -------
    JobResult
        Keyed by the *unsharded* spec's content hash, with the merged
        :class:`~repro.sim.stochastic.ShotResult` on ``.shot``.  Compile
        stats and the analytic simulation come from the first shard
        (every shard runs the same program).  Shards that run back to
        back in one loop share one compile and one sampler, so only the
        first of them pays to build them, and ``stats.time_decompose_s``
        is 0.0 because the lowering is shared too; ``wall_time_s`` sums
        the shard work, and ``cache_hit`` is True only when every shard
        was cache-served.
    """
    if spec.shots <= 0:
        raise ReproError("run_sampled_job needs a spec with shots > 0")
    chosen = engine if engine is not None else default_engine()
    if shards is None:
        if workers is not None:
            shards = resolve_workers(workers)
        else:
            shards = chosen.workers
        # hand the vectorized sampler whole shot-blocks: more shards
        # than blocks just pays pool overhead per sliver
        blocks = -(-spec.shots // MIN_SHOTS_PER_SHARD)
        shards = max(1, min(shards, blocks))
    shard_specs = shard_sampling_spec(spec, shards)
    key = spec_key(spec)
    # Span on the chosen engine's recorder (same thread), so the batch
    # the shards run as nests under this fan-out in the trace; per-shard
    # timing comes from each shard's own job.execute span.
    with chosen.trace.span(
        "sampling.fanout", spec_key=key, label=spec.label,
        shots=spec.shots, shards=len(shard_specs),
    ) as span:
        results = run_jobs(shard_specs, workers=workers, engine=chosen)
        merged = merge_shot_results(
            [result.shot for result in results if result.shot is not None]
        )
        span.add(
            shard_wall_time_s=sum(r.wall_time_s for r in results),
            cache_hits=sum(1 for r in results if r.cache_hit),
        )
    first = results[0]
    return JobResult(
        key=key,
        backend=spec.backend,
        label=spec.label,
        stats=first.stats,
        simulation=first.simulation,
        shot=merged,
        wall_time_s=sum(result.wall_time_s for result in results),
        cache_hit=all(result.cache_hit for result in results),
    )
