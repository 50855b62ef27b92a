"""Pluggable execution backends for the engine.

The :class:`~repro.exec.engine.ExecutionEngine` decides *what* to run
(cache lookup, dedup, result accounting); a :class:`Backend` decides
*how* the surviving unique jobs execute.  Three implementations ship:

* :class:`SerialBackend` — in-process, one job at a time, streaming each
  result back as soon as it finishes (the deterministic reference path,
  and what ``workers=1`` engines use);
* :class:`ProcessPoolBackend` — a ``concurrent.futures`` process pool
  with *chunked, work-stealing dispatch*: sampled (``shots > 0``) jobs
  are submitted longest-first as individual tasks while cheap analytic
  jobs are grouped into chunks, all feeding one shared task queue that
  idle workers drain — so a long Monte-Carlo job never straggles behind
  a tail of short analytic ones, and per-task IPC overhead is amortised
  over each chunk;
* :class:`AsyncLocalBackend` — an asyncio event loop driving a local
  thread-pool executor.  Functionally it adds nothing over the pool
  today; structurally it is the extension point for future *remote*
  backends (HTTP job services, cluster schedulers): such a backend only
  has to turn ``submit`` into awaitable requests, and everything above
  the :class:`Backend` protocol — engine, sweeps, searches — is unchanged.

Because :func:`execute_spec` is a pure function of the spec (seeded
compilation, closed-form analytic noise, per-shot ``(seed, index)``
generators), every backend produces bit-identical results; they differ
only in wall-clock time (``tests/test_backends.py`` pins this).

Selection: ``ExecutionEngine(backend=...)`` takes a name (``"serial"``,
``"process"``, ``"async"``) or a :class:`Backend` instance; the
``TILT_REPRO_BACKEND`` environment variable supplies the default name
when none is given, mirroring ``TILT_REPRO_WORKERS`` for the pool size.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import time
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exceptions import ReproError
from repro.exec.jobs import JobResult, JobSpec, spec_key
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import get_scenario
from repro.obs.profile import start_job_profile
from repro.obs.trace import activate, current_trace, worker_recorder
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.tilt_sim import TiltSimulator

#: Environment variable holding the default worker count for new engines.
WORKERS_ENV_VAR = "TILT_REPRO_WORKERS"

#: Environment variable naming the default execution backend.
BACKEND_ENV_VAR = "TILT_REPRO_BACKEND"

#: Backend names :func:`resolve_backend` accepts.
BACKEND_NAMES = ("serial", "process", "async")

#: What backends consume: ``(content key, spec)`` pairs.
Job = tuple[str, JobSpec]


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker count: explicit value, env var, or 1 (serial)."""
    if workers is not None:
        value = int(workers)
    else:
        raw = os.environ.get(WORKERS_ENV_VAR, "")
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise ReproError(
                f"{WORKERS_ENV_VAR}={raw!r} is not an integer"
            ) from exc
    if value == 0:
        value = os.cpu_count() or 1
    if value < 0:
        raise ReproError(f"workers must be >= 0, got {value}")
    return value


# ----------------------------------------------------------------------
# The worker function (module level so the process pool can pickle it)
# ----------------------------------------------------------------------
def execute_spec(spec: JobSpec, key: str | None = None) -> JobResult:
    """Run one job to completion in the current process.

    Specs with ``shots > 0`` additionally run the stochastic shot sampler
    (:mod:`repro.sim.stochastic`) on top of the analytic simulation; the
    sampled result lands on :attr:`JobResult.shot`.
    """
    key = key or spec_key(spec)
    noise = spec.noise or NoiseParameters.paper_defaults()
    scenario = get_scenario(spec.scenario)
    # The active trace (engine-activated in-process, worker-recorder in
    # pool workers) gets one "job.execute" span per job, carrying the
    # spec key so the offline report can re-parent cross-process spans
    # under the batch that dispatched them.  A NullRecorder makes all of
    # this a no-op; tracing never touches the result.
    recorder = current_trace()
    span = recorder.span(
        "job.execute", spec_key=key, backend=spec.backend,
        shots=spec.shots, label=spec.label,
    )
    # Opt-in resource profiling (TILT_REPRO_PROFILE): deltas captured
    # around the work land as span attrs, so worker-side profiles ride
    # the same sidecar segments the spans already use.  Only started
    # when tracing is on — without a span there is nowhere to put it.
    profiler = start_job_profile() if recorder.enabled else None
    start = time.perf_counter()
    stats = None
    simulation = None
    shot = None
    # For sampled jobs each simulator's run_stochastic evaluates the
    # per-gate noise model once and derives the analytic result from that
    # same pass (shot.analytic), so nothing is computed twice.
    with span:
        if spec.backend == "tilt":
            config = spec.config or CompilerConfig()
            compiled = LinQCompiler(spec.device, config).compile(spec.circuit)
            stats = compiled.stats
            if spec.simulate:
                simulator = TiltSimulator(spec.device, noise)
                if spec.shots:
                    shot = simulator.run_stochastic(
                        compiled, shots=spec.shots, seed=spec.seed,
                        shot_offset=spec.shot_offset, scenario=scenario,
                    )
                    simulation = shot.analytic
                else:
                    simulation = simulator.run(compiled, scenario=scenario)
        elif spec.backend == "ideal":
            simulator = IdealSimulator(spec.device, noise)
            if spec.shots:
                shot = simulator.run_stochastic(
                    spec.circuit, shots=spec.shots, seed=spec.seed,
                    shot_offset=spec.shot_offset, scenario=scenario,
                )
                simulation = shot.analytic
            else:
                simulation = simulator.run(spec.circuit, scenario=scenario)
        elif spec.backend == "qccd":
            program = QccdCompiler(spec.device).compile(spec.circuit)
            if spec.simulate:
                simulator = QccdSimulator(spec.device, noise)
                if spec.shots:
                    shot = simulator.run_stochastic(
                        program, shots=spec.shots, seed=spec.seed,
                        shot_offset=spec.shot_offset,
                        circuit_name=spec.circuit.name, scenario=scenario,
                    )
                    simulation = shot.analytic
                else:
                    simulation = simulator.run(
                        program, circuit_name=spec.circuit.name,
                        scenario=scenario,
                    )
        else:  # pragma: no cover - validated by JobSpec.__post_init__
            raise ReproError(f"unknown backend {spec.backend!r}")
        if profiler is not None:
            span.add(profile=profiler.finish())
    wall_time = time.perf_counter() - start
    return JobResult(
        key=key,
        backend=spec.backend,
        label=spec.label,
        stats=stats,
        simulation=simulation,
        shot=shot,
        wall_time_s=wall_time,
    )


def _execute_chunk(
    chunk: Sequence[Job], trace_path: str | None = None,
) -> list[tuple[str, JobResult]]:
    """Pool task: run a chunk of jobs back to back in one worker.

    When the parent batch is traced it passes its trace *path*; the
    worker then activates a per-process sidecar recorder so its
    ``job.execute`` spans land in a private segment file the parent
    merges after the batch (a forked worker must never append to the
    parent's file directly).  Called in-process (``trace_path=None``)
    the ambient trace — whatever the engine activated — stays in effect.
    """
    if trace_path is None:
        return [(key, execute_spec(spec, key)) for key, spec in chunk]
    with activate(worker_recorder(trace_path)):
        return [(key, execute_spec(spec, key)) for key, spec in chunk]


# ----------------------------------------------------------------------
# The Backend protocol and its three local implementations
# ----------------------------------------------------------------------
@runtime_checkable
class Backend(Protocol):
    """How a batch of unique, cache-missed jobs gets executed.

    ``submit`` receives ``(content key, spec)`` pairs and returns (or
    yields) ``(key, result)`` pairs — one per job, every key exactly
    once, in any order (the engine places results by key).  ``close``
    releases whatever the backend holds open (pools, sessions); it must
    be idempotent.  ``describe`` is a short human-readable identity
    string recorded in run manifests; ``describe_config`` is its
    structured counterpart — a plain-JSON dict (backend name, worker
    count, chunking policy) that traces and
    :class:`~repro.exec.store.RunManifest` record for offline analysis.
    """

    name: str

    def submit(self, jobs: Sequence[Job]) -> Iterable[tuple[str, JobResult]]:
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        ...  # pragma: no cover - protocol

    def describe_config(self) -> dict:
        ...  # pragma: no cover - protocol


class SerialBackend:
    """Run jobs one at a time in this process, streaming results.

    ``submit`` is a generator: each result is handed back (and therefore
    persisted by the engine) before the next job starts, so an
    interrupted serial run keeps everything it finished — the property
    the durable :class:`~repro.exec.store.RunStore` resume path builds
    on.  Accepts (and ignores) a ``workers`` argument so every backend
    can be constructed uniformly.
    """

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        pass

    def submit(self, jobs: Sequence[Job]) -> Iterable[tuple[str, JobResult]]:
        with current_trace().span(
            "backend.submit", backend=self.name, jobs=len(jobs),
        ):
            for key, spec in jobs:
                yield key, execute_spec(spec, key)

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return "serial"

    def describe_config(self) -> dict:
        return {"backend": self.name, "workers": 1}


class ProcessPoolBackend:
    """Fan jobs out over a process pool with work-stealing chunks.

    Dispatch order is *longest-expected-first*: sampled jobs (``shots >
    0``) are each their own task, sorted by shot count descending, so
    the pool starts its most expensive work immediately; the remaining
    analytic jobs are grouped into ``chunk_size`` chunks (default:
    enough for ~4 chunks per worker) to amortise pickling/IPC overhead.
    Every task lands in the executor's shared queue, and free workers
    pull the next one — the work-stealing that keeps a straggler-free
    tail.  Results are yielded as chunks complete (see :meth:`submit`);
    the engine places them by key, so pooled and serial batches are
    indistinguishable downstream.

    A pool is created per ``submit`` call (job batches are coarse, so
    process start-up is amortised) and torn down with it; ``close`` is
    therefore a no-op kept for protocol symmetry.
    """

    name = "process"

    #: Light (analytic) jobs per worker-queue chunk-group, by default.
    CHUNK_GROUPS_PER_WORKER = 4

    def __init__(self, workers: int | None = None,
                 chunk_size: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise ReproError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size

    def plan_chunks(self, jobs: Sequence[Job]) -> list[list[Job]]:
        """The dispatch plan: heavy singletons first, then light chunks."""
        heavy = [job for job in jobs if job[1].shots]
        light = [job for job in jobs if not job[1].shots]
        heavy.sort(key=lambda job: job[1].shots, reverse=True)
        chunks: list[list[Job]] = [[job] for job in heavy]
        if light:
            size = self.chunk_size
            if size is None:
                groups = max(1, self.workers * self.CHUNK_GROUPS_PER_WORKER)
                size = max(1, -(-len(light) // groups))
            chunks.extend(
                list(light[start:start + size])
                for start in range(0, len(light), size)
            )
        return chunks

    def submit(self, jobs: Sequence[Job]) -> Iterable[tuple[str, JobResult]]:
        """Yield ``(key, result)`` pairs as chunks complete.

        Streaming (a generator, like :class:`SerialBackend`) rather than
        gathering: each finished chunk's results reach the engine — and
        therefore a durable :class:`~repro.exec.store.RunStore` — while
        the rest of the batch is still running, so a pooled run killed
        mid-batch keeps every chunk that completed.  Completion order is
        nondeterministic, but the engine places results by key, so batch
        *outputs* are bit-identical to serial regardless.

        A pool that cannot start (an ``OSError`` from a sandbox without
        semaphores or fork) is reported as
        :class:`concurrent.futures.BrokenExecutor`, the one failure the
        engine answers with its serial fallback; an ``OSError`` a job
        raises propagates as itself.
        """
        jobs = list(jobs)
        trace = current_trace()
        if self.workers <= 1 or len(jobs) <= 1:
            with trace.span(
                "backend.submit", backend=self.name, jobs=len(jobs),
                pooled=False,
            ):
                yield from _execute_chunk(jobs)
            return
        chunks = self.plan_chunks(jobs)
        # Workers are separate processes: hand them the trace *path* (or
        # None when tracing is off) so each activates its own sidecar
        # recorder instead of a fork-inherited handle to the parent file.
        trace_path = trace.path if trace.enabled else None
        workers = min(self.workers, len(chunks))
        with trace.span(
            "backend.submit", backend=self.name, jobs=len(jobs),
            chunks=len(chunks), workers=workers,
        ):
            pool = None
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers)
                futures = [
                    pool.submit(_execute_chunk, chunk, trace_path)
                    for chunk in chunks
                ]
            except OSError as exc:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                raise concurrent.futures.BrokenExecutor(
                    f"process pool could not start: {exc}"
                ) from exc
            with pool:
                for future in concurrent.futures.as_completed(futures):
                    yield from future.result()

    def close(self) -> None:
        pass

    def describe(self) -> str:
        chunk = self.chunk_size if self.chunk_size is not None else "auto"
        return f"process(workers={self.workers}, chunk_size={chunk})"

    def describe_config(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "chunk_groups_per_worker": self.CHUNK_GROUPS_PER_WORKER,
        }


class AsyncLocalBackend:
    """An asyncio event loop driving a local thread-pool executor.

    Each job becomes one ``run_in_executor`` task awaited with
    ``asyncio.gather``, so the loop structure is exactly what a remote
    backend needs — replace the executor call with an HTTP request (or
    any awaitable) and the rest of the stack is untouched.  Threads
    (not processes) back the executor: :func:`execute_spec` only touches
    per-call state, results need no pickling, and thread workers exist
    in every sandbox that forbids subprocesses.

    ``submit`` must not be called from inside a running event loop (it
    owns one via :func:`asyncio.run`); the engine only calls it from
    synchronous batch code.  Unlike the serial and process backends,
    results are gathered and returned together — durability with a
    :class:`~repro.exec.store.RunStore` is per *batch*, not per job.
    """

    name = "async"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)

    def submit(self, jobs: Sequence[Job]) -> Iterable[tuple[str, JobResult]]:
        jobs = list(jobs)
        if not jobs:
            return []
        # Executor threads share this process, so execute_spec sees the
        # ambient trace directly; its spans start parentless (each thread
        # has its own span stack) and the offline report re-parents them
        # by spec key.
        with current_trace().span(
            "backend.submit", backend=self.name, jobs=len(jobs),
            workers=min(self.workers, len(jobs)),
        ):
            return asyncio.run(self._drive(jobs))

    async def _drive(self, jobs: list[Job]) -> list[tuple[str, JobResult]]:
        loop = asyncio.get_running_loop()
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(self.workers, len(jobs))
        ) as pool:
            results = await asyncio.gather(*(
                loop.run_in_executor(pool, execute_spec, spec, key)
                for key, spec in jobs
            ))
        return [(key, result) for (key, _), result in zip(jobs, results)]

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return f"async-local(threads={self.workers})"

    def describe_config(self) -> dict:
        return {"backend": self.name, "executor": "thread",
                "workers": self.workers}


def resolve_backend(backend: "str | Backend | None",
                    workers: int | None = None) -> Backend:
    """Turn a backend selector into a :class:`Backend` instance.

    ``backend`` may be an instance (returned as-is — it keeps the
    parallelism it was constructed with, and ``workers`` is ignored), a
    name from :data:`BACKEND_NAMES` (constructed with *workers*), or
    ``None`` — in which case the ``TILT_REPRO_BACKEND`` environment
    variable is consulted and, when that is unset too, the worker count
    decides: ``workers <= 1`` runs serial, anything larger runs the
    process pool (the engine's historical behaviour, so existing
    callers see no change).
    """
    if backend is not None and not isinstance(backend, str):
        return backend
    name = backend
    if name is None:
        raw = os.environ.get(BACKEND_ENV_VAR, "").strip()
        name = raw or None
    count = resolve_workers(workers)
    if name is None:
        return SerialBackend() if count <= 1 else ProcessPoolBackend(count)
    normalised = name.strip().lower()
    if normalised == "serial":
        return SerialBackend()
    if normalised == "process":
        return ProcessPoolBackend(count)
    if normalised == "async":
        return AsyncLocalBackend(count)
    raise ReproError(
        f"unknown execution backend {name!r}; expected one of "
        f"{BACKEND_NAMES} (or a Backend instance)"
    )
