"""Execution backends for the engine.

The :class:`~repro.exec.engine.ExecutionEngine` decides *what* to run
(cache lookup, dedup, result accounting); a :class:`Backend` decides
*how* the surviving unique jobs execute.  Two implementations ship, and
the worker count picks between them (:func:`resolve_backend`):

* :class:`SerialBackend` — in-process, one job at a time, streaming each
  result back as soon as it finishes (the deterministic reference path,
  and what ``workers=1`` engines use);
* :class:`ProcessPoolBackend` — a ``concurrent.futures`` process pool
  with *chunked, work-stealing dispatch*: sampled (``shots > 0``) jobs
  are submitted longest-first as individual tasks while cheap analytic
  jobs are grouped into chunks, all feeding one shared task queue that
  idle workers drain — so a long Monte-Carlo job never straggles behind
  a tail of short analytic ones, and per-task IPC overhead is amortised
  over each chunk.

Because :func:`execute_spec` is a pure function of the spec (seeded
compilation, closed-form analytic noise, shot draws that are pure
functions of ``(seed, index)``), both backends produce bit-identical
results; they differ only in wall-clock time (``tests/test_backends.py``
pins this). The same purity lets the jobs of one loop share work: a
serial batch, a pool chunk or the engine's serial fallback runs its jobs
through one :class:`CompileMemo`, so consecutive jobs lower a circuit,
compile a program, replay it under one noise model and build its shot
sampler once (the engine orders jobs so that consecutive ones match).

Any other object satisfying the :class:`Backend` protocol can be handed
to ``ExecutionEngine(backend=...)`` and is used exactly as constructed.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.circuits.circuit import Circuit
from repro.compiler.pipeline import (
    CompileResult,
    CompilerConfig,
    LinQCompiler,
    lower_to_native,
)
from repro.compiler.qccd_compiler import QccdCompiler, QccdProgram
from repro.exceptions import ReproError
from repro.exec.jobs import JobResult, JobSpec, spec_key
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import get_scenario
from repro.obs.profile import start_job_profile
from repro.obs.trace import activate, current_trace, worker_recorder
from repro.sim.base import Recording, Simulator
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.stochastic import StochasticSampler
from repro.sim.tilt_sim import TiltSimulator

#: Environment variable holding the default worker count for new engines.
WORKERS_ENV_VAR = "TILT_REPRO_WORKERS"

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
# Compile sharing: one lowering, program, replay and sampler per loop
# ----------------------------------------------------------------------
#: The simulator each toolchain runs its compiled program on.
_SIMULATORS: dict[str, type[Simulator]] = {
    "tilt": TiltSimulator, "ideal": IdealSimulator, "qccd": QccdSimulator}


def _lowering_options(spec: JobSpec) -> tuple[bool, bool]:
    """``(strip_barriers, merge_rotations)`` of the lowering *spec* uses.

    Only a LinQ config can change them; QCCD and the ideal reference
    always lower with both on.
    """
    if spec.backend != "tilt" or spec.config is None:
        return True, True
    return spec.config.strip_barriers, spec.config.merge_rotations


def _same_lowering(a: JobSpec, b: JobSpec) -> bool:
    """Whether *a* and *b* lower to the same native circuit.

    That needs equal gates and width, and an equal name, which the
    compiled program and the simulation results carry.
    """
    if _lowering_options(a) != _lowering_options(b):
        return False
    return a.circuit is b.circuit or (a.circuit.name == b.circuit.name
                                      and a.circuit == b.circuit)


def _compile_key(spec: JobSpec) -> tuple:
    """What *spec*'s compiled program depends on besides its circuit.

    ``config=None`` resolves to ``CompilerConfig()`` first, so the two
    spellings of the default compile share one program.  Noise,
    scenario, shots and seed are absent: compilation never reads them.
    """
    if spec.backend == "tilt":
        return spec.backend, spec.device, spec.config or CompilerConfig()
    return spec.backend, spec.device


def _recording_key(spec: JobSpec) -> tuple:
    """What *spec*'s replay depends on besides its lowering: its compile
    key (the device, even for the ideal reference) and the resolved
    noise.  The scenario is absent: a recording serves every one."""
    return _compile_key(spec), spec.noise or NoiseParameters.paper_defaults()


class CompileMemo:
    """The latest lowering, compiled program, replay and sampler of one
    loop.

    Compilation is seeded and pure, so jobs with one circuit can share
    its lowering, and jobs that also share a :func:`_compile_key` can
    share its compiled program.  Jobs that also share the resolved noise
    (a :func:`_recording_key`) share one replay of that program, a
    :class:`~repro.sim.base.Recording` every sampler build and scenario
    ``run`` reads, and sampled jobs with the same scenario too share
    their built shot sampler.  The memo holds one of each.  That is
    enough because the engine hands a backend its jobs in
    :func:`sharing_order`, and it keeps a loop's memory at that of a
    single job.  Each loop owns its memo: a serial batch, a pool chunk
    or the engine's serial fallback.  Nothing is shared across batches,
    so results are exactly what fresh compiles give.
    """

    def __init__(self) -> None:
        self._lowered: tuple[JobSpec, Circuit] | None = None
        self._compiled: (tuple[tuple, CompileResult | QccdProgram]
                         | None) = None
        self._recording: tuple[tuple, Recording] | None = None
        self._sampler: tuple[tuple, StochasticSampler] | None = None

    def native(self, spec: JobSpec) -> Circuit:
        """*spec*'s circuit lowered to native gates."""
        held = self._lowered
        if held is None or not _same_lowering(held[0], spec):
            strip_barriers, merge_rotations = _lowering_options(spec)
            native = lower_to_native(spec.circuit,
                                     strip_barriers=strip_barriers,
                                     merge_rotations=merge_rotations)
            held = self._lowered = (spec, native)
            # from the old circuit
            self._compiled = self._recording = self._sampler = None
        return held[1]

    def compiled(self, spec: JobSpec) -> CompileResult | QccdProgram:
        """*spec*'s compiled program (``"tilt"`` and ``"qccd"`` only)."""
        native = self.native(spec)
        key = _compile_key(spec)
        held = self._compiled
        if held is None or held[0] != key:
            if spec.backend == "tilt":
                program = LinQCompiler(spec.device, key[2]).compile(
                    spec.circuit, native=native)
            else:
                program = QccdCompiler(spec.device).compile(
                    spec.circuit, native=native)
            held = self._compiled = (key, program)
            self._recording = None  # of the old program
        return held[1]

    def recording(self, spec: JobSpec) -> Recording:
        """The replay of *spec*'s program under its noise, shared by the
        loop's jobs; empty until the first entry point handed it
        replays."""
        key = _recording_key(spec)
        held = self._recording
        if held is None or held[0] != key:
            held = self._recording = (key, Recording())
        return held[1]

    def sampler(self, spec: JobSpec, simulator: Simulator,
                program: Circuit | CompileResult | QccdProgram,
                inputs: dict) -> StochasticSampler:
        """*spec*'s shot sampler, built by *simulator* from what
        :func:`execute_spec` hands it (*program* and *inputs*)."""
        key = _recording_key(spec), get_scenario(spec.scenario)
        held = self._sampler
        if held is None or held[0] != key:
            built = simulator.build_sampler(
                program, scenario=key[1], recording=self.recording(spec),
                **inputs)
            held = self._sampler = (key, built)
        return held[1]


def sharing_order(jobs: Sequence[Job]) -> list[Job]:
    """*jobs* grouped by lowering, compile key, noise and scenario.

    Jobs whose circuit (and lowering options) match sit together, within
    that group jobs with one :func:`_compile_key`, within those jobs
    with one resolved noise, and within those jobs with one scenario.
    So a one-slot :class:`CompileMemo` lowers each circuit, compiles
    each key, replays each program once per noise and builds each
    sampler once.  Groups and the jobs inside them keep first-seen
    order, so the plan depends only on the batch.  The engine hands
    every backend its jobs in this order.
    """
    groups: list[tuple[JobSpec, dict[tuple, dict]]] = []
    by_identity: dict[tuple[int, tuple[bool, bool]], dict] = {}
    for job in jobs:
        spec = job[1]
        identity = (id(spec.circuit), _lowering_options(spec))
        group = by_identity.get(identity)
        if group is None:
            group = next((members for first, members in groups
                          if _same_lowering(first, spec)), None)
            if group is None:
                group = {}
                groups.append((spec, group))
            by_identity[identity] = group
        compile_key, noise = _recording_key(spec)
        group.setdefault(compile_key, {}).setdefault(noise, {}).setdefault(
            get_scenario(spec.scenario), []).append(job)
    return [job for _, group in groups for noises in group.values()
            for scenarios in noises.values()
            for members in scenarios.values() for job in members]


# ----------------------------------------------------------------------
# The worker function (module level so the process pool can pickle it)
# ----------------------------------------------------------------------
def execute_spec(spec: JobSpec, key: str | None = None,
                 memo: CompileMemo | None = None) -> JobResult:
    """Run one job to completion in the current process.

    Every toolchain takes the same path: lower the circuit to native
    gates, compile it for the device (the ideal reference has nothing
    to compile), then simulate.  Specs with ``shots > 0`` additionally
    run the stochastic shot sampler (:mod:`repro.sim.stochastic`) on
    top of the analytic simulation; the sampled result lands on
    :attr:`JobResult.shot`.  *memo* is the calling loop's
    :class:`CompileMemo`; without one the job lowers, compiles and
    builds its sampler for itself.  Sampling still enters through the
    simulator's ``run_stochastic(scenario=...)``, handed the memo's
    sampler, and a scenario ``run`` is handed the memo's recording (an
    analytic baseline ``run`` records nothing).
    """
    key = key or spec_key(spec)
    memo = memo if memo is not None else CompileMemo()
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
        if spec.backend == "ideal":
            # no compile stage: the simulator reads the lowering itself
            program = spec.circuit
            inputs: dict = {"native": memo.native(spec)}
        else:
            program = memo.compiled(spec)
            inputs = {"circuit_name": spec.circuit.name}
            if isinstance(program, CompileResult):
                stats = program.stats
        if spec.simulate or spec.backend == "ideal":
            simulator = _SIMULATORS[spec.backend](spec.device, noise)
            if spec.shots:
                shot = simulator.run_stochastic(
                    program, shots=spec.shots, seed=spec.seed,
                    shot_offset=spec.shot_offset, scenario=scenario,
                    sampler=memo.sampler(spec, simulator, program, inputs),
                    **inputs,
                )
                simulation = shot.analytic
            else:
                recording = (None if scenario.is_baseline
                             else memo.recording(spec))
                simulation = simulator.run(program, scenario=scenario,
                                           recording=recording, **inputs)
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

    The jobs share one :class:`CompileMemo`.  When the parent batch is
    traced it passes its trace *path*; the worker then activates a
    per-process sidecar recorder so its ``job.execute`` spans land in a
    private segment file the parent merges after the batch (a forked
    worker must never append to the parent's file directly).  Called
    in-process (``trace_path=None``) the ambient trace — whatever the
    engine activated — stays in effect.
    """
    memo = CompileMemo()
    if trace_path is None:
        return [(key, execute_spec(spec, key, memo)) for key, spec in chunk]
    with activate(worker_recorder(trace_path)):
        return [(key, execute_spec(spec, key, memo)) for key, spec in chunk]


# ----------------------------------------------------------------------
# The Backend protocol and its two implementations
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
    on.  The batch shares one :class:`CompileMemo`.
    """

    name = "serial"

    def submit(self, jobs: Sequence[Job]) -> Iterable[tuple[str, JobResult]]:
        memo = CompileMemo()
        with current_trace().span(
            "backend.submit", backend=self.name, jobs=len(jobs),
        ):
            for key, spec in jobs:
                yield key, execute_spec(spec, key, memo)

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
    They keep the engine's :func:`sharing_order`, so jobs that share a
    compiled program tend to share a chunk, and with it the chunk's
    :class:`CompileMemo`.  A sampled job (a shard too) is a singleton
    task, so it compiles and builds its sampler for itself.  Every task
    lands in the executor's shared queue, and free workers pull the
    next one — the work-stealing that keeps a straggler-free tail.
    Results are yielded as chunks complete (see :meth:`submit`); the
    engine places them by key, so pooled and serial batches are
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


def resolve_backend(backend: Backend | None,
                    workers: int | None = None) -> Backend:
    """The :class:`Backend` a batch runs on.

    A given *backend* instance is returned as-is: it keeps the
    parallelism it was constructed with, and *workers* is ignored.
    Otherwise the worker count decides: ``workers <= 1`` runs serial,
    anything larger runs the process pool.
    """
    if backend is not None:
        return backend
    count = resolve_workers(workers)
    return SerialBackend() if count <= 1 else ProcessPoolBackend(count)
