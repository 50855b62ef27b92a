"""Per-layer self-time tracing from outside the program.

:class:`LayerTracer` wraps the public call boundaries of each layer
(module functions where their caller looks them up, and methods on their
classes) with a span that records self time: the span's duration minus
the time its child spans cover.  Counts are taken from the same calls'
arguments and return values, so ratios are measured where the work
happens.  Nothing under ``src/`` is edited; :meth:`LayerTracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

from repro.compiler import pipeline
from repro.compiler.mapping import (
    GreedyInteractionMapper,
    SpectralMapper,
    TrivialMapper,
)
from repro.compiler.qccd_compiler import QccdCompiler
from repro.compiler.schedule import TapeScheduler
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.exec import backends as exec_backends
from repro.exec import cache as exec_cache
from repro.exec import engine as exec_engine
from repro.exec import sampling as exec_sampling
from repro.exec import store as exec_store
from repro.noise.scenarios import resolve_scenario
from repro.search import runner as search_runner
from repro.search.space import SearchSpace
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.stochastic import StochasticSampler
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads import rcs as rcs_module
from repro.workloads import suite

#: Layers whose self time is spent while building inputs (set-up), not
#: inside the measured window; layer coverage leaves them out.
SETUP_LAYERS = ("workloads.build",)

_SAMPLE_INDEPENDENT = "sim.sample_independent"
_SAMPLE_CORRELATED = "sim.sample_correlated"


def circuit_fingerprint(circuit: Any) -> int:
    """Content hash of a circuit (width plus every gate)."""
    return hash((circuit.num_qubits,
                 tuple((g.name, g.qubits, g.params) for g in circuit)))


class LayerTracer:
    """Self time, call counts and work counts per named layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._decomposed: set[int] = set()
        self._compiled: set[tuple[int, str, str]] = set()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str,
             layer: str | Callable[..., str], *,
             calls: str | None = None,
             on_result: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *layer* names the span, or computes the name from the call's
        arguments; *calls* names a counter bumped once per call;
        *on_result* derives work counts from ``(args, kwargs, result)``.
        """
        original = getattr(owner, attr)
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name = layer(stack, args, kwargs) if callable(layer) else layer
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if calls is not None:
                self.counts[calls] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # The layer map of this repository
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every layer boundary the benchmark reports on."""
        count = self.counts

        # workloads
        def built(args, kwargs, circuit):
            count["workloads.circuits"] += 1
            count["workloads.gates"] += len(circuit)

        self.wrap(suite, "build_workload", "workloads.build", on_result=built)
        self.wrap(rcs_module, "rcs_workload", "workloads.build",
                  on_result=built)

        # compiler: decomposition, patched where the LinQ pipeline looks
        # it up (the QCCD compiler's own decomposition is QCCD time)
        def decomposed(args, kwargs, native):
            count["compiler.native_gates"] += len(native)
            self._decomposed.add(circuit_fingerprint(args[0]))

        self.wrap(pipeline, "decompose_to_native", "compiler.decompose",
                  calls="compiler.decompose_calls", on_result=decomposed)
        self.wrap(pipeline, "merge_adjacent_rotations", "compiler.decompose")

        # compiler: initial mapping + swap insertion = route
        for mapper in (TrivialMapper, SpectralMapper, GreedyInteractionMapper):
            self.wrap(mapper, "map", "compiler.route")

        def routed(args, kwargs, routing):
            count["compiler.swaps_inserted"] += routing.num_swaps
            count["compiler.opposing_swaps"] += routing.num_opposing_swaps

        for router in (LinqSwapInserter, BaselineSwapInserter):
            self.wrap(router, "route", "compiler.route",
                      calls="compiler.route_calls", on_result=routed)

        def scheduled(args, kwargs, program):
            count["compiler.tape_segments"] += len(program.segments)

        self.wrap(TapeScheduler, "schedule", "compiler.schedule",
                  calls="compiler.schedule_calls", on_result=scheduled)

        # the pipeline's own glue (barrier strip, stats collection)
        def compiled(args, kwargs, result):
            compiler, circuit = args[0], args[1]
            self._compiled.add((circuit_fingerprint(circuit),
                                repr(compiler.device), repr(compiler.config)))

        self.wrap(pipeline.LinQCompiler, "compile", "compiler.pipeline",
                  calls="compiler.linq_compiles", on_result=compiled)

        def qccd_compiled(args, kwargs, program):
            count["compiler.qccd_shuttles"] += program.num_shuttles

        self.wrap(QccdCompiler, "compile", "compiler.qccd",
                  calls="compiler.qccd_calls", on_result=qccd_compiled)

        # sim: analytic, sampler construction, sampling
        def sample_layer(stack, args, kwargs):
            scenario = resolve_scenario(kwargs.get("scenario"))
            return (_SAMPLE_INDEPENDENT if scenario.is_baseline
                    else _SAMPLE_CORRELATED)

        def inherited_sample_layer(stack, args, kwargs):
            for frame in reversed(stack):
                if frame[0] in (_SAMPLE_INDEPENDENT, _SAMPLE_CORRELATED):
                    return frame[0]
            return _SAMPLE_INDEPENDENT

        for simulator in (TiltSimulator, QccdSimulator, IdealSimulator):
            self.wrap(simulator, "run", "sim.analytic",
                      calls="sim.analytic_calls")
            self.wrap(simulator, "build_sampler", "sim.sampler_build")
            self.wrap(simulator, "run_stochastic", sample_layer)

        def sampled(args, kwargs, shot):
            count["sim.shots"] += shot.shots

        self.wrap(StochasticSampler, "run", inherited_sample_layer,
                  calls="sim.sample_calls", on_result=sampled)

        # exec: engine, content keys, caches and the durable store.  A
        # result marked cache_hit is either a cache hit or an in-batch
        # duplicate, so duplicates are the difference of the two counts.
        def engine_ran(args, kwargs, results):
            count["exec.served"] += sum(1 for r in results if r.cache_hit)

        engine_class = exec_engine.ExecutionEngine
        self.wrap(engine_class, "__init__", "exec.overhead")
        self.wrap(engine_class, "run", "exec.overhead", on_result=engine_ran)
        self.wrap(exec_backends, "execute_spec", "exec.overhead",
                  calls="exec.jobs_executed")
        for module in (exec_engine, exec_sampling, search_runner):
            self.wrap(module, "spec_key", "exec.spec_key",
                      calls="exec.spec_key_calls")

        def looked_up(args, kwargs, result):
            if result is not None:
                count["exec.cache_hits"] += 1

        for cache_class in (exec_cache.ResultCache, exec_store.RunStore):
            self.wrap(cache_class, "get", "exec.cache_lookup",
                      on_result=looked_up)
            self.wrap(cache_class, "store", "exec.store_write")
            self.wrap(cache_class, "flush", "exec.store_write")
        self.wrap(exec_store.RunStore, "write_manifest", "exec.store_write")
        self.wrap(exec_store.RunStore, "reload", "exec.store_load")

        # search
        def searched(args, kwargs, result):
            count["search.engine_jobs"] += result.num_jobs

        self.wrap(search_runner, "run_search", "search.run",
                  on_result=searched)
        self.wrap(search_runner, "run_jobs", "search.run",
                  calls="search.rounds")
        self.wrap(SearchSpace, "evaluation_specs", "search.run",
                  calls="search.evaluations")
        return self

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer number of one traced pass (zeros included)."""
        s, c = self.self_s, self.counts
        sample_s = s[_SAMPLE_INDEPENDENT] + s[_SAMPLE_CORRELATED]
        covered = sum(value for layer, value in s.items()
                      if layer not in SETUP_LAYERS)
        return {
            "compiler.route_s": s["compiler.route"],
            "compiler.route_calls": c["compiler.route_calls"],
            "compiler.swaps_inserted": c["compiler.swaps_inserted"],
            "compiler.opposing_swaps": c["compiler.opposing_swaps"],
            "compiler.decompose_s": s["compiler.decompose"],
            "compiler.decompose_calls": c["compiler.decompose_calls"],
            "compiler.native_gates": c["compiler.native_gates"],
            "compiler.decompose_unique_ratio": _ratio(
                len(self._decomposed), c["compiler.decompose_calls"]),
            "compiler.compile_unique_ratio": _ratio(
                len(self._compiled), c["compiler.linq_compiles"]),
            "compiler.schedule_s": s["compiler.schedule"],
            "compiler.schedule_calls": c["compiler.schedule_calls"],
            "compiler.tape_segments": c["compiler.tape_segments"],
            "compiler.pipeline_s": s["compiler.pipeline"],
            "compiler.qccd_s": s["compiler.qccd"],
            "compiler.qccd_calls": c["compiler.qccd_calls"],
            "compiler.qccd_shuttles": c["compiler.qccd_shuttles"],
            "sim.analytic_s": s["sim.analytic"],
            "sim.analytic_calls": c["sim.analytic_calls"],
            "sim.sample_s": sample_s,
            "sim.sample_calls": c["sim.sample_calls"],
            "sim.shots": c["sim.shots"],
            "sim.shots_per_s": _ratio(c["sim.shots"], sample_s),
            "sim.sample_independent_s": s[_SAMPLE_INDEPENDENT],
            "sim.sample_correlated_s": s[_SAMPLE_CORRELATED],
            "sim.sampler_build_s": s["sim.sampler_build"],
            "exec.spec_key_s": s["exec.spec_key"],
            "exec.spec_key_calls": c["exec.spec_key_calls"],
            "exec.cache_lookup_s": s["exec.cache_lookup"],
            "exec.store_load_s": s["exec.store_load"],
            "exec.cache_hits": c["exec.cache_hits"],
            "exec.overhead_s": s["exec.overhead"],
            "exec.store_write_s": s["exec.store_write"],
            "exec.jobs_executed": c["exec.jobs_executed"],
            "exec.deduplicated": c["exec.served"] - c["exec.cache_hits"],
            "workloads.build_s": s["workloads.build"],
            "workloads.circuits": c["workloads.circuits"],
            "workloads.gates": c["workloads.gates"],
            "search.run_s": s["search.run"],
            "search.evaluations": c["search.evaluations"],
            "search.engine_jobs": c["search.engine_jobs"],
            "search.rounds": c["search.rounds"],
            "bench.layer_coverage": _ratio(covered, wall_s),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
