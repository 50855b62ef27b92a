"""The LinQ compilation pipeline (Figure 4 of the paper).

``quantum program -> native gate decomposition -> qubit mapping + swap
insertion -> tape movement scheduling -> executable program``.

:func:`lower_to_native` is the first stage, shared by every toolchain
(LinQ, QCCD and the ideal reference).  :class:`LinQCompiler` wires the
individual passes together and records wall-clock timings for the
Table III columns (t_swap, t_move).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
# merge_adjacent_rotations is not called here: the lowering fuses in
# decompose_to_native.  It stays importable from this module, where
# layer tracers look up the lowering's names.
from repro.compiler.decompose import (
    decompose_to_native,
    merge_adjacent_rotations,
)
from repro.compiler.executable import ExecutableProgram
from repro.compiler.layout import QubitMapping
from repro.compiler.mapping import make_mapper
from repro.compiler.metrics import CompileStats, collect_stats
from repro.compiler.routing import RoutingResult
from repro.compiler.schedule import SchedulerConfig, TapeScheduler
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter
from repro.exceptions import CompilationError


@dataclass(frozen=True)
class CompilerConfig:
    """All tunable knobs of the LinQ pipeline.

    Attributes
    ----------
    mapper:
        Initial-mapping strategy: ``"trivial"``, ``"spectral"`` or
        ``"greedy"`` (see :mod:`repro.compiler.mapping`).
    router:
        Swap-insertion strategy: ``"linq"`` (Algorithm 1) or ``"baseline"``
        (the StochasticSwap-style strawman).
    max_swap_len:
        Maximum SWAP span; ``None`` means ``head_size - 1``.  Restricting it
        below the maximum trades a few extra swaps for scheduling freedom
        (Figure 7).
    lookahead_window, alpha:
        Eq. 1 scoring parameters of the LinQ router.
    baseline_trials, seed:
        Randomisation controls of the baseline router.
    merge_rotations:
        Fuse adjacent same-axis rotations after decomposition.
    strip_barriers:
        Remove barriers before scheduling (a full-width barrier can never
        fit under the head).
    initial_position, prefer_near_moves:
        Scheduler options (see :class:`~repro.compiler.schedule.SchedulerConfig`).
    """

    mapper: str = "trivial"
    router: str = "linq"
    max_swap_len: int | None = None
    lookahead_window: int = 200
    alpha: float = 0.98
    baseline_trials: int = 5
    seed: int = 11
    merge_rotations: bool = True
    strip_barriers: bool = True
    initial_position: int | None = None
    prefer_near_moves: bool = True

    def with_overrides(self, **kwargs: object) -> "CompilerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def lower_to_native(circuit: Circuit, *, strip_barriers: bool = True,
                    merge_rotations: bool = True) -> Circuit:
    """Lower *circuit* to the TILT native gate set.

    Strips barriers, then decomposes every gate to native rotations and
    MS gates, fusing adjacent same-axis rotations in the same pass.  Each
    toolchain starts from this circuit, so one lowering can feed all of
    them.
    """
    working = circuit.without(["barrier"]) if strip_barriers else circuit
    return decompose_to_native(working, merge_rotations=merge_rotations)


@dataclass
class CompileResult:
    """Everything produced by one run of the LinQ pipeline."""

    source_circuit: Circuit
    native_circuit: Circuit
    routing: RoutingResult
    program: ExecutableProgram
    stats: CompileStats
    device: TiltDevice
    config: CompilerConfig

    @property
    def routed_circuit(self) -> Circuit:
        """The physical circuit with SWAPs inserted."""
        return self.routing.circuit

    @property
    def initial_mapping(self) -> QubitMapping:
        return self.routing.initial_mapping

    @property
    def final_mapping(self) -> QubitMapping:
        return self.routing.final_mapping

    def summary(self) -> str:
        """Human-readable multi-line description of the compilation."""
        stats = self.stats
        return "\n".join(
            [
                f"compiled {self.source_circuit.name!r} for "
                f"{self.device.describe()}",
                f"  native gates : {stats.num_gates} "
                f"({stats.num_two_qubit_gates} two-qubit)",
                f"  swaps        : {stats.num_swaps} "
                f"({stats.num_opposing_swaps} opposing, "
                f"ratio {stats.opposing_swap_ratio:.2f})",
                f"  tape moves   : {stats.num_moves} "
                f"({stats.move_distance_um:.0f} um travel)",
                f"  compile time : {stats.total_compile_time_s:.3f} s "
                f"(swap {stats.time_swap_s:.3f} s, "
                f"schedule {stats.time_schedule_s:.3f} s)",
            ]
        )


class LinQCompiler:
    """End-to-end compiler from a logical circuit to a TILT executable."""

    def __init__(self, device: TiltDevice,
                 config: CompilerConfig | None = None) -> None:
        self.device = device
        self.config = config or CompilerConfig()

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def compile(self, circuit: Circuit,
                initial_mapping: QubitMapping | None = None, *,
                native: Circuit | None = None) -> CompileResult:
        """Run decomposition, mapping, routing and scheduling on *circuit*.

        *native* is the circuit's :func:`lower_to_native` form under this
        config's ``strip_barriers``/``merge_rotations``, when the caller
        already has it.  Decomposition is then skipped and
        ``stats.time_decompose_s`` is 0.0, since this compile did none.
        """
        if circuit.num_qubits > self.device.num_qubits:
            raise CompilationError(
                f"circuit needs {circuit.num_qubits} qubits but the device "
                f"has {self.device.num_qubits}"
            )
        config = self.config

        time_decompose = 0.0
        if native is None:
            start = time.perf_counter()
            native = lower_to_native(
                circuit, strip_barriers=config.strip_barriers,
                merge_rotations=config.merge_rotations,
            )
            time_decompose = time.perf_counter() - start

        start = time.perf_counter()
        mapping = initial_mapping or self._initial_mapping(native)
        routing = self._route(native, mapping)
        time_swap = time.perf_counter() - start

        start = time.perf_counter()
        scheduler = TapeScheduler(
            self.device,
            SchedulerConfig(
                initial_position=config.initial_position,
                prefer_near_moves=config.prefer_near_moves,
            ),
        )
        program = scheduler.schedule(routing.circuit)
        time_schedule = time.perf_counter() - start

        stats = collect_stats(
            routing,
            program,
            time_decompose_s=time_decompose,
            time_swap_s=time_swap,
            time_schedule_s=time_schedule,
        )
        return CompileResult(
            source_circuit=circuit,
            native_circuit=native,
            routing=routing,
            program=program,
            stats=stats,
            device=self.device,
            config=config,
        )

    # ------------------------------------------------------------------
    # Individual passes
    # ------------------------------------------------------------------
    def _initial_mapping(self, native: Circuit) -> QubitMapping:
        mapper = make_mapper(self.config.mapper)
        return mapper.map(native, self.device.num_qubits)

    def _route(self, native: Circuit, mapping: QubitMapping) -> RoutingResult:
        config = self.config
        if config.router == "linq":
            router = LinqSwapInserter(
                self.device,
                max_swap_len=config.max_swap_len,
                lookahead_window=config.lookahead_window,
                alpha=config.alpha,
            )
        elif config.router == "baseline":
            router = BaselineSwapInserter(
                self.device,
                max_swap_len=config.max_swap_len,
                trials=config.baseline_trials,
                seed=config.seed,
            )
        else:
            raise CompilationError(
                f"unknown router {config.router!r}; choose 'linq' or 'baseline'"
            )
        return router.route(native, mapping)


def compile_for_tilt(circuit: Circuit, device: TiltDevice,
                     config: CompilerConfig | None = None) -> CompileResult:
    """Convenience wrapper: compile *circuit* for *device* in one call."""
    return LinQCompiler(device, config).compile(circuit)
