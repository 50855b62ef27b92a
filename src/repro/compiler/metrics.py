"""Compilation statistics.

Collects the structural quantities the paper reports for compiled circuits:
swap counts and opposing-swap ratio (Figure 6), tape-move counts and travel
distance (Table III), plus gate counts and depth of the scheduled circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gate import GATE_SPECS, TWO_QUBIT_GATE_NAMES
from repro.compiler.executable import ExecutableProgram
from repro.compiler.routing import RoutingResult


@dataclass(frozen=True)
class CompileStats:
    """Aggregate numbers describing one compiled program.

    ``num_gates`` counts every non-barrier operation (including measures,
    matching :meth:`repro.circuits.circuit.Circuit.num_gates`);
    ``num_one_qubit_gates`` counts only single-qubit *unitaries*, and
    ``num_other_ops`` the non-unitary operations counted in ``num_gates``
    (i.e. measures — barriers are structural and excluded from every
    count here), so ``num_gates == num_one_qubit_gates +
    num_two_qubit_gates + num_other_ops`` always holds.

    ``time_decompose_s`` is the decomposition time of this compile
    only.  It is 0.0 when the compile was handed a lowering made
    elsewhere, as engine jobs always are: the engine lowers each circuit
    once per batch and shares it.
    """

    num_gates: int
    num_two_qubit_gates: int
    num_one_qubit_gates: int
    num_other_ops: int
    num_swaps: int
    num_opposing_swaps: int
    opposing_swap_ratio: float
    max_swap_span: int
    num_moves: int
    move_distance_ions: int
    move_distance_um: float
    depth: int
    time_decompose_s: float
    time_swap_s: float
    time_schedule_s: float

    @property
    def total_compile_time_s(self) -> float:
        """Total wall-clock compile time."""
        return self.time_decompose_s + self.time_swap_s + self.time_schedule_s


def collect_stats(
    routing: RoutingResult,
    program: ExecutableProgram,
    *,
    time_decompose_s: float,
    time_swap_s: float,
    time_schedule_s: float,
) -> CompileStats:
    """Assemble :class:`CompileStats` from the routing and scheduling outputs."""
    circuit = program.circuit
    counts = circuit.count_ops()
    num_two_qubit = num_one_qubit = 0
    for name, count in counts.items():
        if name in TWO_QUBIT_GATE_NAMES:
            num_two_qubit += count
        elif GATE_SPECS[name][0] == 1 and name != "measure":
            num_one_qubit += count
    num_other = counts.get("measure", 0)
    return CompileStats(
        num_gates=len(circuit) - counts.get("barrier", 0),
        num_two_qubit_gates=num_two_qubit,
        num_one_qubit_gates=num_one_qubit,
        num_other_ops=num_other,
        num_swaps=routing.num_swaps,
        num_opposing_swaps=routing.num_opposing_swaps,
        opposing_swap_ratio=routing.opposing_swap_ratio,
        max_swap_span=routing.max_swap_span(),
        num_moves=program.num_moves,
        move_distance_ions=program.move_distance_ions,
        move_distance_um=program.move_distance_um,
        depth=circuit.depth(),
        time_decompose_s=time_decompose_s,
        time_swap_s=time_swap_s,
        time_schedule_s=time_schedule_s,
    )
