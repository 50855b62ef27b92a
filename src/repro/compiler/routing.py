"""Shared types and helpers for swap-insertion (routing) passes.

Both routers — the baseline stochastic inserter and the LinQ heuristic of
Algorithm 1 — consume a *logical* circuit plus an initial
:class:`~repro.compiler.layout.QubitMapping` and produce a *physical*
circuit in which every two-qubit gate fits under the laser head, together
with a record of every inserted SWAP (and whether it was an opposing swap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import TWO_QUBIT_GATE_NAMES, Gate
from repro.compiler.layout import QubitMapping
from repro.exceptions import RoutingError


@dataclass(frozen=True)
class SwapRecord:
    """One SWAP inserted by a router.

    Attributes
    ----------
    physical_pair:
        The two physical positions exchanged (sorted ascending).
    gate_index:
        Index of the SWAP gate in the routed circuit.
    resolving_gate_index:
        Index (in the *logical* circuit) of the two-qubit gate this SWAP was
        inserted to resolve.
    opposing:
        True when the SWAP simultaneously moves data usefully in both
        directions (Figure 2(c) of the paper).
    """

    physical_pair: tuple[int, int]
    gate_index: int
    resolving_gate_index: int
    opposing: bool

    @property
    def span(self) -> int:
        """Physical distance covered by the SWAP."""
        return self.physical_pair[1] - self.physical_pair[0]


@dataclass
class RoutingResult:
    """Output of a routing pass."""

    circuit: Circuit
    initial_mapping: QubitMapping
    final_mapping: QubitMapping
    swaps: list[SwapRecord] = field(default_factory=list)

    @property
    def num_swaps(self) -> int:
        """Total number of inserted SWAP gates."""
        return len(self.swaps)

    @property
    def num_opposing_swaps(self) -> int:
        """Number of SWAPs classified as opposing."""
        return sum(1 for record in self.swaps if record.opposing)

    @property
    def opposing_swap_ratio(self) -> float:
        """Fraction of SWAPs that were opposing (0.0 when no SWAPs)."""
        if not self.swaps:
            return 0.0
        return self.num_opposing_swaps / self.num_swaps

    def max_swap_span(self) -> int:
        """Largest physical span among inserted SWAPs (0 when none)."""
        return max((record.span for record in self.swaps), default=0)


def check_mapping_size(mapping: QubitMapping, device: TiltDevice) -> None:
    """Raise :class:`RoutingError` unless *mapping* places every ion of
    the device's chain."""
    if mapping.num_qubits != device.num_qubits:
        raise RoutingError(
            f"initial mapping has {mapping.num_qubits} qubits but the device "
            f"has {device.num_qubits}"
        )


def check_routed(circuit: Circuit, device: TiltDevice) -> None:
    """Raise :class:`RoutingError` unless every 2q gate fits under the head."""
    max_span = device.max_gate_span
    for index, gate in enumerate(circuit):
        if gate.name in TWO_QUBIT_GATE_NAMES:
            a, b = gate.qubits
            if abs(a - b) > max_span:
                raise RoutingError(
                    f"gate {index} ({gate}) spans {gate.span} > {max_span}"
                )


def relabeller(position: list[int]) -> Callable[[Gate], Gate]:
    """``relabel(gate)``: ``gate.remapped(position)`` for the live
    *position* list, built once per source gate and new qubits.  The memo
    keys on the source gate's identity, as ``rz(0.0) == rz(-0.0)``; the
    circuit being routed holds every source gate, so no id is reused."""
    memo: dict[tuple[int, tuple[int, ...]], Gate] = {}

    def relabel(gate: Gate) -> Gate:
        qubits = tuple([position[q] for q in gate.qubits])
        if qubits == gate.qubits:
            return gate
        key = (id(gate), qubits)
        moved = memo.get(key)
        if moved is None:
            moved = memo[key] = gate.remapped(position)
        return moved

    return relabel


def classify_opposing(swap_low: int, swap_high: int,
                      pending: Sequence[tuple[int, Gate]],
                      mapping: QubitMapping) -> bool:
    """Decide whether swapping positions (low, high) is an opposing swap.

    The swap moves the ion at ``swap_low`` rightwards and the ion at
    ``swap_high`` leftwards.  It is *opposing* when at least one pending
    two-qubit gate gets closer because of the rightward move **and** another
    pending gate gets closer because of the leftward move — i.e. two data
    movements in opposite directions were combined into a single SWAP
    (Figure 2(c)).  The gate joining the two swapped ions themselves keeps
    its distance and never counts.
    """
    logical_low = mapping.logical(swap_low)
    logical_high = mapping.logical(swap_high)
    rightward_benefits = False
    leftward_benefits = False
    for _, gate in pending:
        a, b = gate.qubits
        if logical_low in (a, b) and logical_high in (a, b):
            continue  # the swapped pair itself: distance unchanged
        if logical_low in (a, b):
            partner = b if a == logical_low else a
            partner_position = mapping.physical(partner)
            if abs(partner_position - swap_high) < abs(partner_position - swap_low):
                rightward_benefits = True
        if logical_high in (a, b):
            partner = b if a == logical_high else a
            partner_position = mapping.physical(partner)
            if abs(partner_position - swap_low) < abs(partner_position - swap_high):
                leftward_benefits = True
        if rightward_benefits and leftward_benefits:
            return True
    return False
