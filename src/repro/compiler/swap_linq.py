"""LinQ swap insertion — Algorithm 1 of the paper.

For every two-qubit gate whose physical span exceeds the laser-head width,
SWAPs are inserted one at a time.  Candidate SWAPs move one endpoint of the
gate to an intermediate position no further than ``max_swap_len`` away; each
candidate is scored with Eq. 1 — the sum of the physical spans of the
upcoming two-qubit gates under the post-swap mapping, discounted by
``alpha ** lookahead_offset`` — and the lowest-scoring candidate is applied.
Because the score looks at *all* pending gates, the router naturally prefers
SWAPs that help traffic flowing in both directions at once (opposing swaps,
Figure 2(c)), which is where the swap-count savings over the baseline come
from.

The score is evaluated over a finite lookahead window (default 200 upcoming
two-qubit gates); with ``alpha < 1`` the dropped tail contributes a
geometrically vanishing amount, and the truncation keeps each SWAP decision
O(candidates x window) instead of O(candidates x remaining gates).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, repeat

from repro.arch.tilt import TiltDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler.layout import QubitMapping
from repro.compiler.routing import (
    RoutingResult,
    SwapRecord,
    check_routed,
    classify_opposing,
)
from repro.exceptions import RoutingError


@dataclass(frozen=True)
class _Candidate:
    """A candidate SWAP between two physical positions."""

    low: int
    high: int

    @property
    def span(self) -> int:
        return self.high - self.low


class LinqSwapInserter:
    """Opposing-swap-aware router (Algorithm 1).

    Parameters
    ----------
    device:
        Target TILT device.
    max_swap_len:
        Maximum physical span of an inserted SWAP; defaults to
        ``head_size - 1`` and may be reduced to give the tape-movement
        scheduler more freedom (Figure 7).
    lookahead_window:
        Number of upcoming two-qubit gates included in the Eq. 1 score.  A
        window of ~200 is needed for the opposing-swap structure of QFT-like
        programs (whose return traffic appears an outer loop later) to be
        visible to the score.
    alpha:
        Eq. 1 discount factor in (0, 1).
    """

    def __init__(
        self,
        device: TiltDevice,
        *,
        max_swap_len: int | None = None,
        lookahead_window: int = 200,
        alpha: float = 0.98,
    ) -> None:
        if max_swap_len is None:
            max_swap_len = device.max_gate_span
        if not 1 <= max_swap_len <= device.max_gate_span:
            raise RoutingError(
                f"max_swap_len must be in [1, {device.max_gate_span}], "
                f"got {max_swap_len}"
            )
        if lookahead_window < 1:
            raise RoutingError("lookahead_window must be at least 1")
        if not 0 < alpha < 1:
            raise RoutingError("alpha must be strictly between 0 and 1")
        self.device = device
        self.max_swap_len = max_swap_len
        self.lookahead_window = lookahead_window
        self.alpha = alpha

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def route(self, circuit: Circuit,
              initial_mapping: QubitMapping | None = None) -> RoutingResult:
        """Insert SWAPs so every two-qubit gate fits under the laser head."""
        if circuit.num_qubits > self.device.num_qubits:
            raise RoutingError(
                f"circuit has {circuit.num_qubits} qubits but the device has "
                f"{self.device.num_qubits}"
            )
        mapping = (
            initial_mapping.copy()
            if initial_mapping is not None
            else QubitMapping.identity(self.device.num_qubits)
        )
        initial = mapping.copy()
        routed = Circuit(self.device.num_qubits, f"{circuit.name}_routed")
        swaps: list[SwapRecord] = []

        # A gate's lookahead window is the next ``lookahead_window``
        # two-qubit gates from it on; only a gate that needs a SWAP reads it.
        two_qubit = [(index, gate) for index, gate in enumerate(circuit)
                     if gate.is_two_qubit]
        seen = 0
        for index, gate in enumerate(circuit):
            if gate.is_two_qubit:
                if mapping.gate_distance(gate) > self.device.max_gate_span:
                    pending = two_qubit[seen : seen + self.lookahead_window]
                    self._resolve_gate(gate, index, mapping, routed, swaps,
                                       pending)
                seen += 1
            routed.append(mapping.apply_to_gate(gate))

        check_routed(routed, self.device)
        return RoutingResult(routed, initial, mapping, swaps)

    # ------------------------------------------------------------------
    # Algorithm 1 internals
    # ------------------------------------------------------------------
    def _resolve_gate(
        self,
        gate: Gate,
        gate_index: int,
        mapping: QubitMapping,
        routed: Circuit,
        swaps: list[SwapRecord],
        pending: list[tuple[int, Gate]],
    ) -> None:
        """Insert SWAPs until *gate* becomes executable."""
        guard = 0
        while mapping.gate_distance(gate) > self.device.max_gate_span:
            guard += 1
            if guard > 2 * self.device.num_qubits:
                raise RoutingError(
                    f"swap insertion failed to converge for gate {gate}"
                )
            candidate = self._best_candidate(gate, mapping, pending)
            opposing = classify_opposing(candidate.low, candidate.high,
                                         pending, mapping)
            swap_gate = Gate("swap", (candidate.low, candidate.high))
            swaps.append(
                SwapRecord(
                    physical_pair=(candidate.low, candidate.high),
                    gate_index=len(routed),
                    resolving_gate_index=gate_index,
                    opposing=opposing,
                )
            )
            routed.append(swap_gate)
            mapping.swap_physical(candidate.low, candidate.high)

    def _candidates(self, gate: Gate, mapping: QubitMapping) -> list[_Candidate]:
        """Candidate SWAPs moving one endpoint of *gate* strictly inward."""
        position_a = mapping.physical(gate.qubits[0])
        position_b = mapping.physical(gate.qubits[1])
        low, high = min(position_a, position_b), max(position_a, position_b)
        candidates: list[_Candidate] = []
        for intermediate in range(low + 1, high):
            if intermediate - low <= self.max_swap_len:
                candidates.append(_Candidate(low, intermediate))
            if high - intermediate <= self.max_swap_len:
                candidates.append(_Candidate(intermediate, high))
        return candidates

    def _best_candidate(self, gate: Gate, mapping: QubitMapping,
                        pending: list[tuple[int, Gate]]) -> _Candidate:
        """Pick the lowest-scoring candidate (Eq. 1).

        A score is the candidate's change of the Eq. 1 sum.  Only window
        gates touching one of the two moved logical qubits change
        distance, so the (common) contribution of every other gate is
        omitted — candidate ranking is unaffected.  Those gates are found
        through one index of the window by logical qubit and summed in
        window order, the gate at offset ``k`` discounted by ``alpha**k``.
        """
        candidates = self._candidates(gate, mapping)
        if not candidates:
            raise RoutingError(f"no swap candidates for gate {gate}")
        touching: dict[int, list[int]] = {}
        for offset, (_, pending_gate) in enumerate(pending):
            for qubit in pending_gate.qubits:
                touching.setdefault(qubit, []).append(offset)
        discounts = list(accumulate(repeat(self.alpha, len(pending) - 1),
                                    operator.mul, initial=1.0))
        position = mapping.logical_to_physical()
        best: _Candidate | None = None
        best_key: tuple[float, int, int] | None = None
        for candidate in candidates:
            moved_low = mapping.logical(candidate.low)
            moved_high = mapping.logical(candidate.high)
            after = {moved_low: candidate.high, moved_high: candidate.low}
            delta = 0.0
            for offset in sorted({*touching.get(moved_low, ()),
                                  *touching.get(moved_high, ())}):
                qubit_a, qubit_b = pending[offset][1].qubits
                old_distance = abs(position[qubit_a] - position[qubit_b])
                new_distance = abs(after.get(qubit_a, position[qubit_a])
                                   - after.get(qubit_b, position[qubit_b]))
                delta += (new_distance - old_distance) * discounts[offset]
            key = (delta, candidate.span, candidate.low)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        assert best is not None
        return best
