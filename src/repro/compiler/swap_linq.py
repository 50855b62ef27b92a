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
from repro.circuits.gate import TWO_QUBIT_GATE_NAMES, Gate
from repro.compiler.layout import QubitMapping
from repro.compiler.routing import (
    RoutingResult,
    SwapRecord,
    check_mapping_size,
    check_routed,
    classify_opposing,
    relabeller,
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
        device = self.device
        if circuit.num_qubits > device.num_qubits:
            raise RoutingError(
                f"circuit has {circuit.num_qubits} qubits but the device has "
                f"{device.num_qubits}"
            )
        mapping = (
            initial_mapping.copy()
            if initial_mapping is not None
            else QubitMapping.identity(device.num_qubits)
        )
        check_mapping_size(mapping, device)
        initial = mapping.copy()
        routed = Circuit(device.num_qubits, f"{circuit.name}_routed")
        swaps: list[SwapRecord] = []

        # A gate's lookahead window is the next ``lookahead_window``
        # two-qubit gates from it on; only a gate that needs a SWAP reads it.
        two_qubit = [(index, gate) for index, gate in enumerate(circuit)
                     if gate.name in TWO_QUBIT_GATE_NAMES]
        position = mapping.positions
        relabel = relabeller(position)
        max_span = device.max_gate_span
        seen = 0
        for index, gate in enumerate(circuit):
            if gate.name in TWO_QUBIT_GATE_NAMES:
                a, b = gate.qubits
                if abs(position[a] - position[b]) > max_span:
                    pending = two_qubit[seen : seen + self.lookahead_window]
                    self._resolve_gate(gate, index, mapping, routed, swaps,
                                       pending)
                seen += 1
            routed.append(relabel(gate))

        check_routed(routed, device)
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
        gates with an operand at one of the two swapped positions change
        distance, so the (common) contribution of every other gate is
        omitted — candidate ranking is unaffected.  Every candidate
        swaps the gate's left end ``low`` or its right end ``high`` with
        a position ``m`` between them, so one pass over the window finds
        each changed distance: a window gate with an operand at ``low``
        (``high``) changes under every left (right) swap, and one with an
        operand at ``m`` under the one or two swaps of ``m``.  Each score
        adds its terms in window order, the gate at offset ``k``
        discounted by ``alpha**k``.
        """
        candidates = self._candidates(gate, mapping)
        if not candidates:
            raise RoutingError(f"no swap candidates for gate {gate}")
        position = mapping.positions
        low, high = sorted((position[gate.qubits[0]], position[gate.qubits[1]]))
        # score of the swap (low, m) by m, and of the swap (m, high) by m
        left = {c.high: 0.0 for c in candidates if c.low == low}
        right = {c.low: 0.0 for c in candidates if c.high == high}
        discounts = accumulate(repeat(self.alpha, len(pending) - 1),
                               operator.mul, initial=1.0)
        for (_, pending_gate), discount in zip(pending, discounts):
            qubit_a, qubit_b = pending_gate.qubits
            at_a = position[qubit_a]
            at_b = position[qubit_b]
            if not (low <= at_a <= high or low <= at_b <= high):
                continue
            old_distance = abs(at_a - at_b)
            for end, other in ((at_a, at_b), (at_b, at_a)):
                if end == low:
                    # (low, m) moves this end to m and an operand at m to low
                    for m in left:
                        new_distance = abs(m - (low if other == m else other))
                        left[m] += (new_distance - old_distance) * discount
                elif end == high:
                    for m in right:
                        new_distance = abs(m - (high if other == m else other))
                        right[m] += (new_distance - old_distance) * discount
                elif low < end < high:
                    # an operand at low (high) was scored with that end
                    if end in left and other != low:
                        left[end] += (abs(low - other) - old_distance) * discount
                    if end in right and other != high:
                        right[end] += (abs(high - other) - old_distance) * discount
        best: _Candidate | None = None
        best_key: tuple[float, int, int] | None = None
        for candidate in candidates:
            delta = (left[candidate.high] if candidate.low == low
                     else right[candidate.low])
            key = (delta, candidate.span, candidate.low)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        assert best is not None
        return best
