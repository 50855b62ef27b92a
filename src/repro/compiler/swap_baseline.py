"""Baseline swap insertion (the paper's Qiskit-StochasticSwap stand-in).

The paper's baseline resolves every unexecutable two-qubit gate with the
Qiskit StochasticSwap pass configured to allow SWAPs as long as the laser
head.  Qiskit is not available in this offline environment, so this module
re-implements the two properties of that baseline that drive the Figure 6
comparison:

* every inserted SWAP covers the maximum executable span (``head_size - 1``
  by default), so the tape is forced to one exact position per SWAP; and
* SWAPs are chosen per gate without any lookahead, so opposing swaps only
  happen by accident.

The "stochastic" part is reproduced by running several seeded trials that
randomise which endpoint of the long gate moves, and keeping the trial with
the fewest SWAPs (ties broken by total SWAP span).  A trial only records its
SWAP decisions; the routed circuit is built once, for the winner.
"""

from __future__ import annotations

import random

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

#: Upcoming two-qubit gates consulted only to *classify* accidental
#: opposing swaps (never to choose a SWAP).
CLASSIFICATION_LOOKAHEAD = 20

#: One SWAP decision of a trial: the index of the (logical) gate it
#: resolves and the two physical positions it exchanges.
Decision = tuple[int, tuple[int, int]]


class BaselineSwapInserter:
    """Greedy full-span router with randomised endpoint choice.

    Parameters
    ----------
    device:
        Target TILT device.
    max_swap_len:
        Span of each inserted SWAP (defaults to the maximum executable span,
        ``head_size - 1`` — the paper's "tape head size as the swap
        distance" baseline).
    trials:
        Number of randomised routing attempts; the best (fewest swaps) is
        returned.
    seed:
        Base random seed for the trials.
    """

    def __init__(
        self,
        device: TiltDevice,
        *,
        max_swap_len: int | None = None,
        trials: int = 5,
        seed: int = 11,
    ) -> None:
        if max_swap_len is None:
            max_swap_len = device.max_gate_span
        if not 1 <= max_swap_len <= device.max_gate_span:
            raise RoutingError(
                f"max_swap_len must be in [1, {device.max_gate_span}], "
                f"got {max_swap_len}"
            )
        if trials < 1:
            raise RoutingError("need at least one routing trial")
        self.device = device
        self.max_swap_len = max_swap_len
        self.trials = trials
        self.seed = seed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def route(self, circuit: Circuit,
              initial_mapping: QubitMapping | None = None) -> RoutingResult:
        """Insert SWAPs; return the best of ``trials`` randomised attempts."""
        if circuit.num_qubits > self.device.num_qubits:
            raise RoutingError(
                f"circuit has {circuit.num_qubits} qubits but the device has "
                f"only {self.device.num_qubits}"
            )
        base_mapping = (
            initial_mapping.copy()
            if initial_mapping is not None
            else QubitMapping.identity(self.device.num_qubits)
        )
        check_mapping_size(base_mapping, self.device)
        # Only two-qubit gates take SWAPs; trials walk just those.
        two_qubit = [(index, gate) for index, gate in enumerate(circuit)
                     if gate.name in TWO_QUBIT_GATE_NAMES]
        best: list[Decision] | None = None
        best_key: tuple[int, int] | None = None
        for trial in range(self.trials):
            rng = random.Random(self.seed + trial)
            decisions = self._decide(two_qubit, base_mapping.copy(), rng)
            key = (len(decisions),
                   sum(high - low for _, (low, high) in decisions))
            if best_key is None or key < best_key:
                best, best_key = decisions, key
        assert best is not None
        result = self._build(circuit, two_qubit, base_mapping, best)
        check_routed(result.circuit, self.device)
        return result

    # ------------------------------------------------------------------
    # Single randomised attempt, and the circuit of the winning one
    # ------------------------------------------------------------------
    def _decide(self, two_qubit: list[tuple[int, Gate]],
                mapping: QubitMapping,
                rng: random.Random) -> list[Decision]:
        """Move a randomly chosen endpoint of each long gate of
        *two_qubit* (``(index, gate)`` in program order) the full SWAP
        span inward until it fits; return every SWAP decision."""
        decisions: list[Decision] = []
        position = mapping.positions
        max_span = self.device.max_gate_span
        for index, gate in two_qubit:
            a, b = gate.qubits
            guard = 0
            while abs(position[a] - position[b]) > max_span:
                guard += 1
                if guard > 2 * self.device.num_qubits:
                    raise RoutingError(
                        f"baseline routing failed to converge for gate {gate}"
                    )
                low, high = sorted((position[a], position[b]))
                step = min(self.max_swap_len, high - low - 1)
                if rng.random() < 0.5:  # move the left end
                    pair = (low, low + step)
                else:
                    pair = (high - step, high)
                decisions.append((index, pair))
                mapping.swap_physical(*pair)
        return decisions

    def _build(self, circuit: Circuit, two_qubit: list[tuple[int, Gate]],
               initial: QubitMapping,
               decisions: list[Decision]) -> RoutingResult:
        """The routed circuit and classified SWAP records of *decisions*.

        A SWAP is classified against the next CLASSIFICATION_LOOKAHEAD
        gates of *two_qubit* from the gate it resolves on.
        """
        mapping = initial.copy()
        relabel = relabeller(mapping.positions)
        routed = Circuit(self.device.num_qubits, f"{circuit.name}_routed")
        swaps: list[SwapRecord] = []
        pairs_before: dict[int, list[tuple[int, int]]] = {}
        for index, pair in decisions:
            pairs_before.setdefault(index, []).append(pair)
        seen = 0  # two-qubit gates before this one
        for index, gate in enumerate(circuit):
            for pair in pairs_before.get(index, ()):
                pending = two_qubit[seen : seen + CLASSIFICATION_LOOKAHEAD]
                swaps.append(
                    SwapRecord(
                        physical_pair=pair,
                        gate_index=len(routed),
                        resolving_gate_index=index,
                        opposing=classify_opposing(pair[0], pair[1],
                                                   pending, mapping),
                    )
                )
                routed.append(Gate("swap", pair))
                mapping.swap_physical(*pair)
            if gate.name in TWO_QUBIT_GATE_NAMES:
                seen += 1
            routed.append(relabel(gate))
        return RoutingResult(routed, initial, mapping, swaps)
