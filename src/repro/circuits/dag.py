"""Dependency analysis for circuits.

:class:`FrontierTracker` is an incremental "ready set" over a circuit's
gate dependencies (an edge runs from a gate to the next gate touching
the same qubit).  The tape-movement scheduler repeatedly asks "which
gates could run now?", marks some of them complete and continues; the
tracker supports that access pattern in O(1) amortised per gate.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.exceptions import CircuitError


class FrontierTracker:
    """Incremental ready-set over a circuit's dependency structure.

    Besides completing gates, the tracker answers two read-only queries
    over its current state: :meth:`window_extents`, which tells the
    tape scheduler how many gates each head window could run, and
    :meth:`greedy_closure`, which lists those gates in execution order.
    """

    def __init__(self, circuit: Circuit,
                 indices: Iterable[int] | None = None) -> None:
        gates = circuit.gates
        selected = list(indices) if indices is not None else list(range(len(gates)))
        self._circuit = circuit
        self._gates = gates  # cached: Circuit.gates rebuilds a tuple per call
        self._indegree: dict[int, int] = {}
        self._successors: dict[int, list[int]] = {i: [] for i in selected}
        selected_set = set(selected)
        last_on_qubit: dict[int, int] = {}
        for idx in selected:
            gate = gates[idx]
            indeg = 0
            for qubit in gate.qubits:
                previous = last_on_qubit.get(qubit)
                if previous is not None and previous in selected_set:
                    self._successors[previous].append(idx)
                    indeg += 1
                last_on_qubit[qubit] = idx
            self._indegree[idx] = indeg
        self._ready: set[int] = {i for i, d in self._indegree.items() if d == 0}
        self._completed: set[int] = set()

    # Queries ---------------------------------------------------------------
    @property
    def circuit(self) -> Circuit:
        return self._circuit

    def ready(self) -> set[int]:
        """Indices of gates whose predecessors have all completed."""
        return set(self._ready)

    def remaining(self) -> int:
        """Number of gates not yet completed."""
        return len(self._indegree) - len(self._completed)

    def is_done(self) -> bool:
        return self.remaining() == 0

    # Mutation ---------------------------------------------------------------
    def complete(self, index: int) -> list[int]:
        """Mark gate *index* executed; return newly ready gate indices."""
        if index not in self._ready:
            raise CircuitError(
                f"gate {index} is not ready (predecessors incomplete)"
            )
        self._ready.discard(index)
        self._completed.add(index)
        newly_ready: list[int] = []
        for succ in self._successors[index]:
            self._indegree[succ] -= 1
            if self._indegree[succ] == 0:
                self._ready.add(succ)
                newly_ready.append(succ)
        return newly_ready

    def complete_many(self, indices: Iterable[int]) -> None:
        """Complete several gates; ordering inside *indices* must be valid."""
        for index in indices:
            self.complete(index)

    def greedy_closure(self, accepts: "Callable[[Gate], bool]") -> list[int]:
        """Gates executable in one pass if only *accepts*-gates may run.

        Starting from the current ready set, repeatedly execute every ready
        gate accepted by the predicate, releasing its successors, until no
        accepted gate is ready.  The tracker itself is **not** modified; the
        returned list is a valid execution order that can later be replayed
        with :meth:`complete_many`.

        The tape scheduler runs it once per segment, at the head position
        it chose, and replays the result.  The cost is proportional to the
        number of executed gates plus their successor edges (an overlay of
        in-degrees is used instead of copying the tracker).
        """
        gates = self._gates
        executed: list[int] = []
        overlay_indegree: dict[int, int] = {}
        queue = [index for index in self._ready if accepts(gates[index])]
        in_queue = set(queue)
        while queue:
            index = queue.pop()
            executed.append(index)
            for succ in self._successors[index]:
                remaining = overlay_indegree.get(succ, self._indegree[succ]) - 1
                overlay_indegree[succ] = remaining
                if remaining == 0 and succ not in in_queue and accepts(gates[succ]):
                    queue.append(succ)
                    in_queue.add(succ)
        return executed

    def window_extents(self, width: int) -> list[tuple[int, int]]:
        """Qubit extents of the gates some *width*-qubit window could run.

        :meth:`greedy_closure` restricted to a window runs a gate exactly
        when the window holds the gate and all of its not-yet-completed
        ancestors.  Sweeping from the ready set, this returns the lowest
        and highest qubit of that set, ``(low, high)``, for every gate
        whose set spans at most *width* qubits, in no particular order.  A
        gate whose set is wider, and all of its descendants, are skipped,
        so the closure of the window ``[p, p + width - 1]`` holds exactly
        as many gates as there are extents with ``high - width < p <= low``.
        The tracker itself is **not** modified.
        """
        gates = self._gates
        successors = self._successors
        indegree = self._indegree
        limit = width - 1
        extents: list[tuple[int, int]] = []
        # succ -> (predecessors still to sweep, low, high so far)
        pending: dict[int, tuple[int, int, int]] = {}
        stack: list[tuple[int, int, int]] = []
        for index in self._ready:
            qubits = gates[index].qubits
            low = min(qubits)
            high = max(qubits)
            if high - low <= limit:
                stack.append((index, low, high))
        while stack:
            index, low, high = stack.pop()
            extents.append((low, high))
            for succ in successors[index]:
                state = pending.get(succ)
                if state is None:
                    qubits = gates[succ].qubits
                    remaining = indegree[succ] - 1
                    succ_low = min(qubits)
                    succ_high = max(qubits)
                else:
                    remaining, succ_low, succ_high = state
                    remaining -= 1
                if low < succ_low:
                    succ_low = low
                if high > succ_high:
                    succ_high = high
                if remaining:
                    pending[succ] = (remaining, succ_low, succ_high)
                elif succ_high - succ_low <= limit:
                    stack.append((succ, succ_low, succ_high))
        return extents
