"""Dependency analysis for circuits.

:class:`FrontierTracker` is an incremental "ready set" over a circuit's
gate dependencies (an edge runs from a gate to the next gate touching
the same qubit).  The tape-movement scheduler repeatedly asks "which
gates could run now?", marks some of them complete and continues; the
tracker supports that access pattern in O(1) amortised per gate.
"""

from __future__ import annotations

import operator

from repro.circuits.circuit import Circuit
from repro.exceptions import CircuitError


class FrontierTracker:
    """Incremental ready-set over a circuit's dependency structure.

    In-degrees, successor lists and each gate's lowest and highest qubit
    are lists indexed by gate, built once with the tracker.  Besides
    completing gates one at a time, the tracker answers
    :meth:`window_extents`, which tells the tape scheduler how many gates
    each head window could run, and :meth:`run_closure`, which runs the
    gates one window can run, in place.
    """

    def __init__(self, circuit: Circuit) -> None:
        operands = [gate.qubits for gate in circuit]
        count = len(operands)
        self._circuit = circuit
        self._indegree = indegree = [0] * count
        self._successors = successors = [[] for _ in range(count)]
        self._lowest = list(map(min, operands))
        self._highest = list(map(max, operands))
        last_on_qubit = [-1] * circuit.num_qubits
        for index, qubits in enumerate(operands):
            edges = 0
            for qubit in qubits:
                previous = last_on_qubit[qubit]
                if previous >= 0:
                    successors[previous].append(index)
                    edges += 1
                last_on_qubit[qubit] = index
            indegree[index] = edges
        self._ready: set[int] = {i for i in range(count) if indegree[i] == 0}
        self._remaining = count

    # Queries ---------------------------------------------------------------
    @property
    def circuit(self) -> Circuit:
        return self._circuit

    def ready(self) -> set[int]:
        """Indices of gates whose predecessors have all completed."""
        return set(self._ready)

    def remaining(self) -> int:
        """Number of gates not yet completed."""
        return self._remaining

    def is_done(self) -> bool:
        return self._remaining == 0

    def spans(self) -> list[int]:
        """Each gate's highest minus lowest qubit, indexed by gate."""
        return list(map(operator.sub, self._highest, self._lowest))

    # Mutation ---------------------------------------------------------------
    def complete(self, index: int) -> list[int]:
        """Mark gate *index* executed; return newly ready gate indices."""
        if index not in self._ready:
            raise CircuitError(
                f"gate {index} is not ready (predecessors incomplete)"
            )
        self._ready.discard(index)
        self._remaining -= 1
        newly_ready: list[int] = []
        indegree = self._indegree
        for succ in self._successors[index]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                self._ready.add(succ)
                newly_ready.append(succ)
        return newly_ready

    def run_closure(self, low: int, high: int) -> list[int]:
        """Run every gate the window of qubits ``low … high`` can run.

        Starting from the ready set, repeatedly complete a ready gate
        whose qubits all lie in the window, releasing its successors,
        until no such gate is ready; return the completed gates in
        execution order.  The ready set sees the same sequence of
        removals and additions as completing that order one gate at a
        time, so its iteration order, and with it every later closure,
        does not depend on how the closure was found.  The cost is
        proportional to the executed gates plus their successor edges.
        """
        lowest = self._lowest
        highest = self._highest
        successors = self._successors
        indegree = self._indegree
        ready = self._ready
        queue = [index for index in ready
                 if low <= lowest[index] and highest[index] <= high]
        executed: list[int] = []
        while queue:
            index = queue.pop()
            executed.append(index)
            ready.discard(index)
            for succ in successors[index]:
                remaining = indegree[succ] - 1
                indegree[succ] = remaining
                if remaining == 0:
                    ready.add(succ)
                    if low <= lowest[succ] and highest[succ] <= high:
                        queue.append(succ)
        self._remaining -= len(executed)
        return executed

    def window_extents(self, width: int) -> list[tuple[int, int]]:
        """Qubit extents of the gates some *width*-qubit window could run.

        :meth:`run_closure` on a window runs a gate exactly when the
        window holds the gate and all of its not-yet-completed ancestors.
        Sweeping from the ready set, this returns the lowest and highest
        qubit of that set, ``(low, high)``, for every gate whose set spans
        at most *width* qubits, in no particular order.  A gate whose set
        is wider, and all of its descendants, are skipped, so the closure
        of the window ``[p, p + width - 1]`` holds exactly as many gates
        as there are extents with ``high - width < p <= low``.  The
        tracker itself is **not** modified.
        """
        lowest = self._lowest
        highest = self._highest
        successors = self._successors
        indegree = self._indegree
        limit = width - 1
        extents: list[tuple[int, int]] = []
        # succ -> (predecessors still to sweep, low, high so far)
        pending: dict[int, tuple[int, int, int]] = {}
        stack: list[tuple[int, int, int]] = []
        for index in self._ready:
            low = lowest[index]
            high = highest[index]
            if high - low <= limit:
                stack.append((index, low, high))
        while stack:
            index, low, high = stack.pop()
            extents.append((low, high))
            for succ in successors[index]:
                state = pending.get(succ)
                if state is None:
                    remaining = indegree[succ] - 1
                    succ_low = lowest[succ]
                    succ_high = highest[succ]
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
