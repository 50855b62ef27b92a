"""Unit tests for circuit dependency analysis (FrontierTracker).

The tracker runs a window's closure in place (:meth:`run_closure`).  The
form it replaced is kept here as the oracle: :func:`greedy_closure` finds
the closure on an overlay of in-degrees without touching the tracker, and
:func:`complete_many` replays it gate by gate.
"""

import random
from typing import Callable, Iterable

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.dag import FrontierTracker
from repro.circuits.gate import Gate
from repro.exceptions import CircuitError


def greedy_closure(tracker: FrontierTracker,
                   accepts: Callable[[Gate], bool]) -> list[int]:
    """Gates executable in one pass if only *accepts*-gates may run.

    Starting from the tracker's ready set, in its iteration order,
    repeatedly execute every ready gate accepted by the predicate,
    releasing its successors, until no accepted gate is ready.  The
    tracker is not modified; the returned order can be replayed with
    :func:`complete_many`.  It reads the tracker's own ready set, not
    the copy ``ready()`` returns, because a copy can iterate in another
    order and the order is part of what the scheduler must reproduce.
    """
    gates = tracker.circuit.gates
    successors = tracker._successors
    indegree = tracker._indegree
    executed: list[int] = []
    overlay_indegree: dict[int, int] = {}
    queue = [index for index in tracker._ready if accepts(gates[index])]
    in_queue = set(queue)
    while queue:
        index = queue.pop()
        executed.append(index)
        for succ in successors[index]:
            remaining = overlay_indegree.get(succ, indegree[succ]) - 1
            overlay_indegree[succ] = remaining
            if remaining == 0 and succ not in in_queue and accepts(gates[succ]):
                queue.append(succ)
                in_queue.add(succ)
    return executed


def complete_many(tracker: FrontierTracker, indices: Iterable[int]) -> None:
    """Complete several gates; ordering inside *indices* must be valid."""
    for index in indices:
        tracker.complete(index)


def in_window(low: int, high: int) -> Callable[[Gate], bool]:
    """The predicate of the head window over qubits ``low … high``."""
    return lambda gate: all(low <= q <= high for q in gate.qubits)


def sample_circuit() -> Circuit:
    """h(0); h(1); cx(0,1); x(1); cx(1,2)."""
    return Circuit(3).h(0).h(1).cx(0, 1).x(1).cx(1, 2)


def random_dag_circuit(rng: random.Random, num_qubits: int = 9,
                       num_gates: int = 40) -> Circuit:
    """Random 1-, 2- and 3-qubit gates and barriers, with a duplicate
    successor edge up front (cz(2,1) shares both qubits with cx(1,2))."""
    circuit = Circuit(num_qubits).cx(1, 2).cz(2, 1).barrier(2, 3, 5)
    for _ in range(num_gates):
        draw = rng.random()
        if draw < 0.3:
            circuit.h(rng.randrange(num_qubits))
        elif draw < 0.8:
            circuit.cx(*rng.sample(range(num_qubits), 2))
        elif draw < 0.9:
            circuit.ccx(*rng.sample(range(num_qubits), 3))
        else:
            circuit.barrier(*rng.sample(range(num_qubits), rng.randint(2, 4)))
    return circuit


class TestFrontierTracker:
    def test_initial_ready_set(self):
        tracker = FrontierTracker(sample_circuit())
        assert tracker.ready() == {0, 1}
        assert tracker.remaining() == 5

    def test_complete_releases_successors(self):
        tracker = FrontierTracker(sample_circuit())
        tracker.complete(0)
        assert 2 not in tracker.ready()
        newly = tracker.complete(1)
        assert newly == [2]
        assert tracker.ready() == {2}

    def test_complete_unready_gate_raises(self):
        tracker = FrontierTracker(sample_circuit())
        with pytest.raises(CircuitError):
            tracker.complete(2)

    def test_complete_many_and_done(self):
        tracker = FrontierTracker(sample_circuit())
        complete_many(tracker, [0, 1, 2, 3, 4])
        assert tracker.is_done()
        assert tracker.remaining() == 0

    def test_greedy_closure_respects_predicate(self):
        circuit = sample_circuit()
        tracker = FrontierTracker(circuit)
        executed = greedy_closure(tracker, in_window(0, 1))
        # Gates on qubits {0,1} only: h(0), h(1), cx(0,1), x(1).
        assert sorted(executed) == [0, 1, 2, 3]
        # The tracker itself is untouched.
        assert tracker.ready() == {0, 1}

    def test_greedy_closure_order_is_replayable(self):
        circuit = sample_circuit()
        tracker = FrontierTracker(circuit)
        executed = greedy_closure(tracker, lambda g: True)
        complete_many(tracker, executed)  # must not raise
        assert tracker.is_done()

    def test_greedy_closure_empty_when_nothing_accepted(self):
        tracker = FrontierTracker(sample_circuit())
        assert greedy_closure(tracker, lambda g: False) == []

    def test_run_closure_completes_the_window(self):
        tracker = FrontierTracker(sample_circuit())
        assert sorted(tracker.run_closure(0, 1)) == [0, 1, 2, 3]
        assert tracker.ready() == {4}
        assert tracker.remaining() == 1
        assert tracker.run_closure(0, 1) == []
        assert tracker.run_closure(1, 2) == [4]
        assert tracker.is_done()

    @pytest.mark.parametrize("seed", range(6))
    def test_run_closure_equals_the_replayed_closure(self, seed):
        """Same gates in the same order, and the same ready-set history:
        the ready sets iterate alike after every closure."""
        rng = random.Random(seed)
        circuit = random_dag_circuit(rng)
        replayed = FrontierTracker(circuit)
        in_place = FrontierTracker(circuit)
        while not in_place.is_done():
            width = rng.choice((2, 3, 5))
            low = rng.randrange(circuit.num_qubits - width + 1)
            high = low + width - 1
            expected = greedy_closure(replayed, in_window(low, high))
            complete_many(replayed, expected)
            assert in_place.run_closure(low, high) == expected
            assert list(in_place._ready) == list(replayed._ready)
            assert in_place._indegree == replayed._indegree
            assert in_place.remaining() == replayed.remaining()
            if not expected:
                index = rng.choice(sorted(in_place.ready()))
                replayed.complete(index)
                in_place.complete(index)

    def test_spans_read_the_stored_extents(self):
        tracker = FrontierTracker(Circuit(6).h(4).cx(5, 1).barrier(0, 2, 3))
        assert tracker.spans() == [0, 4, 3]

    def test_window_extents_skip_gates_wider_than_the_window(self):
        tracker = FrontierTracker(sample_circuit())
        # cx(1,2) needs cx(0,1) first: its extent (0, 2) fits width 3 only.
        assert sorted(tracker.window_extents(2)) == [(0, 0), (0, 1), (0, 1), (1, 1)]
        assert sorted(tracker.window_extents(3)) == [
            (0, 0), (0, 1), (0, 1), (0, 2), (1, 1)]
        assert tracker.ready() == {0, 1}

    @pytest.mark.parametrize("seed", range(6))
    def test_window_extents_count_every_window_closure(self, seed):
        """Extents covering a window == gates the window's closure runs."""
        rng = random.Random(seed)
        circuit = random_dag_circuit(rng)
        num_qubits = circuit.num_qubits
        tracker = FrontierTracker(circuit)
        while not tracker.is_done():
            for width in (2, 3, 5):
                extents = tracker.window_extents(width)
                for position in range(num_qubits - width + 1):
                    closure = greedy_closure(
                        tracker, in_window(position, position + width - 1))
                    covering = [(low, high) for low, high in extents
                                if high - width < position <= low]
                    assert len(covering) == len(closure), (width, position)
            tracker.complete(rng.choice(sorted(tracker.ready())))
