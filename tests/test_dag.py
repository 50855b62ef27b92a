"""Unit tests for circuit dependency analysis (FrontierTracker)."""

import random

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.dag import FrontierTracker
from repro.exceptions import CircuitError


def sample_circuit() -> Circuit:
    """h(0); h(1); cx(0,1); x(1); cx(1,2)."""
    return Circuit(3).h(0).h(1).cx(0, 1).x(1).cx(1, 2)


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
        tracker.complete_many([0, 1, 2, 3, 4])
        assert tracker.is_done()
        assert tracker.remaining() == 0

    def test_greedy_closure_respects_predicate(self):
        circuit = sample_circuit()
        tracker = FrontierTracker(circuit)
        executed = tracker.greedy_closure(lambda g: all(q <= 1 for q in g.qubits))
        # Gates on qubits {0,1} only: h(0), h(1), cx(0,1), x(1).
        assert sorted(executed) == [0, 1, 2, 3]
        # The tracker itself is untouched.
        assert tracker.ready() == {0, 1}

    def test_greedy_closure_order_is_replayable(self):
        circuit = sample_circuit()
        tracker = FrontierTracker(circuit)
        executed = tracker.greedy_closure(lambda g: True)
        tracker.complete_many(executed)  # must not raise
        assert tracker.is_done()

    def test_greedy_closure_empty_when_nothing_accepted(self):
        tracker = FrontierTracker(sample_circuit())
        assert tracker.greedy_closure(lambda g: False) == []

    def test_restricted_index_subset(self):
        circuit = sample_circuit()
        tracker = FrontierTracker(circuit, indices=[2, 3, 4])
        assert tracker.ready() == {2}
        tracker.complete(2)
        assert tracker.ready() == {3}

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
        num_qubits = 9
        # cz(1,2) shares both qubits with cx(1,2): a duplicate successor edge.
        circuit = Circuit(num_qubits).cx(1, 2).cz(2, 1).barrier(2, 3, 5)
        for _ in range(40):
            draw = rng.random()
            if draw < 0.3:
                circuit.h(rng.randrange(num_qubits))
            elif draw < 0.8:
                circuit.cx(*rng.sample(range(num_qubits), 2))
            elif draw < 0.9:
                circuit.ccx(*rng.sample(range(num_qubits), 3))
            else:
                circuit.barrier(*rng.sample(range(num_qubits), rng.randint(2, 4)))
        tracker = FrontierTracker(circuit)
        while not tracker.is_done():
            for width in (2, 3, 5):
                extents = tracker.window_extents(width)
                for position in range(num_qubits - width + 1):
                    last = position + width - 1
                    closure = tracker.greedy_closure(
                        lambda g, first=position, last=last: all(
                            first <= q <= last for q in g.qubits))
                    covering = [(low, high) for low, high in extents
                                if high - width < position <= low]
                    assert len(covering) == len(closure), (width, position)
            tracker.complete(rng.choice(sorted(tracker.ready())))
