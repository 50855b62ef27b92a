"""Native gate decomposition (Section IV-B of the paper).

Two levels are provided:

* :func:`decompose_to_cx` — rewrite every multi-qubit gate into CX plus
  single-qubit gates.  This is the level at which the paper counts "2Q
  gates" (Table II) and at which routing reasons about interactions.
* :func:`decompose_to_native` — further rewrite everything into the TILT
  native set ``{rx, ry, rz, xx}``.  CX follows the paper's Molmer-Sorensen
  construction (Ry/XX/Rx/Rx/Ry); the sign of the Rx rotations differs from
  the paper's listing because of the rotation-sign convention used here
  (``r*(theta) = exp(-i theta P / 2)``, ``xx(theta) = exp(+i theta XX)``) —
  the decomposition is verified against the exact CX unitary in the tests.

Both levels share one set of CX-level rewrite rules (:func:`_rewrite_to_cx`).
The native level streams: each source gate expands straight to native
gates, and with ``merge_rotations`` adjacent same-axis rotations fuse in
the same pass, so no intermediate circuit is built.
"""

from __future__ import annotations

import math

from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.exceptions import CompilationError

_PI = math.pi
_TWO_PI = 2 * _PI

#: Parameter-free single-qubit gates as native rotations ``(axis, angle)``,
#: in the order they are applied.
_FIXED_ROTATIONS: dict[str, tuple[tuple[str, float], ...]] = {
    "id": (),
    "x": (("rx", _PI),),
    "y": (("ry", _PI),),
    "z": (("rz", _PI),),
    "h": (("rz", _PI), ("ry", _PI / 2)),
    "s": (("rz", _PI / 2),),
    "sdg": (("rz", -_PI / 2),),
    "t": (("rz", _PI / 4),),
    "tdg": (("rz", -_PI / 4),),
    "sx": (("rx", _PI / 2),),
}

_ROTATIONS = ("rx", "ry", "rz")


def _rewrite_to_cx(gate: Gate,
                   sink: "_CxLevelCircuit | _NativeWriter") -> None:
    """Rewrite a multi-qubit gate other than ``cx`` into CX plus
    single-qubit gates, passed in program order to
    ``sink.one_qubit(name, qubit, *params)`` and
    ``sink.cx(control, target)``."""
    name = gate.name
    if name == "ccx":  # the standard 6-CX Toffoli
        c1, c2, target = gate.qubits
        sink.one_qubit("h", target)
        sink.cx(c2, target)
        sink.one_qubit("tdg", target)
        sink.cx(c1, target)
        sink.one_qubit("t", target)
        sink.cx(c2, target)
        sink.one_qubit("tdg", target)
        sink.cx(c1, target)
        sink.one_qubit("t", c2)
        sink.one_qubit("t", target)
        sink.one_qubit("h", target)
        sink.cx(c1, c2)
        sink.one_qubit("t", c1)
        sink.one_qubit("tdg", c2)
        sink.cx(c1, c2)
        return
    q1, q2 = gate.qubits
    if name == "cz":
        sink.one_qubit("h", q2)
        sink.cx(q1, q2)
        sink.one_qubit("h", q2)
    elif name == "swap":
        sink.cx(q1, q2)
        sink.cx(q2, q1)
        sink.cx(q1, q2)
    elif name == "cp":
        theta = gate.params[0]
        sink.one_qubit("p", q1, theta / 2)
        sink.cx(q1, q2)
        sink.one_qubit("p", q2, -theta / 2)
        sink.cx(q1, q2)
        sink.one_qubit("p", q2, theta / 2)
    elif name == "rzz":
        theta = gate.params[0]
        sink.cx(q1, q2)
        sink.one_qubit("rz", q2, theta)
        sink.cx(q1, q2)
    elif name in ("rxx", "xx"):
        # xx(theta) = exp(+i theta XX) = rxx(-2 theta)
        theta = (-2.0 * gate.params[0] if name == "xx"
                 else gate.params[0])
        sink.one_qubit("h", q1)
        sink.one_qubit("h", q2)
        sink.cx(q1, q2)
        sink.one_qubit("rz", q2, theta)
        sink.cx(q1, q2)
        sink.one_qubit("h", q1)
        sink.one_qubit("h", q2)
    else:  # pragma: no cover - defensive
        raise CompilationError(f"cannot decompose gate {name!r}")


class _CxLevelCircuit:
    """Appends each gate :func:`_rewrite_to_cx` derives to a circuit."""

    def __init__(self, out: Circuit) -> None:
        self._append = out.append

    def one_qubit(self, name: str, qubit: int, *params: float) -> None:
        self._append(Gate(name, (qubit,), params))

    def cx(self, control: int, target: int) -> None:
        self._append(Gate("cx", (control, target)))


def decompose_to_cx(circuit: Circuit, *, keep_xx: bool = False) -> Circuit:
    """Rewrite every multi-qubit gate into CX + single-qubit gates.

    Parameters
    ----------
    keep_xx:
        When True, native ``xx`` gates pass through untouched (useful when
        the input is already partially native).
    """
    out = Circuit(circuit.num_qubits, f"{circuit.name}_cx")
    sink = _CxLevelCircuit(out)
    for gate in circuit:
        name = gate.name
        if (gate.num_qubits == 1 or name in ("cx", "measure", "barrier")
                or (name == "xx" and keep_xx)):
            out.append(gate)
        else:
            _rewrite_to_cx(gate, sink)
    return out


class _NativeWriter:
    """Appends native gates to a circuit, optionally fusing rotations.

    Without *merge* every rotation is appended as it comes.  With it,
    each qubit holds a pending slot ``[axis, angle, source]``: a rotation
    about the held axis adds its angle to the slot (left to right, in
    program order), and anything else on that qubit flushes the slot
    first.  A flushed slot becomes one rotation by the angle's remainder
    modulo 2*pi, or nothing when that is within *tolerance* of 0.
    *source* is the input gate of an unfused slot, reused when it already
    says exactly that.  Slots left at the end flush in the order they
    were opened.  Each gate the writer makes is built once (:meth:`_make`).
    """

    def __init__(self, out: Circuit, *, merge: bool,
                 tolerance: float = 1e-12) -> None:
        self._append = out.append
        self._merge = merge
        self._tolerance = tolerance
        self._pending: dict[int, list] = {}
        self._made: dict[tuple, Gate] = {}

    def _make(self, name: str, qubits: tuple[int, ...], angle: float) -> Gate:
        """The gate *name* on *qubits* by *angle*, built once per writer;
        a zero angle's key carries its sign, as ``0.0 == -0.0``."""
        key = (name, qubits, angle)
        if not angle:
            key += (math.copysign(1.0, angle),)
        made = self._made.get(key)
        if made is None:
            made = self._made[key] = Gate(name, qubits, (angle,))
        return made

    def rotation(self, axis: str, qubit: int, angle: float,
                 source: Gate | None = None) -> None:
        """A rotation about *axis*; *source* is the input gate saying so."""
        if not self._merge:
            self._append(source if source is not None
                         else self._make(axis, (qubit,), angle))
            return
        held = self._pending.get(qubit)
        if held is not None:
            if held[0] == axis:
                held[1] = held[1] + angle
                held[2] = None
                return
            self._flush(qubit)
        self._pending[qubit] = [axis, angle, source]

    def gate(self, gate: Gate) -> None:
        """A gate that is not a rotation: it ends its qubits' runs."""
        pending = self._pending
        if pending:
            for qubit in gate.qubits:
                if qubit in pending:
                    self._flush(qubit)
        self._append(gate)

    def finish(self) -> None:
        """Flush every slot still open."""
        for qubit in list(self._pending):
            self._flush(qubit)

    def _flush(self, qubit: int) -> None:
        axis, angle, source = self._pending.pop(qubit)
        angle = math.remainder(angle, _TWO_PI)
        if abs(angle) > self._tolerance:
            if source is None or angle != source.params[0]:
                source = self._make(axis, (qubit,), angle)
            self._append(source)

    # -- the CX-level sink, and the source gates ----------------------
    def one_qubit(self, name: str, qubit: int, *params: float) -> None:
        """A CX-level single-qubit gate (fixed, ``p`` or ``rz``)."""
        fixed = _FIXED_ROTATIONS.get(name)
        if fixed is None:
            self.rotation("rz", qubit, params[0])
            return
        for axis, angle in fixed:
            self.rotation(axis, qubit, angle)

    def cx(self, control: int, target: int) -> None:
        """The Molmer-Sorensen CX construction (paper Section IV-B)."""
        self.rotation("ry", control, _PI / 2)
        self.gate(self._make("xx", (control, target), _PI / 4))
        self.rotation("rx", control, _PI / 2)
        self.rotation("rx", target, _PI / 2)
        self.rotation("ry", control, -_PI / 2)

    def lower(self, gate: Gate) -> None:
        """Append *gate* rewritten into the native set."""
        name = gate.name
        if name in _ROTATIONS:
            self.rotation(name, gate.qubits[0], gate.params[0], gate)
        elif name in _FIXED_ROTATIONS:
            self.one_qubit(name, gate.qubits[0])
        elif name == "cx":
            self.cx(*gate.qubits)
        elif name in ("xx", "measure", "barrier"):
            self.gate(gate)
        elif name == "p":
            self.rotation("rz", gate.qubits[0], gate.params[0])
        elif name == "u3":
            (qubit,) = gate.qubits
            theta, phi, lam = gate.params
            self.rotation("rz", qubit, lam)
            self.rotation("ry", qubit, theta)
            self.rotation("rz", qubit, phi)
        else:
            _rewrite_to_cx(gate, self)


def decompose_to_native(circuit: Circuit, *,
                        merge_rotations: bool = False) -> Circuit:
    """Rewrite *circuit* into the TILT native gate set {rx, ry, rz, xx}.

    With *merge_rotations* the result is what
    :func:`merge_adjacent_rotations` makes of it, fused in the same pass.
    """
    out = Circuit(circuit.num_qubits, f"{circuit.name}_native")
    writer = _NativeWriter(out, merge=merge_rotations)
    for gate in circuit:
        writer.lower(gate)
    writer.finish()
    return out


def merge_adjacent_rotations(circuit: Circuit, *,
                             angle_tolerance: float = 1e-12) -> Circuit:
    """Peephole optimisation: fuse back-to-back rotations about the same axis.

    Consecutive ``rx``/``ry``/``rz`` gates on the same qubit with no
    intervening gate on that qubit are summed; rotations whose total angle is
    a multiple of 2*pi are dropped.  This keeps native circuits from carrying
    obviously redundant pulses into the fidelity model.
    """
    out = Circuit(circuit.num_qubits, circuit.name)
    writer = _NativeWriter(out, merge=True, tolerance=angle_tolerance)
    for gate in circuit:
        if gate.name in _ROTATIONS:
            writer.rotation(gate.name, gate.qubits[0], gate.params[0], gate)
        else:
            writer.gate(gate)
    writer.finish()
    return out
