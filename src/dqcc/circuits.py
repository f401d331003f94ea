"""Circuit IR: gates, native-basis lowering, ASAP scheduling, and gate metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence


class GateKind(str, Enum):
    RX = "rx"
    RZ = "rz"
    H = "h"
    CX = "cx"
    X = "x"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    CCX = "ccx"
    MEASURE = "measure"
    BARRIER = "barrier"
    CC_X = "cc_x"
    CC_Z = "cc_z"


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubit operand in {self.kind.value}: {self.qubits}")
        for p in self.params:
            if not math.isfinite(p):
                raise CircuitError(f"non-finite parameter in {self.kind.value}: {p}")


@dataclass
class Circuit:
    num_qubits: int
    num_bits: int = 0
    gates: list[Gate] = field(default_factory=list)

    def append(self, gate: Gate) -> "Circuit":
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(f"qubit {q} out of range for {self.num_qubits}-qubit circuit")
        for b in gate.bits:
            if not 0 <= b < self.num_bits:
                raise CircuitError(f"bit {b} out of range for {self.num_bits}-bit circuit")
        self.gates.append(gate)
        return self

    def add(self, kind: GateKind, qubits: Iterable[int], params: Iterable[float] = (),
            bits: Iterable[int] = ()) -> "Circuit":
        return self.append(Gate(kind, tuple(qubits), tuple(params), tuple(bits)))

    # Fluent builders used heavily by tests and the corpus generator.
    def h(self, q): return self.add(GateKind.H, (q,))
    def x(self, q): return self.add(GateKind.X, (q,))
    def z(self, q): return self.add(GateKind.Z, (q,))
    def s(self, q): return self.add(GateKind.S, (q,))
    def sdg(self, q): return self.add(GateKind.SDG, (q,))
    def t(self, q): return self.add(GateKind.T, (q,))
    def tdg(self, q): return self.add(GateKind.TDG, (q,))
    def rx(self, q, theta): return self.add(GateKind.RX, (q,), (theta,))
    def rz(self, q, theta): return self.add(GateKind.RZ, (q,), (theta,))
    def cx(self, c, t): return self.add(GateKind.CX, (c, t))
    def ccx(self, a, b, t): return self.add(GateKind.CCX, (a, b, t))
    def measure(self, q, b): return self.add(GateKind.MEASURE, (q,), bits=(b,))
    def barrier(self, *qubits): return self.add(GateKind.BARRIER, qubits)
    def cc_x(self, b, q): return self.add(GateKind.CC_X, (q,), bits=(b,))
    def cc_z(self, b, q): return self.add(GateKind.CC_Z, (q,), bits=(b,))

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, self.num_bits, list(self.gates))


@dataclass(frozen=True)
class DurationModel:
    """Gate execution times in abstract time units."""
    rx: float = 1.0
    rz: float = 1.0
    h: float = 1.0
    cx: float = 2.0
    measure: float = 5.0
    epr_generation_period: float = 200.0

    def __post_init__(self):
        for name in ("rx", "rz", "h", "cx", "measure", "epr_generation_period"):
            if not 0 < getattr(self, name) < math.inf:  # also refuses nan
                raise CircuitError(f"duration {name} must be positive and finite")

    def duration(self, kind: GateKind) -> float:
        if kind in (GateKind.RX, GateKind.X, GateKind.CC_X):
            return self.rx
        if kind in (GateKind.RZ, GateKind.Z, GateKind.S, GateKind.SDG,
                    GateKind.T, GateKind.TDG, GateKind.CC_Z):
            return self.rz
        if kind == GateKind.H:
            return self.h
        if kind == GateKind.CX:
            return self.cx
        if kind == GateKind.CCX:
            # Scheduled as its 6-cx decomposition would be; only used if a
            # caller schedules before lowering.
            return 6 * self.cx + 9 * self.rz + 2 * self.h
        if kind == GateKind.MEASURE:
            return self.measure
        if kind == GateKind.BARRIER:
            return 0.0
        raise CircuitError(f"no duration defined for {kind.value}")


@dataclass
class ScheduledCircuit:
    circuit: Circuit
    start_times: list[float]
    model: DurationModel

    @property
    def makespan(self) -> float:
        if not self.circuit.gates:
            return 0.0
        return max(t + self.model.duration(g.kind)
                   for g, t in zip(self.circuit.gates, self.start_times))

    @property
    def max_start(self) -> float:
        return max(self.start_times, default=0.0)


def schedule_asap(circuit: Circuit, model: DurationModel | None = None) -> ScheduledCircuit:
    """Assign each gate the earliest start compatible with its operands.

    A gate starts at the max finish time of earlier gates sharing any of its
    qubits or classical bits. Barriers synchronize their listed qubits (all
    qubits when the list is empty) and take zero time.
    """
    model = model or DurationModel()
    qready = [0.0] * circuit.num_qubits
    bready = [0.0] * circuit.num_bits
    starts: list[float] = []
    for gate in circuit.gates:
        qubits = gate.qubits
        if gate.kind == GateKind.BARRIER and not qubits:
            qubits = tuple(range(circuit.num_qubits))
        t = 0.0
        for q in qubits:
            t = max(t, qready[q])
        for b in gate.bits:
            t = max(t, bready[b])
        starts.append(t)
        finish = t + model.duration(gate.kind)
        for q in qubits:
            qready[q] = finish
        for b in gate.bits:
            bready[b] = finish
    return ScheduledCircuit(circuit, starts, model)


def toffoli_sequence(a: int, b: int, t: int) -> list[Gate]:
    """Fixed 6-cx Toffoli decomposition (exact, no stray global phase).

    The cx pair multiset is {2x(a,t), 2x(b,t), 2x(a,b)}; gate counts derived
    from it are deterministic across runs.
    """
    K = GateKind
    return [
        Gate(K.H, (t,)),
        Gate(K.CX, (b, t)),
        Gate(K.TDG, (t,)),
        Gate(K.CX, (a, t)),
        Gate(K.T, (t,)),
        Gate(K.CX, (b, t)),
        Gate(K.TDG, (t,)),
        Gate(K.CX, (a, t)),
        Gate(K.T, (b,)),
        Gate(K.T, (t,)),
        Gate(K.H, (t,)),
        Gate(K.CX, (a, b)),
        Gate(K.T, (a,)),
        Gate(K.TDG, (b,)),
        Gate(K.CX, (a, b)),
    ]


_SINGLE_QUBIT_LOWERING = {
    GateKind.X: (GateKind.RX, math.pi),
    GateKind.Z: (GateKind.RZ, math.pi),
    GateKind.S: (GateKind.RZ, math.pi / 2),
    GateKind.SDG: (GateKind.RZ, -math.pi / 2),
    GateKind.T: (GateKind.RZ, math.pi / 4),
    GateKind.TDG: (GateKind.RZ, -math.pi / 4),
}

_PASSTHROUGH = frozenset({GateKind.RX, GateKind.RZ, GateKind.H, GateKind.CX,
                          GateKind.MEASURE, GateKind.BARRIER,
                          GateKind.CC_X, GateKind.CC_Z})


def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Lower to the native set {rx, rz, h, cx} (plus measure/barrier and the
    classically-controlled corrections, which have no unitary content to
    rewrite). Equivalent to the input up to global phase."""
    out = Circuit(circuit.num_qubits, circuit.num_bits)
    for gate in circuit.gates:
        parts = toffoli_sequence(*gate.qubits) if gate.kind == GateKind.CCX else (gate,)
        for g in parts:
            if g.kind in _PASSTHROUGH:
                out.append(g)
            elif g.kind in _SINGLE_QUBIT_LOWERING:
                kind, angle = _SINGLE_QUBIT_LOWERING[g.kind]
                out.add(kind, g.qubits, (angle,))
            else:
                raise CircuitError(f"cannot lower gate kind {g.kind.value}")
    return out


def count_two_qubit(circuit: Circuit) -> int:
    """Total two-qubit operations: the cx gates."""
    return sum(1 for g in circuit.gates if g.kind == GateKind.CX)


def count_inter_qpu(circuit: Circuit, qpu_of: Sequence[int]) -> int:
    """cx gates whose operands are on different QPUs; `qpu_of[q]` is q's QPU."""
    return sum(1 for g in circuit.gates
               if g.kind == GateKind.CX and qpu_of[g.qubits[0]] != qpu_of[g.qubits[1]])
