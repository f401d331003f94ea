"""LOCC gadget construction: EPR-pair preparation, EPR-mediated remote CNOT,
and teleportation, plus expansion of a mapped program into a physical-wire
circuit containing no cross-QPU two-qubit gates. The lone exception is the
EPR-preparation cx between reservoir slots of the two QPUs: it models the
one interconnect, which every hardware spec has, and is charged to the EPR
ledger.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate, GateKind
from .hardware import HardwareSpec
from .mapper import MappedProgram


class GadgetError(ValueError):
    pass


def epr_prepare(slot_a: int, slot_b: int) -> list[Gate]:
    """Create the Phi+ pair (|00> + |11>)/sqrt(2) on two reservoir slots that
    start in |0>."""
    return [Gate(GateKind.H, (slot_a,)), Gate(GateKind.CX, (slot_a, slot_b))]


def expand_remote_cnot(ctrl: int, tgt: int, epr: tuple[int, int],
                       bits: tuple[int, int]) -> list[Gate]:
    """Remote CNOT consuming a prepared EPR pair and two classical bits.

    slot1 rides with the control's QPU, slot2 with the target's. After the
    corrections both slots are measured out and conditionally flipped back to
    |0> so the reservoir can be reused. Only the caller's EPR preparation ever
    crosses QPUs.
    """
    slot1, slot2 = epr
    m, n = bits
    K = GateKind
    return [
        Gate(K.CX, (ctrl, slot1)),
        Gate(K.CX, (slot2, tgt)),
        Gate(K.MEASURE, (slot1,), bits=(m,)),
        Gate(K.CC_X, (tgt,), bits=(m,)),
        Gate(K.H, (slot2,)),
        Gate(K.MEASURE, (slot2,), bits=(n,)),
        Gate(K.CC_Z, (ctrl,), bits=(n,)),
        # reservoir reset; the slots were measured into |m> and |n>
        Gate(K.CC_X, (slot1,), bits=(m,)),
        Gate(K.CC_X, (slot2,), bits=(n,)),
    ]


def expand_teleport(src: int, dst_slot: int, epr: tuple[int, int],
                    bits: tuple[int, int]) -> list[Gate]:
    """Teleport src's state onto dst_slot via a prepared EPR pair.

    slot1 shares src's QPU; slot2 and dst_slot sit on the receiving QPU. The
    Bell measurement happens on (src, slot1); corrections land on slot2, and
    two local cx then stage the state into the (fresh, |0>) destination slot,
    returning slot2 to |0>. src and slot1 are reset after measurement.
    """
    slot1, slot2 = epr
    m, n = bits
    K = GateKind
    return [
        Gate(K.CX, (src, slot1)),
        Gate(K.H, (src,)),
        Gate(K.MEASURE, (slot1,), bits=(m,)),
        Gate(K.MEASURE, (src,), bits=(n,)),
        Gate(K.CC_X, (slot2,), bits=(m,)),
        Gate(K.CC_Z, (slot2,), bits=(n,)),
        Gate(K.CX, (slot2, dst_slot)),
        Gate(K.CX, (dst_slot, slot2)),
        Gate(K.CC_X, (slot1,), bits=(m,)),
        Gate(K.CC_X, (src,), bits=(n,)),
    ]


@dataclass
class ExpandedProgram:
    circuit: Circuit
    in_wires: dict[int, int]
    out_wires: dict[int, int]
    epr_events: int


def expand_program(mp: MappedProgram) -> ExpandedProgram:
    """Lower a mapped program onto its hardware's physical wires, expanding
    every remote cx and teleport into its LOCC gadget. Classical bits for
    gadget measurements are allocated after the program's own bits."""
    circuit, hw = mp.circuit, mp.hw
    out = Circuit(hw.total_wires, circuit.num_bits)
    next_bit = circuit.num_bits
    epr_events = 0

    placement = dict(mp.initial.placement)
    in_wires = {q: hw.data_wire(*placement[q]) for q in placement}

    def fresh_bits() -> tuple[int, int]:
        nonlocal next_bit
        out.num_bits += 2
        pair = (next_bit, next_bit + 1)
        next_bit += 2
        return pair

    def epr_slot_pair(qpu_a: int, qpu_b: int) -> tuple[int, int]:
        # Slots are measured out and reset inside every gadget, so the lowest
        # reservoir slot on each side is always free again afterwards.
        return hw.epr_wire(qpu_a, 0), hw.epr_wire(qpu_b, 0)

    remote = {i for w in mp.windows for i in w.remote_gates}
    wires = dict(in_wires)  # logical qubit -> its current data wire

    for w in mp.windows:
        migs = list(w.migrations)
        while migs:
            mig = migs.pop(0)
            if migs and migs[0].src == mig.dst and migs[0].dst == mig.src:
                partner = migs.pop(0)
                _expand_exchange(out, hw, mig, partner, fresh_bits)
                for m in (mig, partner):
                    placement[m.qubit] = m.dst
                    wires[m.qubit] = hw.data_wire(*m.dst)
                epr_events += 2
            else:
                src_qpu, _ = mig.src
                dst_qpu, _ = mig.dst
                src_wire = hw.data_wire(*mig.src)
                dst_wire = hw.data_wire(*mig.dst)
                e1, e2 = epr_slot_pair(src_qpu, dst_qpu)
                for g in epr_prepare(e1, e2):
                    out.append(g)
                for g in expand_teleport(src_wire, dst_wire, (e1, e2), fresh_bits()):
                    out.append(g)
                placement[mig.qubit] = mig.dst
                wires[mig.qubit] = dst_wire
                epr_events += 1
        for i in w.gate_indices:
            gate = circuit.gates[i]
            if i in remote:
                c, t = gate.qubits
                qa, qb = placement[c][0], placement[t][0]
                e1, e2 = epr_slot_pair(qa, qb)
                for g in epr_prepare(e1, e2):
                    out.append(g)
                for g in expand_remote_cnot(wires[c], wires[t], (e1, e2), fresh_bits()):
                    out.append(g)
                epr_events += 1
            else:
                out.append(Gate(gate.kind, tuple(wires[q] for q in gate.qubits),
                                gate.params, gate.bits))

    return ExpandedProgram(out, in_wires, wires, epr_events)


def _expand_exchange(out: Circuit, hw: HardwareSpec, mig_q, mig_r, fresh_bits) -> None:
    """Swap two data qubits across QPUs with two teleports, staging through
    the EPR reservoir since neither side has a free data slot.

    Qubit q is Bell-measured into the far reservoir slot first; that frees its
    data slot for r's teleport; finally both parked states are staged into the
    freed data slots with local cx pairs. Requires two reservoir slots on q's
    destination QPU.
    """
    K = GateKind
    qpu_a, _ = mig_q.src
    qpu_b, _ = mig_r.src
    wq = hw.data_wire(*mig_q.src)
    wr = hw.data_wire(*mig_r.src)
    if hw.qpus[qpu_b].epr_slots < 2:
        raise GadgetError(
            f"QPU {hw.qpus[qpu_b].id} needs 2 EPR slots to host a pairwise exchange")
    ea0 = hw.epr_wire(qpu_a, 0)
    eb0 = hw.epr_wire(qpu_b, 0)
    eb1 = hw.epr_wire(qpu_b, 1)

    # park q on the far reservoir slot eb0
    m1, n1 = fresh_bits()
    for g in epr_prepare(ea0, eb0):
        out.append(g)
    out.append(Gate(K.CX, (wq, ea0)))
    out.append(Gate(K.H, (wq,)))
    out.append(Gate(K.MEASURE, (ea0,), bits=(m1,)))
    out.append(Gate(K.MEASURE, (wq,), bits=(n1,)))
    out.append(Gate(K.CC_X, (eb0,), bits=(m1,)))
    out.append(Gate(K.CC_Z, (eb0,), bits=(n1,)))
    out.append(Gate(K.CC_X, (ea0,), bits=(m1,)))
    out.append(Gate(K.CC_X, (wq,), bits=(n1,)))
    # teleport r into q's freed slot
    m2, n2 = fresh_bits()
    for g in epr_prepare(eb1, ea0):
        out.append(g)
    for g in expand_teleport(wr, wq, (eb1, ea0), (m2, n2)):
        out.append(g)
    # stage q's parked state into r's freed slot
    out.append(Gate(K.CX, (eb0, wr)))
    out.append(Gate(K.CX, (wr, eb0)))


def cross_qpu_violations(expanded: Circuit, hw: HardwareSpec) -> list[int]:
    """Indices of two-qubit gates spanning QPUs, excluding EPR preparation
    (a cx whose operands are both reservoir slots)."""
    bad = []
    for i, g in enumerate(expanded.gates):
        if len(g.qubits) != 2 or g.kind not in (GateKind.CX,):
            continue
        a, b = g.qubits
        qa, qb = hw.qpu_of_wire(a), hw.qpu_of_wire(b)
        if qa == qb:
            continue
        if hw.is_epr_wire(a) and hw.is_epr_wire(b):
            continue
        bad.append(i)
    return bad
