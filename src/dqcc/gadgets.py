"""LOCC gadgets and the expansion of a mapped program into a physical-wire
circuit containing no cross-QPU two-qubit gates.

The mapper decides QPUs; the expansion picks data slots, by one
deterministic rule. Each QPU's qubits start on its lowest data slots, in
qubit order. A single teleport takes the lowest free data slot on its
destination QPU, and an exchange swaps the two qubits' wires.

The gadgets are templates over wires and classical bits:
- `expand_remote_cnot`: a cx between QPUs, over one prepared EPR pair;
- `expand_teleport`: a qubit moved into a free data slot on the other QPU,
  over one prepared EPR pair;
- `expand_exchange`: two data qubits swapped between full QPUs, two EPR
  pairs, built from the teleport's Bell step and the teleport itself.
The one cx between QPUs left in the output is the EPR preparation between
reservoir slots (`epr_prepare`): it models the one interconnect, which every
hardware spec has, and is charged to the EPR ledger.
"""
from __future__ import annotations

import heapq
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


def _send(src: int, epr: tuple[int, int], bits: tuple[int, int]) -> list[Gate]:
    """A teleport's Bell step: six gates move src's state onto slot2, then two
    reset src and slot1 to |0> from their outcomes."""
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
        Gate(K.CC_X, (slot1,), bits=(m,)),
        Gate(K.CC_X, (src,), bits=(n,)),
    ]


def _stage(src: int, dst: int) -> list[Gate]:
    """Move src's state into the |0> wire dst, leaving src in |0>."""
    return [Gate(GateKind.CX, (src, dst)), Gate(GateKind.CX, (dst, src))]


def expand_teleport(src: int, dst_slot: int, epr: tuple[int, int],
                    bits: tuple[int, int]) -> list[Gate]:
    """Teleport src's state onto dst_slot via a prepared EPR pair.

    slot1 shares src's QPU; slot2 and dst_slot sit on the receiving QPU. The
    Bell step moves the state onto slot2, two local cx stage it into the
    (fresh, |0>) destination slot, and src and slot1 are reset last.
    """
    send = _send(src, epr, bits)
    return send[:6] + _stage(epr[1], dst_slot) + send[6:]


def expand_exchange(wq: int, wr: int, slot_q: int, slots_r: tuple[int, int],
                    bits: tuple[int, int, int, int]) -> list[Gate]:
    """Swap the states of data wires wq and wr, which sit on different QPUs
    with no free data slot, with two teleports staged through the reservoir.

    slot_q is a reservoir slot on wq's QPU, slots_r two on wr's QPU; all
    start in |0> and end there. Unlike the other templates this one includes
    its EPR preparations, because slot_q is in both pairs and is prepared
    again only after the first pair is measured out. q is sent onto
    slots_r[0]; that frees wq for r's teleport over (slots_r[1], slot_q);
    finally q's parked state is staged into r's freed wire.
    """
    park, relay = slots_r
    return (epr_prepare(slot_q, park) + _send(wq, (slot_q, park), bits[:2])
            + epr_prepare(relay, slot_q) + expand_teleport(wr, wq, (relay, slot_q), bits[2:])
            + _stage(park, wr))


@dataclass
class ExpandedProgram:
    circuit: Circuit
    in_wires: dict[int, int]
    out_wires: dict[int, int]
    epr_events: int


def expand_program(mp: MappedProgram) -> ExpandedProgram:
    """Lower a mapped program onto its hardware's physical wires, expanding
    every remote cx, teleport and exchange into its LOCC gadget. The halves
    of an exchange are consecutive migrations whose `kind` is not "single".

    A gadget uses the lowest reservoir slots of its QPUs: it measures them
    out and resets them, so they are free again for the next one. `emit`
    gives each gadget two classical bits per EPR pair, after the program's
    own bits, and charges its pairs to the EPR ledger."""
    circuit, hw = mp.circuit, mp.hw
    out = Circuit(hw.total_wires, circuit.num_bits)
    epr_events = 0

    def emit(pairs: int, gadget) -> None:
        nonlocal epr_events
        bits = tuple(range(out.num_bits, out.num_bits + 2 * pairs))
        out.num_bits += 2 * pairs
        epr_events += pairs
        for g in gadget(bits):
            out.append(g)

    def reservoir(wire: int) -> int:
        return hw.epr_wire(hw.qpu_of_wire(wire), 0)

    # each QPU's free data wires, ascending: a heap whose top is the lowest
    free = [list(range(hw.wire_base(p), hw.wire_base(p) + qpu.data_capacity))
            for p, qpu in enumerate(hw.qpus)]
    in_wires = {q: heapq.heappop(free[p]) for q, p in enumerate(mp.initial)}
    wires = dict(in_wires)  # logical qubit -> its current data wire
    remote = {i for w in mp.windows for i in w.remote_gates}

    for w in mp.windows:
        migs = iter(w.migrations)
        for mig in migs:
            wq = wires[mig.qubit]
            if mig.kind == "single":
                wd = heapq.heappop(free[mig.dst])
                heapq.heappush(free[mig.src], wq)
                e = reservoir(wq), reservoir(wd)
                emit(1, lambda bits: epr_prepare(*e) + expand_teleport(wq, wd, e, bits))
            else:
                partner = next(migs)
                wd = wires[partner.qubit]
                if hw.qpus[mig.dst].epr_slots < 2:
                    raise GadgetError(f"QPU {hw.qpus[mig.dst].id} needs 2 EPR slots "
                                      f"to host a pairwise exchange")
                slots = hw.epr_wire(mig.dst, 0), hw.epr_wire(mig.dst, 1)
                emit(2, lambda bits: expand_exchange(wq, wd, reservoir(wq), slots, bits))
                wires[partner.qubit] = wq
            wires[mig.qubit] = wd
        for i in w.gate_indices:
            gate = circuit.gates[i]
            if i in remote:
                c, t = (wires[q] for q in gate.qubits)
                e = reservoir(c), reservoir(t)
                emit(1, lambda bits: epr_prepare(*e) + expand_remote_cnot(c, t, e, bits))
            else:
                out.append(Gate(gate.kind, tuple(wires[q] for q in gate.qubits),
                                gate.params, gate.bits))

    return ExpandedProgram(out, in_wires, wires, epr_events)


def cross_qpu_violations(expanded: Circuit, hw: HardwareSpec) -> list[int]:
    """Indices of two-qubit gates spanning QPUs, excluding EPR preparation
    (a cx whose operands are both reservoir slots)."""
    bad = []
    for i, g in enumerate(expanded.gates):
        if g.kind == GateKind.CX and len(g.qubits) == 2:
            a, b = g.qubits
            if (hw.qpu_of_wire(a) != hw.qpu_of_wire(b)
                    and not (hw.is_epr_wire(a) and hw.is_epr_wire(b))):
                bad.append(i)
    return bad
