import dataclasses
import math

import numpy as np
import pytest

from dqcc import (Circuit, Gate, GateKind, decompose_to_basis,
                  default_hardware, equivalence_report, global_assign,
                  local_optimize, parse_qasm, schedule_asap, simulate)
from dqcc.bench import compile_circuit
from dqcc.gadgets import (GadgetError, cross_qpu_violations, epr_prepare, expand_exchange,
                          expand_program, expand_remote_cnot, expand_teleport)
from dqcc.hardware import HardwareSpec, QPU
from dqcc.mapper import MappedProgram, Migration, WindowPlan

from conftest import CORPUS_NAMES, corpus_text


def remote_cnot_circuit():
    c = Circuit(4, 2)
    for g in epr_prepare(2, 3):
        c.append(g)
    for g in expand_remote_cnot(0, 1, (2, 3), (0, 1)):
        c.append(g)
    return c


def teleport_circuit():
    c = Circuit(4, 2)
    for g in epr_prepare(2, 3):
        c.append(g)
    for g in expand_teleport(0, 1, (2, 3), (0, 1)):
        c.append(g)
    return c


# -- epr_prepare ---------------------------------------------------------------

def test_epr_prepare_amplitudes():
    c = Circuit(2)
    for g in epr_prepare(0, 1):
        c.append(g)
    (branch,) = simulate(c)
    r2 = 1 / math.sqrt(2)
    assert np.allclose(branch.state[:, 0], [r2, 0, 0, r2])


def test_epr_state_symmetric_under_slot_swap():
    c1, c2 = Circuit(2), Circuit(2)
    for g in epr_prepare(0, 1):
        c1.append(g)
    for g in epr_prepare(1, 0):
        c2.append(g)
    (b1,), (b2,) = simulate(c1), simulate(c2)
    assert np.allclose(b1.state, b2.state)


def test_epr_measurement_outcomes_correlate():
    c = Circuit(2, 2)
    for g in epr_prepare(0, 1):
        c.append(g)
    c.measure(0, 0)
    c.measure(1, 1)
    branches = simulate(c)
    assert len(branches) == 2
    for b in branches:
        assert b.bits[0] == b.bits[1]
        assert b.probability[0] == pytest.approx(0.5)


# -- remote cnot ---------------------------------------------------------------

def test_remote_cnot_flips_target_in_every_branch():
    branches = simulate(remote_cnot_circuit(), initial=0b1000)
    assert len(branches) == 4
    for b in branches:
        nz = np.nonzero(np.abs(b.state[:, 0]) > 1e-9)[0]
        assert list(nz) == [0b1100]  # ctrl=1, tgt=1, slots reset


def test_remote_cnot_identity_on_zero_control():
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = 0.6
    psi[0b00] = 0.8
    ideal = Circuit(2)  # identity when control is |0>
    # embed: data on wires 0,1; the equivalence driver checks every branch
    assert equivalence_report(Circuit(2).cx(0, 1), remote_cnot_circuit(),
                              candidate_in_wires=[0, 1], candidate_out_wires=[0, 1]).equivalent
    branches = simulate(remote_cnot_circuit(), initial=0b0100)
    for b in branches:
        nz = np.nonzero(np.abs(b.state[:, 0]) > 1e-9)[0]
        assert list(nz) == [0b0100]


def test_remote_cnot_creates_bell_pair_from_plus_control():
    init = np.zeros(16, dtype=complex)
    init[0b0000] = 1 / math.sqrt(2)
    init[0b1000] = 1 / math.sqrt(2)
    branches = simulate(remote_cnot_circuit(), initial=init)
    r2 = 1 / math.sqrt(2)
    for b in branches:
        vec = b.state[:, 0] / math.sqrt(b.probability[0])
        want = np.zeros(16, dtype=complex)
        want[0b0000], want[0b1100] = r2, r2
        fid = abs(np.vdot(want, vec)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-9)


def test_remote_cnot_random_states_criterion():
    rng = np.random.default_rng(2024)
    ideal = Circuit(2).cx(0, 1)
    gadget = remote_cnot_circuit()
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        out_ref = simulate(ideal, initial=psi)[0].state[:, 0]
        init = np.zeros(16, dtype=complex)
        init.reshape(4, 4)[:, 0] = psi
        for b in simulate(gadget, initial=init):
            vec = b.state[:, 0]
            # slots must be |00>: support within the data block
            block = vec.reshape(4, 4)
            assert np.linalg.norm(block[:, 1:]) < 1e-9
            got = block[:, 0] / math.sqrt(b.probability[0])
            assert abs(np.vdot(out_ref, got)) ** 2 == pytest.approx(1.0, abs=1e-9)


# -- teleport -------------------------------------------------------------------

@pytest.mark.parametrize("state", [
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1 / math.sqrt(2), 1j / math.sqrt(2)]),
])
def test_teleport_preserves_state_all_branches(state):
    init = np.zeros(16, dtype=complex)
    init.reshape(2, 8)[:, 0] = state
    branches = simulate(teleport_circuit(), initial=init)
    assert len(branches) == 4
    for b in branches:
        vec = b.state[:, 0] / math.sqrt(b.probability[0])
        tensor = vec.reshape(2, 2, 2, 2)
        got = tensor[0, :, 0, 0]  # src, e1, e2 reset to |0>
        assert abs(np.vdot(state, got)) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_teleport_into_occupied_slot_is_callers_error():
    # destination must be |0>; with dst=|1> the staging copy corrupts it
    init = np.zeros(16, dtype=complex)
    init.reshape(2, 8)[:, 0b100] = np.array([1, 0])  # dst wire 1 set to 1
    branches = simulate(teleport_circuit(), initial=init)
    tensor = branches[0].state[:, 0].reshape(2, 2, 2, 2)
    assert abs(tensor[0, 0, 0, 0]) ** 2 != pytest.approx(1.0)


# -- broken gadgets are refuted ----------------------------------------------------

def _with_gates(circuit, edit):
    out = Circuit(circuit.num_qubits, circuit.num_bits)
    for g in edit(circuit.gates):
        out.append(g)
    return out


def test_remote_cnot_with_cc_z_turned_into_cc_x_is_refuted():
    gadget = _with_gates(remote_cnot_circuit(), lambda gates: [
        Gate(GateKind.CC_X, g.qubits, g.params, g.bits) if g.kind == GateKind.CC_Z else g
        for g in gates])
    rep = equivalence_report(Circuit(2).cx(0, 1), gadget,
                             candidate_in_wires=[0, 1], candidate_out_wires=[0, 1])
    assert not rep.equivalent
    assert rep.failing_bits is not None


def test_teleport_with_a_dropped_correction_is_refuted():
    def report(circuit):
        return equivalence_report(Circuit(1), circuit,
                                  candidate_in_wires=[0], candidate_out_wires=[1])

    assert report(teleport_circuit()).equivalent
    # drop the X correction on the receiving slot
    broken = _with_gates(teleport_circuit(), lambda gates: [
        g for g in gates if not (g.kind == GateKind.CC_X and g.qubits == (3,))])
    assert len(broken.gates) == len(teleport_circuit().gates) - 1
    rep = report(broken)
    assert not rep.equivalent
    assert rep.failing_bits is not None


def exchange_circuit():
    # q on wire 0 and r on wire 1 trade places; slot 2 sits with q, 3 and 4 with r
    c = Circuit(5, 4)
    for g in expand_exchange(0, 1, 2, (3, 4), (0, 1, 2, 3)):
        c.append(g)
    return c


def test_exchange_with_any_correction_dropped_or_flipped_is_refuted():
    def report(circuit):
        return equivalence_report(Circuit(2), circuit, candidate_in_wires=[0, 1],
                                  candidate_out_wires=[1, 0])

    assert report(exchange_circuit()).equivalent
    swap = {GateKind.CC_X: GateKind.CC_Z, GateKind.CC_Z: GateKind.CC_X}
    gates = exchange_circuit().gates
    corrections = [i for i, g in enumerate(gates) if g.kind in swap]
    assert len(corrections) == 8  # per teleport: two onto the slot, two resets
    for i in corrections:
        g = gates[i]
        flipped = Gate(swap[g.kind], g.qubits, g.params, g.bits)
        for edit in ([], [flipped]):
            broken = _with_gates(exchange_circuit(),
                                 lambda gs: gs[:i] + edit + gs[i + 1:])
            rep = report(broken)
            assert not rep.equivalent, (i, edit)
            assert rep.failing_bits is not None


# -- expand_program ---------------------------------------------------------------

def _mapped(name, dt=200.0, hw=None):
    circuit = decompose_to_basis(parse_qasm(corpus_text(name)))
    hw = hw or default_hardware(circuit.num_qubits)
    sched = schedule_asap(circuit, hw.durations)
    init = global_assign(circuit, hw)
    return circuit, hw, local_optimize(sched, init, hw, dt)


def test_expand_single_remote_cx_contains_three_cx():
    c = Circuit(2).cx(0, 1)
    hw = default_hardware(2)  # one data qubit per QPU: the cx must go remote
    sched = schedule_asap(c, hw.durations)
    init = global_assign(c, hw)
    mp = local_optimize(sched, init, hw, 200.0)
    assert mp.remote_count == 1
    exp = expand_program(mp)
    assert sum(g.kind == GateKind.CX for g in exp.circuit.gates) == 3
    assert cross_qpu_violations(exp.circuit, hw) == []


def test_expand_no_remote_ops_is_identity_transformation():
    c = Circuit(4).cx(0, 1).h(2).cx(2, 3)
    hw = default_hardware(4)
    sched = schedule_asap(c, hw.durations)
    init = global_assign(c, hw)
    mp = local_optimize(sched, init, hw, 200.0)
    assert mp.inter_qpu_total == 0
    exp = expand_program(mp)
    assert [g.kind for g in exp.circuit.gates] == [g.kind for g in c.gates]
    assert [g.params for g in exp.circuit.gates] == [g.params for g in c.gates]
    assert exp.epr_events == 0


def test_expand_epr_conservation_and_locality_on_corpus():
    for name in ("tof_5", "gf2_4_mult", "mod5_4"):
        circuit, hw, mp = _mapped(name)
        exp = expand_program(mp)
        assert exp.epr_events == mp.inter_qpu_total
        assert cross_qpu_violations(exp.circuit, hw) == []


def test_expanded_toffoli_class_equivalent_to_input():
    circuit, hw, mp = _mapped("tof_3")
    exp = expand_program(mp)
    rep = equivalence_report(
        circuit, exp.circuit, tol=1e-9,
        candidate_in_wires=[exp.in_wires[q] for q in range(circuit.num_qubits)],
        candidate_out_wires=[exp.out_wires[q] for q in range(circuit.num_qubits)])
    assert rep.equivalent, rep.detail


def test_classical_bit_hygiene():
    circuit, hw, mp = _mapped("gf2_4_mult")
    exp = expand_program(mp)
    writes: dict[int, int] = {}
    reads: dict[int, int] = {}
    for g in exp.circuit.gates:
        if g.kind == GateKind.MEASURE:
            writes[g.bits[0]] = writes.get(g.bits[0], 0) + 1
        elif g.kind in (GateKind.CC_X, GateKind.CC_Z):
            reads[g.bits[0]] = reads.get(g.bits[0], 0) + 1
    for bit in range(circuit.num_bits, exp.circuit.num_bits):
        assert writes.get(bit, 0) == 1
        # protocol correction plus the reservoir reset
        assert reads.get(bit, 0) <= 2


def test_exchange_migrations_expand_and_verify():
    # temporally split interaction forces a pairwise exchange (full QPUs)
    c = Circuit(4)
    for _ in range(10):
        c.cx(1, 2)
    for _ in range(300):
        c.rz(1, 0.5)
    for _ in range(10):
        c.cx(1, 3)
    hw = HardwareSpec([QPU("qpu0", 2, 2), QPU("qpu1", 2, 2)], 2)
    dec = decompose_to_basis(c)
    sched = schedule_asap(dec, hw.durations)
    init = global_assign(dec, hw)
    mp = local_optimize(sched, init, hw, 200.0)
    assert mp.teleport_count == 2 and mp.remote_count == 0
    exp = expand_program(mp)
    assert cross_qpu_violations(exp.circuit, hw) == []
    rep = equivalence_report(
        dec, exp.circuit, tol=1e-9,
        candidate_in_wires=[exp.in_wires[q] for q in range(4)],
        candidate_out_wires=[exp.out_wires[q] for q in range(4)])
    assert rep.equivalent, rep.detail
    # an exchange parks a qubit on a second reservoir slot of its destination
    one_slot = HardwareSpec([QPU("qpu0", 2, 1), QPU("qpu1", 2, 1)], 2)
    with pytest.raises(GadgetError, match="needs 2 EPR slots"):
        expand_program(dataclasses.replace(mp, hw=one_slot))


def one_epr_slot_hardware(n):
    """Full QPUs with one EPR slot each: room for no pairwise exchange."""
    return HardwareSpec([QPU("qpu0", math.ceil(n / 2), 1), QPU("qpu1", n // 2, 1)], 1)


@pytest.mark.parametrize("dt", [None, 16.0, 8.0])
def test_one_epr_slot_hardware_compiles_without_exchanges(dt):
    circuit = parse_qasm(corpus_text("gf2_4_mult"))
    result = compile_circuit(circuit, one_epr_slot_hardware(circuit.num_qubits), dt, 0)
    assert cross_qpu_violations(result.expanded.circuit, result.hw) == []


def test_one_epr_slot_plan_verifies():
    circuit = parse_qasm(corpus_text("barenco_tof_4"))
    result = compile_circuit(circuit, one_epr_slot_hardware(circuit.num_qubits), 16.0, 0)
    exp = result.expanded
    rep = equivalence_report(
        result.decomposed, exp.circuit, tol=1e-9,
        candidate_in_wires=[exp.in_wires[q] for q in range(circuit.num_qubits)],
        candidate_out_wires=[exp.out_wires[q] for q in range(circuit.num_qubits)])
    assert rep.equivalent, rep.detail


def test_opposite_single_moves_expand_to_two_teleports():
    # q0 leaves QPU 0 for a spare slot on QPU 1, then q2 moves the other
    # way: opposite moves, but not the halves of an exchange
    c = Circuit(3).h(0).h(2).cx(2, 1)  # local once q2 has joined q1
    hw = HardwareSpec([QPU("qpu0", 2, 1), QPU("qpu1", 3, 1)], 1)
    mp = MappedProgram(c, hw, 200.0, [
        WindowPlan([Migration(0, 0, 1, "single"), Migration(2, 1, 0, "single")],
                   [0, 1, 2], [])], [0, 0, 1], [1, 0, 0], 0)
    exp = expand_program(mp)
    # q0 and q1 fill QPU 0's data wires 0 and 1, q2 takes QPU 1's first
    # (wire 3); q0 takes the lower of QPU 1's free wires 4 and 5, then q2
    # the wire 0 that q0 left
    assert exp.in_wires == {0: 0, 1: 1, 2: 3}
    assert exp.out_wires == {0: 4, 1: 1, 2: 0}
    assert exp.epr_events == 2
    assert cross_qpu_violations(exp.circuit, hw) == []
    rep = equivalence_report(c, exp.circuit, tol=1e-9, candidate_in_wires=[0, 1, 3],
                             candidate_out_wires=[4, 1, 0])
    assert rep.equivalent, rep.detail


@pytest.mark.parametrize("dt", [16.0, 8.0])
def test_slots_follow_the_lowest_free_slot_rule(dt):
    for name in CORPUS_NAMES:
        circuit = parse_qasm(corpus_text(name))
        result = compile_circuit(circuit, None, dt, 0)
        mp, exp, hw = result.mapped, result.expanded, result.hw
        for p in range(len(hw.qpus)):
            members = [q for q, qpu in enumerate(mp.initial) if qpu == p]
            assert [exp.in_wires[q] for q in members] == [
                hw.data_wire(p, slot) for slot in range(len(members))]
        outs = [exp.out_wires[q] for q in range(circuit.num_qubits)]
        assert len(set(outs)) == len(outs), name
        assert [hw.qpu_of_wire(w) for w in outs] == mp.final, name
        assert not any(hw.is_epr_wire(w) for w in outs), name


def test_teleporting_corpus_plans_verify():
    # Short windows make the small corpus circuits teleport (at the default
    # dt none of them does), so the oracle referees real migration plans,
    # pairwise exchanges included.
    failures, teleporting, exchanging = [], [], []
    for name in ("tof_3", "tof_4", "tof_5", "barenco_tof_3", "barenco_tof_4",
                 "barenco_tof_5", "mod5_4", "qft_4", "grover_5"):
        for dt in (16.0, 8.0):
            circuit = parse_qasm(corpus_text(name))
            result = compile_circuit(circuit, None, dt, 0)
            migrations = [m for w in result.mapped.windows for m in w.migrations]
            if migrations:
                teleporting.append((name, dt))
            if any(m.kind != "single" for m in migrations):
                exchanging.append((name, dt))
            exp = result.expanded
            rep = equivalence_report(
                result.decomposed, exp.circuit, tol=1e-9,
                candidate_in_wires=[exp.in_wires[q] for q in range(circuit.num_qubits)],
                candidate_out_wires=[exp.out_wires[q] for q in range(circuit.num_qubits)])
            if not rep.equivalent:
                failures.append((name, dt, rep.detail))
    assert failures == []
    assert {(name, dt) for name in ("tof_5", "barenco_tof_5", "grover_5")
            for dt in (16.0, 8.0)} <= set(teleporting)
    assert exchanging


def test_throttle_flags_overconsumption():
    circuit, hw, mp = _mapped("gf2_4_mult")
    assert mp.throttle_violations()  # 45 EPR uses cannot fit 2 per window
