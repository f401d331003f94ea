import concurrent.futures
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqcc import Circuit, simulate, sim
from dqcc.gadgets import epr_prepare, expand_remote_cnot, expand_teleport
from dqcc.sim import (BranchState, PRUNE_TOL, SimulationError, _Runner, _column_blocks,
                      _dense, _embed_columns, _extract_columns, _view, _wire_block,
                      equivalence_report, spanning_inputs, trim_idle_wires)

from conftest import unitary_of


def test_double_hadamard_single_branch_identity():
    branches = simulate(Circuit(1).h(0).h(0))
    assert len(branches) == 1
    assert np.allclose(branches[0].state[:, 0], [1, 0])


def test_epr_then_measure_two_branches():
    c = Circuit(2, 2)
    for g in epr_prepare(0, 1):
        c.append(g)
    c.measure(0, 0)
    c.measure(1, 1)
    branches = simulate(c)
    assert len(branches) == 2
    outcomes = {(b.bits[0], b.bits[1]) for b in branches}
    assert outcomes == {(0, 0), (1, 1)}
    for b in branches:
        assert b.probability[0] == pytest.approx(0.5)


def test_gadget_on_1_0_gives_four_branches_all_1_1():
    c = Circuit(4, 2)
    for g in epr_prepare(2, 3):
        c.append(g)
    for g in expand_remote_cnot(0, 1, (2, 3), (0, 1)):
        c.append(g)
    branches = simulate(c, initial=0b1000)
    assert len(branches) == 4
    for b in branches:
        nz = np.nonzero(np.abs(b.state[:, 0]) > 1e-9)[0]
        assert list(nz) == [0b1100]


def test_zero_probability_branches_pruned():
    c = Circuit(1, 1).measure(0, 0)
    branches = simulate(c)  # |0> input: outcome 1 has zero probability
    assert len(branches) == 1
    assert branches[0].bits[0] == 0


def test_equivalent_cx_vs_gadget():
    gadget = Circuit(4, 2)
    for g in epr_prepare(2, 3):
        gadget.append(g)
    for g in expand_remote_cnot(0, 1, (2, 3), (0, 1)):
        gadget.append(g)
    assert equivalence_report(Circuit(2).cx(0, 1), gadget,
                              candidate_in_wires=[0, 1], candidate_out_wires=[0, 1]).equivalent


def test_equivalent_cx_vs_identity_false():
    assert not equivalence_report(Circuit(2).cx(0, 1), Circuit(2)).equivalent


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 1.0])
def test_tolerance_outside_unit_interval_rejected(tol):
    with pytest.raises(SimulationError, match="tol must lie in"):
        equivalence_report(Circuit(2).cx(0, 1), Circuit(2), tol=tol)


def test_equivalent_detects_phase_errors():
    # identical on basis states, different on superpositions
    cand = Circuit(2).cx(0, 1).rz(0, 0.3)
    assert not equivalence_report(Circuit(2).cx(0, 1), cand).equivalent



@pytest.mark.parametrize("theta", [0.7, -1.3, math.pi / 2, 2.9])
def test_rx_is_h_rz_h(theta):
    # qelib1.inc: rx(theta) = exp(-i theta X / 2) = h rz(theta) h
    rep = equivalence_report(Circuit(1).rx(0, theta), Circuit(1).h(0).rz(0, theta).h(0))
    assert rep.equivalent, rep.detail


def test_rx_quarter_turn_amplitudes():
    (br,) = simulate(Circuit(1).rx(0, math.pi / 2))
    r2 = 1 / math.sqrt(2)
    assert np.allclose(br.state[:, 0], [r2, -1j * r2], rtol=0, atol=1e-15)

def test_norm_preserved_and_probabilities_sum_to_one():
    c = Circuit(3, 2)
    c.h(0).cx(0, 1).rx(2, 1.234)
    c.measure(0, 0)
    c.h(1)
    c.measure(1, 1)
    branches = simulate(c)
    total = sum(b.probability[0] for b in branches)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_unitary_only_single_branch():
    c = Circuit(3).h(0).cx(0, 1).t(2).rx(1, 0.7).rz(2, -0.3)
    assert len(simulate(c)) == 1


@given(st.permutations(list(range(4))), st.integers(0, 15))
@settings(max_examples=30, deadline=None)
def test_simulate_permutation_covariant(perm, basis):
    c = Circuit(4).h(0).cx(0, 1).t(1).cx(2, 3).rx(3, 0.5)
    relabeled = Circuit(4)
    for g in c.gates:
        relabeled.add(g.kind, [perm[q] for q in g.qubits], g.params)
    out = simulate(c, initial=basis)[0].state[:, 0]
    # permute the input basis index and compare permuted outputs
    bits = [(basis >> (3 - w)) & 1 for w in range(4)]
    pbits = [0] * 4
    for w in range(4):
        pbits[perm[w]] = bits[w]
    pbasis = sum(b << (3 - w) for w, b in enumerate(pbits))
    pout = simulate(relabeled, initial=pbasis)[0].state[:, 0]
    t1 = out.reshape((2,) * 4)
    t2 = pout.reshape((2,) * 4)
    assert np.allclose(np.moveaxis(t1, range(4), perm), t2, atol=1e-9)


def test_qubit_cap_enforced():
    with pytest.raises(SimulationError):
        simulate(Circuit(15))


def test_simulator_agrees_with_kron_oracle():
    rng = np.random.default_rng(3)
    c = Circuit(4)
    c.h(0).cx(0, 1).t(1).sdg(2).cx(1, 2).rx(3, 0.9).rz(0, -1.1).ccx(0, 2, 3).x(1).z(3).s(0)
    u = unitary_of(c)
    for basis in rng.integers(0, 16, size=6):
        got = simulate(c, initial=int(basis))[0].state[:, 0]
        assert np.allclose(got, u[:, basis], atol=1e-9)


def test_spanning_inputs_shape_and_products():
    cols = spanning_inputs(2)
    assert cols.shape == (4, 10)
    assert np.allclose(np.linalg.norm(cols, axis=0), 1.0)
    r2 = 1 / math.sqrt(2)
    assert np.allclose(cols[:, 6], [r2 * r2, r2 * r2, r2 * r2, r2 * r2])  # |++>



def test_wire_block_orders_axes_by_the_given_wires():
    # A 3-cycle order: for two wires, a transpose by argsort instead of by
    # rank would still pass.
    rng = np.random.default_rng(5)
    n, wires = 5, [4, 0, 2]
    cols = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    state = _embed_columns(cols, n, wires)
    block = _wire_block(state, n, wires)
    assert block.shape == (2, 2, 2, 4)
    for j in range(8):
        bits = [(j >> (2 - i)) & 1 for i in range(3)]  # bits[i] is on wires[i]
        index = sum(b << (n - 1 - w) for w, b in zip(wires, bits))  # wire 0 is the MSB
        assert np.array_equal(state[index], cols[j])
        assert np.array_equal(block[tuple(bits)], cols[j])
    assert np.count_nonzero(state) == cols.size
    reduced, resid, total = _extract_columns(state, n, wires)
    assert np.array_equal(reduced, cols)
    # The two masses sum the same squares in another order.
    assert np.allclose(resid, 0, rtol=0, atol=1e-14)
    assert np.allclose(total, np.sum(np.abs(cols) ** 2, axis=0), rtol=1e-15)
    state[1 << (n - 1 - 1), 2] = 0.5  # wire 1, outside the block, holds 1
    _, resid, _ = _extract_columns(state, n, wires)
    assert np.allclose(resid, [0, 0, 0.25, 0], rtol=0, atol=1e-14)

def test_trim_idle_wires():
    c = Circuit(5).h(1).cx(1, 3)
    trimmed, remap = trim_idle_wires(c, keep={4})
    assert trimmed.num_qubits == 3
    assert remap == {1: 0, 3: 1, 4: 2}


def test_cc_gates_apply_per_branch_bits():
    c = Circuit(2, 1)
    c.h(0)
    c.measure(0, 0)
    c.cc_x(0, 1)
    branches = simulate(c)
    assert len(branches) == 2
    for b in branches:
        nz = np.nonzero(np.abs(b.state[:, 0]) > 1e-9)[0]
        want = 0b11 if b.bits[0] == 1 else 0b00
        assert list(nz) == [want]


# -- the basis-state slice -------------------------------------------------------

def off_slice_is_zero(branch, n) -> bool:
    """Every amplitude off the branch's fixed slice is exactly 0."""
    rest = branch.state.copy()
    _view(rest, n, branch.fixed)[...] = 0
    return not rest.any()


def test_fixed_wires_follow_the_gate_rules():
    # wires 0, 1 start fixed at 1 and 0; wire 2 holds |+>
    init = np.zeros(8, dtype=complex)
    init[0b100] = init[0b101] = 1 / math.sqrt(2)
    c = Circuit(3)
    steps = [
        (lambda: c.cx(1, 2), {0: 1, 1: 0}),      # control fixed at 0: no-op
        (lambda: c.x(1), {0: 1, 1: 1}),          # x on a fixed wire flips it
        (lambda: c.cx(0, 1), {0: 1, 1: 0}),      # control fixed at 1 drops out
        (lambda: c.t(0), {0: 1, 1: 0}),          # a phase keeps the wire fixed
        (lambda: c.cx(2, 1), {0: 1}),            # unfixed control: target unfixed
        (lambda: c.h(0), {}),                    # h unfixes a wire
    ]
    for add, fixed in steps:
        add()
        (branch,) = simulate(c, initial=init)
        assert branch.fixed == fixed
        assert off_slice_is_zero(branch, 3)
        assert np.allclose(branch.state[:, 0], unitary_of(c) @ init, atol=1e-12)


_UNITARY_GATES = ["h", "rx", "rz", "t", "x", "cx", "ccx"]


@st.composite
def unitary_circuits(draw):
    """A random {h, rx, rz, t, x, cx, ccx} circuit on 5 wires after a fixed
    prefix on the two ancilla wires 3, 4, which start in |0>. The prefix
    applies x to a fixed wire, cx with a fixed control at 0 and at 1, h to a
    fixed wire, and cx from an unfixed control onto a fixed target."""
    c = Circuit(5)
    c.x(3).cx(4, 0).cx(3, 4).h(4).cx(4, 3)
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(_UNITARY_GATES))
        arity = {"cx": 2, "ccx": 3}.get(name, 1)
        wires = draw(st.permutations(range(5)))[:arity]
        if name in ("rx", "rz"):
            getattr(c, name)(wires[0], draw(st.floats(-math.pi, math.pi)))
        else:
            getattr(c, name)(*wires)
    return c


@given(unitary_circuits(), st.integers(0, 7), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sliced_state_matches_kron_oracle(c, basis, superpose, seed):
    # data wires 0-2 hold a basis state or a random superposition
    data = np.zeros(8, dtype=complex)
    if superpose:
        rng = np.random.default_rng(seed)
        data = rng.normal(size=8) + 1j * rng.normal(size=8)
        data /= np.linalg.norm(data)
    else:
        data[basis] = 1.0
    init = np.zeros(32, dtype=complex)
    init.reshape(8, 4)[:, 0] = data
    (branch,) = simulate(c, initial=init)
    assert off_slice_is_zero(branch, 5)
    assert np.allclose(branch.state[:, 0], unitary_of(c) @ init, atol=1e-9)


def test_measuring_a_wire_in_a_basis_state_gives_one_branch():
    c = Circuit(2, 1).h(0).x(1).measure(1, 0)
    (branch,) = simulate(c)
    assert branch.bits == {0: 1}
    assert branch.probability[0] == pytest.approx(1.0)


def _gadget_chain() -> Circuit:
    """Remote cnot then a teleport, on data wires 0, 1 and a free slot 4,
    with the EPR pair on wires 2, 3."""
    c = Circuit(5, 4)
    for g in epr_prepare(2, 3) + expand_remote_cnot(0, 1, (2, 3), (0, 1)):
        c.append(g)
    for g in epr_prepare(2, 3) + expand_teleport(0, 4, (2, 3), (2, 3)):
        c.append(g)
    return c


@pytest.mark.parametrize("merge", [False, True])
def test_cached_probability_and_slice_after_measurements(merge):
    c = _gadget_chain()
    init = _embed_columns(spanning_inputs(2), 5, [0, 1])
    branches = _Runner(c, merge=merge).run(init)
    assert len(branches) == (1 if merge else 16)
    for br in branches:
        br.state = _dense(br, 5)  # the runner stores the live slice only
        assert np.allclose(br.probability, np.sum(np.abs(br.state) ** 2, axis=0),
                           rtol=0, atol=1e-12)
        assert off_slice_is_zero(br, 5)
    assert np.allclose(sum(br.probability for br in branches), 1.0, atol=1e-12)


@pytest.mark.parametrize("merge", [False, True])
def test_stored_slice_after_every_gate(merge):
    c = _gadget_chain()
    init = _embed_columns(spanning_inputs(2), 5, [0, 1])
    for i in range(len(c.gates) + 1):
        prefix = Circuit(5, 4)
        for g in c.gates[:i]:
            prefix.append(g)
        branches = _Runner(prefix, merge=merge).run(init)
        for br in branches:
            assert br.state.shape == (2,) * (5 - len(br.fixed)) + (init.shape[1],)
            mass = np.sum(np.abs(br.state) ** 2, axis=tuple(range(br.state.ndim - 1)))
            assert np.allclose(br.probability, mass, rtol=0, atol=1e-12)
            assert off_slice_is_zero(BranchState(_dense(br, 5), fixed=br.fixed), 5)
        assert np.allclose(sum(br.probability for br in branches), 1.0, atol=1e-12)


def test_fold_keeps_the_wires_both_branches_fix_alike():
    # The representative fixes wires 0 and 2 and stores wire 1; the folded
    # branch fixes wires 0 and 1 and stores wire 2. Column 1 is dead in the
    # representative (mass 1e-14), so it takes the folded branch's column
    # whole, and its stray amplitude on |110> goes.
    hit = BranchState(np.array([[0.6, 0], [0, 1e-7]], dtype=complex), fixed={0: 1, 2: 0})
    br = BranchState(np.array([[0.8, 0.6], [0, 0.8j]], dtype=complex), fixed={0: 1, 1: 0})
    assert hit.probability[1] < PRUNE_TOL
    _Runner(Circuit(3))._fold(hit, br)
    assert hit.fixed == {0: 1}
    assert hit.state.shape == (2, 2, 2)
    want = np.zeros((8, 2), dtype=complex)
    want[0b100, 0] = 1.0         # 0.6 scaled by sqrt((0.36 + 0.64) / 0.36)
    want[0b100, 1], want[0b101, 1] = 0.6, 0.8j
    assert np.allclose(_dense(hit, 3), want, rtol=0, atol=1e-15)
    assert np.allclose(hit.probability, [1.0, 1.0], rtol=0, atol=1e-15)


def test_merge_of_branches_fixed_apart():
    # Measuring |0> and |1> columns forks branches fixed at 0 and at 1 whose
    # columns do not overlap; the dead bit lets them merge into one branch
    # that fixes nothing.
    (br,) = _Runner(Circuit(1, 1).measure(0, 0), merge=True).run(np.eye(2, dtype=complex))
    assert br.fixed == {}
    assert np.array_equal(br.state, np.eye(2))
    assert np.allclose(br.probability, [1, 1], rtol=0, atol=1e-12)


def test_no_merge_of_orthogonal_branches():
    # Both outcomes of measuring |+> carry mass in the same column.
    plus = np.full((2, 1), 1 / math.sqrt(2), dtype=complex)
    branches = _Runner(Circuit(1, 1).measure(0, 0), merge=True).run(plus)
    assert sorted(br.fixed[0] for br in branches) == [0, 1]


def _split_size_remote_cnot():
    """A remote CNOT between 9 data wires over 2 EPR wires: its 518 input
    columns on 11 wires split into two column blocks."""
    ref = Circuit(9).h(2).cx(0, 1)
    cand = Circuit(11, 2).h(2)
    for g in epr_prepare(9, 10) + expand_remote_cnot(0, 1, (9, 10), (0, 1)):
        cand.append(g)
    assert len(_column_blocks(11, spanning_inputs(9).shape[1])) == 2
    return ref, cand


def _with_cpus(monkeypatch, cpus: set[int]) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def test_column_blocks_report_does_not_depend_on_cpu_count(monkeypatch):
    ref, cand = _split_size_remote_cnot()
    pools = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    reports = []
    for cpus in ({0}, {0, 1}):
        _with_cpus(monkeypatch, cpus)
        reports.append(equivalence_report(ref, cand))
    assert pools == [2]  # one CPU runs the blocks in turn, two run them at once
    assert reports[0] == reports[1]
    assert reports[0].equivalent


def test_error_seen_by_superpositions_fails_in_the_last_block(monkeypatch):
    # On basis inputs the extra rz is a global phase; only the tomographic
    # product columns, all in the last block, see it.
    ref, cand = _split_size_remote_cnot()
    cand.rz(3, 0.3)
    reports = []
    for cpus in ({0}, {0, 1}):
        _with_cpus(monkeypatch, cpus)
        reports.append(equivalence_report(ref, cand))
    assert reports[0] == reports[1]
    assert not reports[0].equivalent
    assert reports[0].failing_input >= 2 ** 9


def test_error_in_a_column_block_propagates(monkeypatch):
    ref, cand = _split_size_remote_cnot()
    check = sim._check_block

    def failing_in_last_block(branches, ref_out, n, c_out, tol, offset):
        if offset > 0:
            raise RuntimeError("block failed")
        return check(branches, ref_out, n, c_out, tol, offset)

    monkeypatch.setattr(sim, "_check_block", failing_in_last_block)
    _with_cpus(monkeypatch, {0, 1})
    with pytest.raises(RuntimeError, match="block failed"):
        equivalence_report(ref, cand)


def test_simulate_leaves_the_callers_state_unchanged():
    c = Circuit(2, 1).h(0).cx(0, 1).measure(1, 0).x(0)
    arr = np.zeros((4, 3), dtype=complex)
    arr[0, 0] = arr[1, 1] = 1
    arr[:, 2] = 0.5
    before = arr.copy()
    branches = simulate(c, arr)
    assert len(branches) == 2
    assert np.array_equal(arr, before)
