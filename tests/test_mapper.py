import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqcc import (Circuit, DurationModel, count_inter_qpu,
                  decompose_to_basis, default_hardware, emit_qasm, global_assign,
                  interaction_graph, local_optimize, parse_qasm, schedule_asap)
from dqcc.bench import compile_circuit
from dqcc.circuits import GateKind
from dqcc.hardware import HardwareSpec, QPU
from dqcc.mapper import (CapacityError, _a_move_can_pay, _bucket_gates,
                         _greedy_migrations, _remote_indices)
from dqcc.partition import move_gains

from conftest import corpus_text
import make_corpus


def hw_two(cap, epr=2, channels=2):
    return HardwareSpec([QPU("qpu0", cap, epr), QPU("qpu1", cap, epr)], channels)


# -- global_assign -----------------------------------------------------------

def test_global_assign_gf24_beats_trivial():
    c = parse_qasm(corpus_text("gf2_4_mult"))
    hw = default_hardware(12)
    a = global_assign(c, hw)
    inter = count_inter_qpu(c, a)
    trivial = count_inter_qpu(c, [0] * 6 + [1] * 6)
    assert inter <= trivial
    # regression pin: the spectral+KL pass lands on the same count the
    # reference compiler reports for this benchmark
    assert inter == 49


def test_global_assign_forced_split():
    c = Circuit(2)
    for _ in range(5):
        c.cx(0, 1)
    a = global_assign(c, hw_two(1))
    assert count_inter_qpu(c, a) == 5


def test_global_assign_disjoint_subcircuits_zero_cut():
    c = Circuit(6)
    for a_, b_ in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        c.cx(a_, b_)
    a = global_assign(c, hw_two(3))
    assert count_inter_qpu(c, a) == 0


def test_global_assign_capacity_error():
    with pytest.raises(CapacityError):
        global_assign(Circuit(30), hw_two(4))


def test_seed_changes_no_output():
    # the compiler draws nothing at random: the seed is only recorded, at
    # the default window and at one where gf2_6_mult teleports (see GOLDEN)
    for name, dt in (("tof_5", None), ("gf2_6_mult", 8.0)):
        c = parse_qasm(corpus_text(name))
        r0, r7 = (compile_circuit(c, None, dt, seed) for seed in (0, 7))
        for r in (r0, r7):
            del r.record["seed"], r.record["compile_runtime_seconds"]
        assert r0.record == r7.record
        assert emit_qasm(r0.expanded.circuit) == emit_qasm(r7.expanded.circuit)
        assert (r0.expanded.in_wires, r0.expanded.out_wires) == (
            r7.expanded.in_wires, r7.expanded.out_wires)


# -- _bucket_gates -----------------------------------------------------------

def test_windows_cover_makespan():
    c = Circuit(1)
    for _ in range(450):
        c.rz(0, 0.1)
    sched = schedule_asap(c, DurationModel())
    assert [len(b) for b in _bucket_gates(sched, 200.0)] == [200, 200, 50]


def test_windows_empty_circuit():
    sched = schedule_asap(Circuit(3))
    assert _bucket_gates(sched, 200.0) == []


def test_windows_single_when_dt_covers_makespan():
    sched = schedule_asap(Circuit(2).cx(0, 1).cx(0, 1))
    assert _bucket_gates(sched, 1000.0) == [[0, 1]]


def test_every_gate_in_exactly_one_window():
    sched = schedule_asap(decompose_to_basis(parse_qasm(corpus_text("gf2_4_mult"))))
    dt = 50.0
    buckets = _bucket_gates(sched, dt)
    assert sorted(i for b in buckets for i in b) == list(range(len(sched.start_times)))
    for k, bucket in enumerate(buckets):
        for i in bucket:
            assert k * dt <= sched.start_times[i] < (k + 1) * dt


def test_windows_reject_non_positive_dt():
    sched = schedule_asap(Circuit(1).h(0))
    for dt in (0.0, -5.0, float("nan")):
        with pytest.raises(ValueError):
            _bucket_gates(sched, dt)


# -- move_gains ---------------------------------------------------------------

@pytest.mark.parametrize("remote_edges, local_edges, gain", [
    (3, 0, 3),   # every remote gate to qubit 1 becomes local
    (1, 0, 1),   # ties with the one teleport the move costs
    (0, 2, -2),  # local gates to qubit 2 become remote
    (3, 3, 0),   # saved and newly created remotes cancel
], ids=["clear_win", "tie", "no_remote_gates", "new_remotes"])
def test_move_gain_star(remote_edges, local_edges, gain):
    # qubit 0 on QPU 0 with `remote_edges` gates to qubit 1 (QPU 1) and
    # `local_edges` gates to qubit 2 (QPU 0), moved alone to QPU 1
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = remote_edges
    w[0, 2] = w[2, 0] = local_edges
    assert move_gains(w, [0, 1, 0])[0] == gain


# -- the partitioning rule -----------------------------------------------------

@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_no_move_pays_with_at_most_one_remote_cx_per_qubit(seed, spare_slots):
    # a window of local cx on each QPU plus a matching of remote cx across
    # the cut, any proposal, with and without free data slots
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    sides = [[0], [1]]
    for q in range(2, n):
        sides[int(rng.integers(2))].append(q)
    c = Circuit(n)
    for side in sides:
        for i, a in enumerate(side):
            for b in side[i + 1:]:
                for _ in range(int(rng.integers(0, 4))):
                    c.cx(a, b)
    for a, b in zip(rng.permutation(sides[0]), rng.permutation(sides[1])):
        if rng.random() < 0.7:
            c.cx(int(a), int(b))
    caps = [len(side) + (int(rng.integers(1, 3)) if spare_slots else 0) for side in sides]
    hw = HardwareSpec([QPU("qpu0", caps[0], int(rng.integers(1, 3))),
                       QPU("qpu1", caps[1], int(rng.integers(1, 3)))], 1)
    cur = [0 if q in sides[0] else 1 for q in range(n)]
    free = [cap - len(side) for cap, side in zip(caps, sides)]
    window = range(len(c.gates))
    assert not _a_move_can_pay(c, _remote_indices(c, window, cur))

    wadj = interaction_graph(c, window).weights
    active = sorted({q for g in c.gates for q in g.qubits}
                    | {q for q in range(n) if rng.random() < 0.5})
    proposal = {q: int(rng.integers(2)) for q in active}
    before = (list(cur), list(free))
    assert _greedy_migrations(wadj, active, proposal, hw, cur, free) == []
    assert (cur, free) == before


def test_windows_without_two_remote_cx_on_a_qubit_do_not_partition(monkeypatch):
    # at dt=1, the shortest gate duration, no qubit starts two gates in one
    # window, so no window can hold two remote cx on one qubit
    def refuse(*args):
        raise AssertionError("partitioned a window where no move can pay")
    monkeypatch.setattr("dqcc.mapper._window_proposal", refuse)
    r = compile_circuit(parse_qasm(corpus_text("gf2_4_mult")), None, 1.0, 0).record
    assert r["teleports"] == 0
    assert r["local_interqpu"] == r["global_interqpu"] > 0


# -- local_optimize ----------------------------------------------------------

def _compile(circuit, hw, dt):
    dec = decompose_to_basis(circuit)
    sched = schedule_asap(dec, hw.durations)
    init = global_assign(dec, hw)
    return dec, init, local_optimize(sched, init, hw, dt)


def test_temporally_separated_groups_cost_migrations_only():
    # q1 interacts heavily with q2 early and with q3 much later; with one
    # window per phase the compiler should relocate rather than pay per gate
    c = Circuit(4)
    for _ in range(10):
        c.cx(1, 2)
    for _ in range(300):
        c.rz(1, 0.5)
    for _ in range(10):
        c.cx(1, 3)
    hw = hw_two(2)
    dec, init, mp = _compile(c, hw, dt=200.0)
    assert mp.remote_count == 0
    assert mp.teleport_count == 2  # pairwise exchange: two teleports
    assert mp.inter_qpu_total == 2
    assert mp.inter_qpu_total < count_inter_qpu(dec, init)


def test_single_window_reduces_to_global():
    c = parse_qasm(corpus_text("tof_4"))
    hw = default_hardware(7)
    dec = decompose_to_basis(c)
    sched = schedule_asap(dec, hw.durations)
    init = global_assign(dec, hw)
    mp = local_optimize(sched, init, hw, dt=sched.makespan + 1)
    assert len(mp.windows) == 1
    assert mp.teleport_count == 0
    assert mp.final == init
    assert mp.inter_qpu_total == count_inter_qpu(dec, init)


def test_one_remote_gate_qubit_not_migrated():
    c = Circuit(4)
    for _ in range(3):
        c.cx(0, 1)
    c.cx(0, 2)
    hw = hw_two(2)
    dec, init, mp = _compile(c, hw, dt=1000.0)
    assert mp.teleport_count == 0
    assert mp.remote_count == 1


def _window_qpus(mp):
    """Per window, the QPU maps before and after its migrations, replayed
    from the initial one."""
    qpus = list(mp.initial)
    for w in mp.windows:
        before = list(qpus)
        for mig in w.migrations:
            qpus[mig.qubit] = mig.dst
        yield w, before, list(qpus)


def _spanning(c, indices, qpus):
    return [i for i in indices if c.gates[i].kind == GateKind.CX
            and qpus[c.gates[i].qubits[0]] != qpus[c.gates[i].qubits[1]]]


def test_local_tags_are_consistent_with_window_placements():
    c = decompose_to_basis(parse_qasm(corpus_text("gf2_6_mult")))
    hw = default_hardware(18)
    sched = schedule_asap(c, hw.durations)
    init = global_assign(c, hw)
    mp = local_optimize(sched, init, hw, 200.0)
    for w, _, qpus in _window_qpus(mp):
        for i in w.gate_indices:
            g = c.gates[i]
            if g.kind != GateKind.CX:
                continue
            spans = qpus[g.qubits[0]] != qpus[g.qubits[1]]
            assert spans == (i in w.remote_gates)


def test_windows_never_worse_than_inherited():
    for name in ("gf2_4_mult", "gf2_8_mult", "grover_5"):
        c = decompose_to_basis(parse_qasm(corpus_text(name)))
        hw = default_hardware(c.num_qubits)
        sched = schedule_asap(c, hw.durations)
        init = global_assign(c, hw)
        mp = local_optimize(sched, init, hw, 200.0)
        for w, inherited, _ in _window_qpus(mp):
            assert (len(w.remote_gates) + len(w.migrations)
                    <= len(_spanning(c, w.gate_indices, inherited)))


def test_local_never_worse_than_global():
    for name in ("gf2_4_mult", "mod5_4", "tof_10", "adder_8"):
        c = decompose_to_basis(parse_qasm(corpus_text(name)))
        hw = default_hardware(c.num_qubits)
        sched = schedule_asap(c, hw.durations)
        init = global_assign(c, hw)
        mp = local_optimize(sched, init, hw, 200.0)
        assert mp.inter_qpu_total <= count_inter_qpu(c, init)


def test_pipeline_deterministic_with_seed():
    c = parse_qasm(corpus_text("gf2_4_mult"))
    hw = default_hardware(12)
    runs = []
    for _ in range(2):
        dec, init, mp = _compile(c, hw, dt=200.0)
        runs.append((init, mp.final, mp.inter_qpu_total,
                     [tuple((m.qubit, m.src, m.dst, m.kind) for m in w.migrations)
                      for w in mp.windows]))
    assert runs[0] == runs[1]


def test_assignments_thread_through_windows():
    c = decompose_to_basis(parse_qasm(corpus_text("gf2_4_mult")))
    hw = default_hardware(12)
    sched = schedule_asap(c, hw.durations)
    init = global_assign(c, hw)
    mp = local_optimize(sched, init, hw, 200.0)
    qpus = list(mp.initial)
    assert qpus == init
    for w in mp.windows:
        for mig in w.migrations:
            assert qpus[mig.qubit] == mig.src != mig.dst
            qpus[mig.qubit] = mig.dst
        for p, qpu in enumerate(hw.qpus):  # no QPU over capacity
            assert qpus.count(p) <= qpu.data_capacity
    assert qpus == mp.final


# -- golden counts -------------------------------------------------------------

GOLDEN = [
    # circuit, dt, (global_interqpu, local_interqpu, teleports, epr_consumed, local_plan)
    ("tof_chain_40", None, (8, 8, 0, 8, "windowed")),
    ("barenco_tof_60", None, (16, 16, 0, 16, "windowed")),
    ("gf2_10_mult", None, (301, 189, 36, 189, "windowed")),
    ("gf2_10_mult", 16.0, (301, 206, 108, 206, "windowed")),
    ("barenco_tof_10", 8.0, (16, 16, 0, 16, "static")),
    ("gf2_6_mult", 8.0, (109, 97, 26, 97, "windowed")),
    ("grover_5", 16.0, (48, 46, 8, 46, "windowed")),
]


def golden_circuit(name):
    if name == "tof_chain_40":
        return make_corpus.tof_chain(40)[0]
    if name == "barenco_tof_60":
        return make_corpus.barenco_tof(60)[0]
    return parse_qasm(corpus_text(name))


@pytest.mark.parametrize("name,dt,counts", GOLDEN)
def test_golden_counts_seed0(name, dt, counts):
    """Pins seed-0 records, so that a tie-break change in KL or in the
    spectral bisection fails here rather than only moving benchmark counts."""
    r = compile_circuit(golden_circuit(name), None, dt, 0).record
    assert (r["global_interqpu"], r["local_interqpu"], r["teleports"],
            r["epr_consumed"], r["local_plan"]) == counts
