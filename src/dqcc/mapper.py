"""Compiler core: global QPU assignment from the full interaction graph,
rolling-window re-partitioning, and greedy migrate-vs-remote decisions.

The local pass threads an assignment through consecutive time windows. Within
each window it re-partitions the active qubits (warm-started from the
incumbent placement), then moves a qubit only when the EPR cost of a teleport
is strictly beaten by the remote gates it saves. On architectures with no
spare data slots a move is realized as a pairwise exchange (two teleports)
with either an opposite-direction mover or an idle resident.

A window partitions only when some qubit has two remote cx in it. A move of
q saves at most q's own remote cx, and a single move costs one EPR pair, a
pair exchange two plus twice the gates between the pair, an eviction two, so
with at most one remote cx per qubit no move can pay and the window keeps
its placement without building a graph.
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, ScheduledCircuit, count_inter_qpu
from .graphs import InteractionGraph, PartitionVector, circuit_graph, interaction_graph
from .hardware import Assignment, HardwareSpec
from .partition import SizeSpec, cut_cost, kl_refine, spectral_partition


class CapacityError(ValueError):
    pass


def _refined(graph: InteractionGraph, spec: SizeSpec,
             starts: list[PartitionVector]) -> PartitionVector:
    """KL-refine each start and keep the best result; ties keep the earliest
    start, which callers use to bias toward an incumbent."""
    best, best_cost = None, None
    for start in starts:
        refined = kl_refine(graph, start, spec)
        cost = cut_cost(graph, refined)
        if best_cost is None or cost < best_cost - 1e-9:
            best, best_cost = refined, cost
    return best


def _trivial_partition(n: int, sizes: tuple[int, int]) -> PartitionVector:
    return PartitionVector(np.arange(n) >= sizes[0], 2)


def global_assign(circuit: Circuit, hw: HardwareSpec, seed: int = 0) -> Assignment:
    """Bisect the full-circuit interaction graph between the two QPUs
    (spectral + Kernighan-Lin, with the identity split as a second refinement
    start so the result never loses to the trivial map), then give each qubit
    a seeded-random slot inside its QPU."""
    n = circuit.num_qubits
    if n > hw.total_data_capacity:
        raise CapacityError(
            f"circuit needs {n} data qubits, hardware provides {hw.total_data_capacity}")
    sizes = tuple(q.data_capacity for q in hw.qpus)
    graph = circuit_graph(circuit)
    spec = SizeSpec(sizes)
    starts = [spectral_partition(graph, spec), _trivial_partition(n, sizes)]
    part = _refined(graph, spec, starts)

    rng = random.Random(seed)
    assignment = Assignment(hw)
    for qpu_idx in range(len(hw.qpus)):
        members = [q for q in range(n) if part.labels[q] == qpu_idx]
        free = list(range(hw.qpus[qpu_idx].data_capacity))
        for q in members:
            slot = free.pop(rng.randrange(len(free)))
            assignment.placement[q] = (qpu_idx, slot)
    assignment.validate()
    return assignment


def _move_gain(wadj: np.ndarray, qpus: dict[int, int], q: int, dst: int) -> float:
    """Remote gates saved minus remote gates created if q alone moves to dst."""
    gain = 0.0
    src = qpus[q]
    row = wadj[q]
    for r, w in enumerate(row):
        if w == 0 or r == q or r not in qpus:
            continue
        before = qpus[r] != src
        after = qpus[r] != dst
        gain += w * (int(before) - int(after))
    return gain


@dataclass
class Migration:
    qubit: int
    src: tuple[int, int]
    dst: tuple[int, int]


@dataclass
class WindowPlan:
    migrations: list[Migration]
    gate_indices: list[int]
    remote_gates: list[int]


@dataclass
class MappedProgram:
    circuit: Circuit
    hw: HardwareSpec
    dt: float
    windows: list[WindowPlan]
    initial: Assignment
    final: Assignment
    global_interqpu: int  # remote cx under `initial` alone: the static plan's total
    local_plan: str = "windowed"  # or "static": the zero-migration fallback

    @property
    def teleport_count(self) -> int:
        return sum(len(w.migrations) for w in self.windows)

    @property
    def remote_count(self) -> int:
        return sum(len(w.remote_gates) for w in self.windows)

    @property
    def inter_qpu_total(self) -> int:
        return self.teleport_count + self.remote_count

    @property
    def epr_per_window(self) -> list[int]:
        return [len(w.remote_gates) + len(w.migrations) for w in self.windows]

    def epr_budget_per_window(self) -> int:
        period = self.hw.durations.epr_generation_period
        return int(self.hw.channels * np.ceil(self.dt / period))

    def throttle_violations(self) -> list[int]:
        budget = self.epr_budget_per_window()
        return [i for i, used in enumerate(self.epr_per_window) if used > budget]


def _orient_to_incumbent(labels: np.ndarray, active: list[int],
                         cur: dict[int, int], avail: tuple[int, int]) -> np.ndarray:
    """Pick the labeling orientation (as-is or mirrored) that fits capacity
    and disagrees with the incumbent on fewer qubits; ties keep as-is."""
    mirrored = 1 - labels
    def fits(lbl):
        return (int(np.sum(lbl == 0)) <= avail[0]) and (int(np.sum(lbl == 1)) <= avail[1])
    def moves(lbl):
        return sum(1 for i, q in enumerate(active) if lbl[i] != cur[q])
    if not fits(mirrored):
        return labels
    if not fits(labels):
        return mirrored
    return mirrored if moves(mirrored) < moves(labels) else labels


def local_optimize(sched: ScheduledCircuit, init: Assignment, dt: float,
                   seed: int = 0) -> MappedProgram:
    """Rolling-window local pass on the hardware of `init`. Never returns a
    plan with more interconnect uses than the static global assignment: if
    windowed migration ends up worse in total, the zero-migration plan is
    emitted instead."""
    circuit = sched.circuit
    buckets = _bucket_gates(sched, dt)
    global_interqpu = count_inter_qpu(circuit, init.qpu_map())
    windows, final = _windowed_plan(circuit, init, buckets, random.Random(seed ^ 0x5EED))
    plan = MappedProgram(circuit, init.hw, dt, windows, init.copy(), final, global_interqpu)
    if plan.inter_qpu_total > global_interqpu:
        plan = MappedProgram(circuit, init.hw, dt, _static_plan(circuit, init, buckets),
                             init.copy(), init.copy(), global_interqpu, local_plan="static")
    return plan


def _bucket_gates(sched: ScheduledCircuit, dt: float) -> list[list[int]]:
    """The windows of the local pass: window k holds the indices of the gates
    starting in [k*dt, (k+1)*dt), up to the one holding the last start."""
    if not dt > 0:  # also refuses nan
        raise ValueError("dt must be positive")
    if not sched.circuit.gates:
        return []
    buckets = [[] for _ in range(int(sched.max_start // dt) + 1)]
    for i, t in enumerate(sched.start_times):
        buckets[int(t // dt)].append(i)
    return buckets


def _remote_indices(circuit: Circuit, indices, qpus: dict[int, int]) -> list[int]:
    out = []
    for i in indices:
        g = circuit.gates[i]
        if g.kind == GateKind.CX and qpus[g.qubits[0]] != qpus[g.qubits[1]]:
            out.append(i)
    return out


def _static_plan(circuit, init, buckets) -> list[WindowPlan]:
    qpus = init.qpu_map()
    return [WindowPlan([], indices, _remote_indices(circuit, indices, qpus))
            for indices in buckets]


def _windowed_plan(circuit, init, buckets, rng) -> tuple[list[WindowPlan], Assignment]:
    """The windows of the migrating plan and the assignment it ends on."""
    assignment = init.copy()
    caps = tuple(q.data_capacity for q in init.hw.qpus)
    plans: list[WindowPlan] = []
    cur = assignment.qpu_map()  # kept in step by _greedy_migrations

    for indices in buckets:
        remote = _remote_indices(circuit, indices, cur)
        migrations: list[Migration] = []

        if _a_move_can_pay(circuit, remote):
            wadj = interaction_graph(circuit, indices).weights
            active = sorted({q for i in indices
                             for q in circuit.gates[i].qubits
                             if circuit.gates[i].kind != GateKind.BARRIER})
            proposal = _window_proposal(wadj, active, cur, caps)
            migrations = _greedy_migrations(wadj, active, proposal, assignment, cur, rng)
            if migrations:
                remote = _remote_indices(circuit, indices, cur)

        plans.append(WindowPlan(migrations, indices, remote))

    return plans, assignment


def _a_move_can_pay(circuit: Circuit, remote: list[int]) -> bool:
    """Whether some qubit has two of the window's remote cx: otherwise every
    move's net gain is at most zero and `_greedy_migrations` takes none."""
    seen = set()
    for i in remote:
        for q in circuit.gates[i].qubits:
            if q in seen:
                return True
            seen.add(q)
    return False


def _window_proposal(wadj, active, cur, caps) -> dict[int, int]:
    """Partition the window-active qubits into QPUs, warm-started from the
    incumbent placement. Full QPU capacities are used: idle residents do not
    block a proposal, since the migration pass can displace them (at teleport
    cost) when doing so actually pays."""
    sub = InteractionGraph(wadj[np.ix_(active, active)])
    spec = SizeSpec(caps)
    incumbent = PartitionVector(np.array([cur[q] for q in active]), 2)
    starts = [incumbent]
    if sub.n >= 2:
        starts.append(spectral_partition(sub, spec))
    best = _refined(sub, spec, starts)
    labels = _orient_to_incumbent(best.labels, active, cur, caps)
    return {q: int(labels[i]) for i, q in enumerate(active)}


def _greedy_migrations(wadj, active, proposal, assignment: Assignment,
                       cur: dict[int, int], rng) -> list[Migration]:
    """Apply profitable moves in descending-benefit order. Moves are single
    teleports into free slots when available, otherwise pairwise exchanges
    (two teleports) with an opposite mover or an idle resident, where the
    target QPU has the two EPR slots an exchange needs. Updates
    `assignment` and its QPU map `cur` in place."""
    migrations: list[Migration] = []
    active_set = set(active)
    # kept ascending: the seeded slot draw indexes into this order
    free = [assignment.free_slots(p) for p in range(len(assignment.hw.qpus))]

    while True:
        movers = [q for q in active if proposal[q] != cur[q]]
        if not movers:
            break
        best = None  # (net, order_rank, key, action)
        for q in movers:
            dst = proposal[q]
            gain = _move_gain(wadj, cur, q, dst)
            if free[dst]:
                net = gain - 1
                cand = (net, 0, (q,), ("single", q, dst))
                if best is None or _better(cand, best):
                    best = cand
            if assignment.hw.qpus[dst].epr_slots < 2:
                continue  # an exchange uses two EPR slots on q's destination
            # pair with an opposite-direction mover
            for r in movers:
                if r <= q or proposal[r] != cur[q] or cur[r] != dst:
                    continue
                joint = gain + _move_gain(wadj, cur, r, cur[q]) - 2 * wadj[q, r]
                cand = (joint - 2, 1, (q, r), ("pair", q, r))
                if best is None or _better(cand, best):
                    best = cand
            # pair with the lowest-numbered idle resident of the target QPU
            idle = min((r for r, p in cur.items() if p == dst and r not in active_set),
                       default=None)
            if idle is not None:
                cand = (gain - 2, 2, (q, idle), ("evict", q, idle))
                if best is None or _better(cand, best):
                    best = cand
        if best is None or best[0] <= 0:
            break
        _, _, _, action = best
        if action[0] == "single":
            _, q, dst = action
            slot = free[dst].pop(rng.randrange(len(free[dst])))
            src = assignment.placement[q]
            bisect.insort(free[src[0]], src[1])
            assignment.placement[q] = (dst, slot)
            cur[q] = dst
            migrations.append(Migration(q, src, (dst, slot)))
        else:
            _, q, r = action
            sq, sr = assignment.placement[q], assignment.placement[r]
            assignment.placement[q], assignment.placement[r] = sr, sq
            cur[q], cur[r] = cur[r], cur[q]
            migrations.append(Migration(q, sq, sr))
            migrations.append(Migration(r, sr, sq))
    return migrations


def _better(cand, best) -> bool:
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] < best[1]
    return cand[2] < best[2]
