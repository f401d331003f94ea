"""Compiler core: global QPU assignment from the full interaction graph,
rolling-window re-partitioning, and greedy migrate-vs-remote decisions.

The mapper decides only which QPU holds each qubit; inside an all-to-all QPU
the data slot costs nothing, and `expand_program` picks it. The local pass
threads a QPU map and each QPU's free data-slot count through consecutive
time windows. Within each window it re-partitions the active qubits
(warm-started from the incumbent QPU map), then moves a qubit only when the
EPR cost of a teleport is strictly beaten by the remote gates it saves. A
move is a single teleport when its destination has a free data slot, else a
pairwise exchange (two teleports) with either an opposite-direction mover or
an idle resident; each `Migration` carries the rule's action name as `kind`.

A window partitions only when some qubit has two remote cx in it. A move of
q saves at most q's own remote cx, and a single move costs one EPR pair, a
pair exchange two plus twice the gates between the pair, an eviction two, so
with at most one remote cx per qubit no move can pay and the window keeps
its QPU map without building a graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind, ScheduledCircuit, count_inter_qpu
from .graphs import InteractionGraph, PartitionVector, circuit_graph, interaction_graph
from .hardware import HardwareSpec
from .partition import SizeSpec, cut_cost, kl_refine, move_gains, spectral_partition


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


def global_assign(circuit: Circuit, hw: HardwareSpec) -> list[int]:
    """The QPU of each qubit: split the full-circuit interaction graph
    between the two QPUs (spectral + Kernighan-Lin, with the identity split as
    a second refinement start so the result never loses to the trivial map)."""
    n = circuit.num_qubits
    if n > hw.total_data_capacity:
        raise CapacityError(
            f"circuit needs {n} data qubits, hardware provides {hw.total_data_capacity}")
    sizes = tuple(q.data_capacity for q in hw.qpus)
    graph = circuit_graph(circuit)
    spec = SizeSpec(sizes)
    starts = [spectral_partition(graph, spec), _trivial_partition(n, sizes)]
    return [int(p) for p in _refined(graph, spec, starts).labels]


@dataclass
class Migration:
    qubit: int
    src: int  # QPU
    dst: int
    kind: str  # "single", or "pair"/"evict" on both halves of an exchange


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
    initial: list[int]  # the QPU of each qubit before the first window
    final: list[int]  # and after the last
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
                         cur: list[int], avail: tuple[int, int]) -> np.ndarray:
    """`labels` fits the capacities `avail`. Mirror it if the mirror fits
    too and disagrees with the incumbent on fewer qubits; ties keep as-is."""
    mirrored = 1 - labels
    def moves(lbl):
        return sum(1 for i, q in enumerate(active) if lbl[i] != cur[q])
    if int(np.sum(mirrored == 0)) > avail[0] or int(np.sum(mirrored == 1)) > avail[1]:
        return labels
    return mirrored if moves(mirrored) < moves(labels) else labels


def local_optimize(sched: ScheduledCircuit, init: list[int], hw: HardwareSpec,
                   dt: float) -> MappedProgram:
    """Rolling-window local pass from the QPU map `init`. Never returns a
    plan with more interconnect uses than the static global assignment: if
    windowed migration ends up worse in total, the zero-migration plan is
    emitted instead."""
    circuit = sched.circuit
    buckets = _bucket_gates(sched, dt)
    global_interqpu = count_inter_qpu(circuit, init)
    windows, final = _windowed_plan(circuit, init, hw, buckets)
    plan = MappedProgram(circuit, hw, dt, windows, list(init), final, global_interqpu)
    if plan.inter_qpu_total > global_interqpu:
        plan = MappedProgram(circuit, hw, dt, _static_plan(circuit, init, buckets),
                             list(init), list(init), global_interqpu, local_plan="static")
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


def _remote_indices(circuit: Circuit, indices, qpus: list[int]) -> list[int]:
    out = []
    for i in indices:
        g = circuit.gates[i]
        if g.kind == GateKind.CX and qpus[g.qubits[0]] != qpus[g.qubits[1]]:
            out.append(i)
    return out


def _static_plan(circuit, init, buckets) -> list[WindowPlan]:
    return [WindowPlan([], indices, _remote_indices(circuit, indices, init))
            for indices in buckets]


def _windowed_plan(circuit, init, hw, buckets) -> tuple[list[WindowPlan], list[int]]:
    """The windows of the migrating plan and the QPU map it ends on."""
    caps = tuple(q.data_capacity for q in hw.qpus)
    plans: list[WindowPlan] = []
    cur = list(init)  # kept in step by _greedy_migrations, as is `free`
    free = [cap - cur.count(p) for p, cap in enumerate(caps)]

    for indices in buckets:
        remote = _remote_indices(circuit, indices, cur)
        migrations: list[Migration] = []

        if _a_move_can_pay(circuit, remote):
            wadj = interaction_graph(circuit, indices).weights
            active = sorted({q for i in indices
                             for q in circuit.gates[i].qubits
                             if circuit.gates[i].kind != GateKind.BARRIER})
            proposal = _window_proposal(wadj, active, cur, caps)
            migrations = _greedy_migrations(wadj, active, proposal, hw, cur, free)
            if migrations:
                remote = _remote_indices(circuit, indices, cur)

        plans.append(WindowPlan(migrations, indices, remote))

    return plans, cur


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
    incumbent QPU map. Full QPU capacities are used: idle residents do not
    block a proposal, since the migration pass can displace them (at teleport
    cost) when doing so actually pays."""
    sub = InteractionGraph(wadj[np.ix_(active, active)])
    spec = SizeSpec(caps)
    incumbent = PartitionVector(np.array([cur[q] for q in active]), 2)
    best = _refined(sub, spec, [incumbent, spectral_partition(sub, spec)])
    labels = _orient_to_incumbent(best.labels, active, cur, caps)
    return {q: int(labels[i]) for i, q in enumerate(active)}


def _greedy_migrations(wadj, active, proposal, hw: HardwareSpec,
                       cur: list[int], free: list[int]) -> list[Migration]:
    """Apply profitable moves in descending-benefit order. Moves are single
    teleports when the target QPU has a free data slot, otherwise pairwise
    exchanges (two teleports) with an opposite mover or an idle resident,
    where the target QPU has the two EPR slots an exchange needs. Updates
    the QPU map `cur` and the free data-slot counts `free` in place."""
    migrations: list[Migration] = []
    active_set = set(active)

    while True:
        movers = [q for q in active if proposal[q] != cur[q]]
        if not movers:
            break
        # gain[q]: remote gates saved minus created if q alone changes QPU
        gain = move_gains(wadj, cur)
        cands = []  # (net, order_rank, qubits, action)
        for q in movers:
            dst = proposal[q]
            if free[dst]:
                cands.append((gain[q] - 1, 0, (q,), ("single", q, dst)))
            if hw.qpus[dst].epr_slots < 2:
                continue  # an exchange uses two EPR slots on q's destination
            # pair with an opposite-direction mover
            for r in movers:
                if r > q and cur[r] == dst:
                    cands.append((gain[q] + gain[r] - 2 * wadj[q, r] - 2, 1, (q, r),
                                  ("pair", q, r)))
            # pair with the lowest-numbered idle resident of the target QPU
            idle = min((r for r, p in enumerate(cur) if p == dst and r not in active_set),
                       default=None)
            if idle is not None:
                cands.append((gain[q] - 2, 2, (q, idle), ("evict", q, idle)))
        best = min(cands, key=lambda c: (-c[0], c[1], c[2]), default=None)
        if best is None or best[0] <= 0:
            break
        kind, q, r = best[3]  # r: a single's destination QPU, else q's partner
        if kind == "single":
            free[cur[q]] += 1
            free[r] -= 1
            migrations.append(Migration(q, cur[q], r, kind))
            cur[q] = r
        else:
            migrations.append(Migration(q, cur[q], cur[r], kind))
            migrations.append(Migration(r, cur[r], cur[q], kind))
            cur[q], cur[r] = cur[r], cur[q]
    return migrations
