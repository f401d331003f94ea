"""Cardinality-constrained minimum-cut: spectral bisection, Kernighan-Lin
refinement, and an exhaustive oracle for test-scale instances."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .graphs import InteractionGraph, PartitionVector, fiedler_vector


class PartitionError(ValueError):
    pass


@dataclass
class SizeSpec:
    """Per-cluster capacities; the sum may exceed the vertex count. `pinned`
    fixes selected vertices to clusters before optimization."""
    sizes: tuple[int, ...]
    pinned: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if any(s <= 0 for s in self.sizes):
            raise PartitionError("capacities must be positive")
        counts = [0] * len(self.sizes)
        for v, j in self.pinned.items():
            if not 0 <= j < len(self.sizes):
                raise PartitionError(f"pin of vertex {v} targets unknown cluster {j}")
            counts[j] += 1
        if any(c > s for c, s in zip(counts, self.sizes)):
            raise PartitionError("pinned vertices exceed a cluster capacity")

    @property
    def k(self) -> int:
        return len(self.sizes)


def cut_cost(graph: InteractionGraph, partition: PartitionVector) -> float:
    """Sum over clusters of v_j' L v_j; equals twice the inter-cluster edge
    weight."""
    lap = graph.laplacian()
    return float(sum(partition.indicator(j) @ lap @ partition.indicator(j)
                     for j in range(partition.k)))


def _check_fits(n: int, spec: SizeSpec) -> None:
    if n > sum(spec.sizes):
        raise PartitionError(f"{n} vertices exceed total capacity {sum(spec.sizes)}")
    for v in spec.pinned:
        if not 0 <= v < n:
            raise PartitionError(f"pinned vertex {v} out of range")


def _bisect_sorted(graph: InteractionGraph, spec: SizeSpec, order: np.ndarray) -> np.ndarray:
    """Fill cluster 0 with a prefix of `order` (after honoring pins), choosing
    the feasible split point of least cut. Ties prefer the smaller prefix."""
    n = graph.n
    s0, s1 = spec.sizes
    labels = np.full(n, -1, dtype=int)
    for v, j in spec.pinned.items():
        labels[v] = j
    free = [v for v in order if labels[v] < 0]
    pinned0 = int(np.sum(labels == 0))
    pinned1 = int(np.sum(labels == 1))
    avail0, avail1 = s0 - pinned0, s1 - pinned1
    nf = len(free)
    lo = max(0, nf - avail1)
    hi = min(avail0, nf)
    if lo > hi:
        raise PartitionError("pins and capacities leave no feasible split")
    lap = graph.laplacian()
    best_labels, best_cost = None, None
    for m in range(lo, hi + 1):
        cand = labels.copy()
        cand[free[:m]] = 0
        cand[free[m:]] = 1
        side = cand.astype(float)
        cost = float(side @ lap @ side)
        if best_cost is None or cost < best_cost - 1e-12:
            best_labels, best_cost = cand, cost
    return best_labels


def spectral_partition(graph: InteractionGraph, spec: SizeSpec) -> PartitionVector:
    """Capacity-respecting spectral partition. For k=2, vertices are sorted by
    Fiedler-vector value (ties by index) and cluster 0 takes a prefix subject
    to pins and capacities. k>2 recurses by bisection over capacity groups."""
    n = graph.n
    _check_fits(n, spec)
    if spec.k < 2:
        raise PartitionError("need at least 2 clusters")
    if spec.k == 2:
        if n < 2:
            labels = np.zeros(n, dtype=int)
            for v, j in spec.pinned.items():
                labels[v] = j
            return PartitionVector(labels, 2)
        fied = fiedler_vector(graph)
        order = np.argsort(fied, kind="stable")
        labels = _bisect_sorted(graph, spec, order)
        return PartitionVector(labels, 2)
    # Recursive bisection: split cluster ids into two halves and treat each
    # half's total capacity as one super-cluster.
    half = spec.k // 2
    group_a = list(range(half))
    group_b = list(range(half, spec.k))
    cap_a = sum(spec.sizes[j] for j in group_a)
    cap_b = sum(spec.sizes[j] for j in group_b)
    pinned_top = {v: (0 if j in group_a else 1) for v, j in spec.pinned.items()}
    top = spectral_partition(graph, SizeSpec((cap_a, cap_b), pinned_top))
    labels = np.full(n, -1, dtype=int)
    for side, group in ((0, group_a), (1, group_b)):
        verts = [v for v in range(n) if top.labels[v] == side]
        if not verts:
            continue
        sub = graph.subgraph(verts)
        sub_sizes = tuple(spec.sizes[j] for j in group)
        pos = {v: i for i, v in enumerate(verts)}
        sub_pins = {pos[v]: group.index(j)
                    for v, j in spec.pinned.items() if v in pos}
        if len(group) == 1:
            sub_labels = np.zeros(len(verts), dtype=int)
        else:
            sub_labels = spectral_partition(sub, SizeSpec(sub_sizes, sub_pins)).labels
        for local, v in enumerate(verts):
            labels[v] = group[sub_labels[local]]
    return PartitionVector(labels, spec.k)


def _kl_pass_two(w: np.ndarray, labels: np.ndarray, pinned: set[int]) -> tuple[np.ndarray, float]:
    """One classic KL pass on a bipartition: repeatedly pick the best unlocked
    swap by gain, lock the pair, then keep the best prefix. Returns the new
    labels and the (nonnegative) improvement.

    The pass keeps one gain matrix G[a, b] = D[a] + D[b] - 2 w[a, b], finite
    only for unlocked side-0 rows a and unlocked side-1 columns b. Each swap
    takes the first maximal pair in (side-0 index, side-1 index) order; gains
    are exact on integer gate counts, so ties never depend on rounding."""
    n = len(labels)
    side = labels.copy()
    rows = side == 0
    cols = ~rows
    if pinned:
        locked = list(pinned)
        rows[locked] = False
        cols[locked] = False
    steps = min(np.count_nonzero(rows), np.count_nonzero(cols))
    if not steps:
        return side, 0.0
    # D[v] = external - internal connection weight
    sign = 2.0 * side - 1
    d = -sign * (w @ sign)
    gain = np.where(rows[:, None] & cols, d[:, None] + d - 2 * w, -np.inf)
    swaps: list[tuple[int, int]] = []
    gains: list[float] = []
    for step in range(steps):
        a, b = divmod(int(gain.argmax()), n)
        swaps.append((a, b))
        gains.append(float(gain[a, b]))
        if step == steps - 1:
            break
        gain[a] = -np.inf
        gain[:, b] = -np.inf
        # D update for the unlocked vertices: side 0 gains e, side 1 loses it.
        e = 2 * (w[:, a] - w[:, b])
        gain += np.subtract.outer(e, e)
    # Keep the first best prefix, if it improves the cut at all. A plain loop:
    # most passes have a handful of swaps, where np.cumsum costs more.
    best, best_len, total = 1e-12, 0, 0.0
    for i, g in enumerate(gains):
        total += g
        if total > best:
            best, best_len = total, i + 1
    if not best_len:
        return side, 0.0
    for a, b in swaps[:best_len]:
        side[a], side[b] = 1, 0
    return side, best


def kl_refine(graph: InteractionGraph, partition: PartitionVector,
              spec: SizeSpec) -> PartitionVector:
    """Kernighan-Lin refinement: size-preserving swap passes, iterated until
    no pass improves the cut. Pinned vertices never move."""
    _check_fits(graph.n, spec)
    if partition.k != spec.k:
        raise PartitionError("partition/spec cluster count mismatch")
    for v, j in spec.pinned.items():
        if partition.labels[v] != j:
            raise PartitionError(f"input partition violates pin of vertex {v}")
    labels = partition.labels.copy()
    pinned = set(spec.pinned)
    w = graph.weights
    if spec.k == 2:
        while True:
            labels, gain = _kl_pass_two(w, labels, pinned)
            if gain <= 0:
                break
    else:
        improved = True
        while improved:
            improved = False
            for a, b in itertools.combinations(range(spec.k), 2):
                verts = [v for v in range(graph.n) if labels[v] in (a, b)]
                if len(verts) < 2:
                    continue
                sub = graph.subgraph(verts)
                sub_labels = np.array([0 if labels[v] == a else 1 for v in verts])
                pos = {v: i for i, v in enumerate(verts)}
                sub_pinned = {pos[v] for v in pinned if v in pos}
                new_labels, gain = _kl_pass_two(sub.weights, sub_labels, sub_pinned)
                if gain > 0:
                    improved = True
                    for local, v in enumerate(verts):
                        labels[v] = a if new_labels[local] == 0 else b
    return PartitionVector(labels, spec.k)


def exact_min_cut(graph: InteractionGraph, spec: SizeSpec) -> PartitionVector:
    """Global optimum by exhaustive enumeration; k=2 and n<=16 only. Ties
    break toward the lexicographically smallest cluster-0 vertex set."""
    n = graph.n
    if n > 16:
        raise PartitionError("exact_min_cut is capped at 16 vertices")
    if spec.k != 2:
        raise PartitionError("exact_min_cut handles exactly 2 clusters")
    _check_fits(n, spec)
    s0, s1 = spec.sizes
    fixed0 = [v for v, j in spec.pinned.items() if j == 0]
    fixed1 = {v for v, j in spec.pinned.items() if j == 1}
    free = [v for v in range(n) if v not in spec.pinned]
    lo = max(0, len(free) - (s1 - len(fixed1)))
    hi = min(s0 - len(fixed0), len(free))
    if lo > hi:
        raise PartitionError("pins and capacities leave no feasible split")
    w = graph.weights
    best_cost, best = None, None
    for m in range(lo, hi + 1):
        for chosen in itertools.combinations(free, m):
            labels = np.ones(n, dtype=int)
            labels[list(chosen)] = 0
            labels[fixed0] = 0
            mask = labels == 0
            cost = 2 * float(w[np.ix_(mask, ~mask)].sum())
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost, best = cost, labels
    return PartitionVector(best, 2)
