"""Cardinality-constrained minimum bisection: spectral bisection,
Kernighan-Lin refinement, and an exhaustive oracle for test-scale instances."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import InteractionGraph, PartitionVector, fiedler_vector


class PartitionError(ValueError):
    pass


@dataclass
class SizeSpec:
    """The two clusters' capacities; their sum may exceed the vertex count."""
    sizes: tuple[int, int]

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if len(self.sizes) != 2:
            raise PartitionError(f"need exactly 2 capacities, got {len(self.sizes)}")
        if any(s <= 0 for s in self.sizes):
            raise PartitionError("capacities must be positive")


def cut_cost(graph: InteractionGraph, partition: PartitionVector) -> float:
    """Sum over clusters of v_j' L v_j; equals twice the inter-cluster edge
    weight."""
    lap = graph.laplacian()
    return float(sum(partition.indicator(j) @ lap @ partition.indicator(j)
                     for j in range(partition.k)))


def _check_fits(n: int, spec: SizeSpec) -> None:
    if n > sum(spec.sizes):
        raise PartitionError(f"{n} vertices exceed total capacity {sum(spec.sizes)}")


def _bisect_sorted(graph: InteractionGraph, spec: SizeSpec, order: np.ndarray) -> np.ndarray:
    """Fill cluster 0 with a prefix of `order`, choosing the split point of
    least cut that both capacities allow. Ties prefer the smaller prefix."""
    n = graph.n
    s0, s1 = spec.sizes
    lap = graph.laplacian()
    best_labels, best_cost = None, None
    for m in range(max(0, n - s1), min(s0, n) + 1):
        cand = np.ones(n, dtype=int)
        cand[order[:m]] = 0
        side = cand.astype(float)
        cost = float(side @ lap @ side)
        if best_cost is None or cost < best_cost - 1e-12:
            best_labels, best_cost = cand, cost
    return best_labels


def spectral_partition(graph: InteractionGraph, spec: SizeSpec) -> PartitionVector:
    """Capacity-respecting spectral bisection: vertices are sorted by
    Fiedler-vector value (ties by index) and cluster 0 takes a prefix."""
    _check_fits(graph.n, spec)
    if graph.n < 2:
        return PartitionVector(np.zeros(graph.n, dtype=int), 2)
    order = np.argsort(fiedler_vector(graph), kind="stable")
    return PartitionVector(_bisect_sorted(graph, spec, order), 2)


def move_gains(w: np.ndarray, labels) -> np.ndarray:
    """Kernighan-Lin's D value of every vertex of a bipartition: the weight
    to the other side minus the weight to its own, which is the cut weight
    saved by moving that vertex alone across."""
    sign = 2.0 * np.asarray(labels) - 1
    return -sign * (w @ sign)


def _kl_pass_two(w: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
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
    steps = min(np.count_nonzero(rows), np.count_nonzero(cols))
    if not steps:
        return side, 0.0
    d = move_gains(w, side)
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
    """Kernighan-Lin refinement of a bipartition: size-preserving swap
    passes, iterated until no pass improves the cut."""
    _check_fits(graph.n, spec)
    if partition.k != 2:
        raise PartitionError("kl_refine refines a bipartition")
    labels = partition.labels
    while True:
        labels, gain = _kl_pass_two(graph.weights, labels)
        if gain <= 0:
            return PartitionVector(labels, 2)


def exact_min_cut(graph: InteractionGraph, spec: SizeSpec) -> PartitionVector:
    """Global optimum by exhaustive enumeration; n<=16 only. Ties break
    toward the lexicographically smallest cluster-0 vertex set."""
    n = graph.n
    if n > 16:
        raise PartitionError("exact_min_cut is capped at 16 vertices")
    _check_fits(n, spec)
    s0, s1 = spec.sizes
    w = graph.weights
    best_cost, best = None, None
    for m in range(max(0, n - s1), min(s0, n) + 1):
        for chosen in itertools.combinations(range(n), m):
            labels = np.ones(n, dtype=int)
            labels[list(chosen)] = 0
            mask = labels == 0
            cost = 2 * float(w[np.ix_(mask, ~mask)].sum())
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost, best = cost, labels
    return PartitionVector(best, 2)
