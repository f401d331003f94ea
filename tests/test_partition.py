import numpy as np
import pytest

from dqcc import (InteractionGraph, PartitionVector, SizeSpec, cut_cost,
                  exact_min_cut, kl_refine, spectral_partition)
from dqcc import partition
from dqcc.partition import PartitionError, _kl_pass_two, move_gains

from test_graphs import complete, two_triangles_with_bridge


def barbell_k5():
    w = np.zeros((10, 10))
    for base in (0, 5):
        for a in range(base, base + 5):
            for b in range(a + 1, base + 5):
                w[a, b] = w[b, a] = 1
    w[4, 5] = w[5, 4] = 1
    return InteractionGraph(w)


def labels_as_sets(p: PartitionVector):
    return frozenset(frozenset(np.where(p.labels == j)[0].tolist())
                     for j in range(p.k))


# -- cut_cost -----------------------------------------------------------------

def test_cut_cost_bridge():
    p = PartitionVector(np.array([0, 0, 0, 1, 1, 1]), 2)
    assert cut_cost(two_triangles_with_bridge(), p) == pytest.approx(2.0)


def test_cut_cost_edgeless():
    g = InteractionGraph(np.zeros((4, 4)))
    p = PartitionVector(np.array([0, 1, 0, 1]), 2)
    assert cut_cost(g, p) == 0.0


def test_cut_cost_k4_bisection():
    p = PartitionVector(np.array([0, 0, 1, 1]), 2)
    assert cut_cost(complete(4), p) == pytest.approx(8.0)


# -- spectral_partition -------------------------------------------------------

def test_spectral_finds_triangles():
    g = two_triangles_with_bridge()
    p = spectral_partition(g, SizeSpec((3, 3)))
    assert labels_as_sets(p) == labels_as_sets(exact_min_cut(g, SizeSpec((3, 3))))
    assert cut_cost(g, p) == pytest.approx(2.0)


def test_spectral_edgeless_any_split_is_valid():
    g = InteractionGraph(np.zeros((4, 4)))
    p = spectral_partition(g, SizeSpec((2, 2)))
    assert sorted(p.sizes()) == [2, 2]
    assert cut_cost(g, p) == 0.0


def test_spectral_barbell():
    g = barbell_k5()
    p = spectral_partition(g, SizeSpec((5, 5)))
    assert cut_cost(g, p) == pytest.approx(cut_cost(g, exact_min_cut(g, SizeSpec((5, 5)))))


def test_spectral_capacity_slack():
    g = two_triangles_with_bridge()
    p = spectral_partition(g, SizeSpec((6, 6)))
    assert sum(p.sizes()) == 6
    assert cut_cost(g, p) <= 2.0


def test_spectral_infeasible():
    g = complete(4)
    with pytest.raises(PartitionError):
        spectral_partition(g, SizeSpec((1, 1)))


def test_spectral_deterministic():
    g = barbell_k5()
    a = spectral_partition(g, SizeSpec((5, 5)))
    b = spectral_partition(g, SizeSpec((5, 5)))
    assert np.array_equal(a.labels, b.labels)


# -- kl_refine ----------------------------------------------------------------

def test_kl_leaves_optimum_unchanged_cost():
    g = two_triangles_with_bridge()
    opt = exact_min_cut(g, SizeSpec((3, 3)))
    refined = kl_refine(g, opt, SizeSpec((3, 3)))
    assert cut_cost(g, refined) == pytest.approx(cut_cost(g, opt))


def test_kl_fixes_crossed_barbell():
    g = barbell_k5()
    crossed = PartitionVector(np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 1]), 2)
    refined = kl_refine(g, crossed, SizeSpec((5, 5)))
    assert cut_cost(g, refined) == pytest.approx(2.0)  # single bridge, cut from both sides


def test_kl_never_increases_cost_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = 10
        w = np.triu((rng.random((n, n)) < rng.uniform(0.2, 0.8)), 1).astype(float)
        g = InteractionGraph(w + w.T)
        labels = rng.permutation(np.array([0] * 5 + [1] * 5))
        p = PartitionVector(labels, 2)
        refined = kl_refine(g, p, SizeSpec((5, 5)))
        assert cut_cost(g, refined) <= cut_cost(g, p) + 1e-9
        assert sorted(refined.sizes()) == [5, 5]


def reference_kl_pass_two(w, labels):
    """The textbook O(n^2)-per-swap KL pass that `_kl_pass_two` replaces:
    scan unlocked (side-0, side-1) pairs in index order, keep the first whose
    gain beats the running best, lock it and update D for the rest."""
    n = len(labels)
    side = labels.copy()
    same = (side[:, None] == side[None, :])
    d = (w * ~same).sum(axis=1) - (w * same).sum(axis=1)
    locked = np.zeros(n, dtype=bool)
    swaps, gains = [], []
    work = side.copy()
    while True:
        zeros = [v for v in range(n) if not locked[v] and work[v] == 0]
        ones = [v for v in range(n) if not locked[v] and work[v] == 1]
        if not zeros or not ones:
            break
        best, best_pair = None, None
        for a in zeros:
            for b in ones:
                g = d[a] + d[b] - 2 * w[a, b]
                if best is None or g > best + 1e-12:
                    best, best_pair = g, (a, b)
        a, b = best_pair
        swaps.append((a, b))
        gains.append(best)
        locked[a] = locked[b] = True
        for v in range(n):
            if locked[v]:
                continue
            if work[v] == 0:
                d[v] += 2 * w[v, a] - 2 * w[v, b]
            else:
                d[v] += 2 * w[v, b] - 2 * w[v, a]
        work[a], work[b] = 1, 0
    if not gains:
        return side, 0.0
    prefix = np.cumsum(gains)
    best_idx = int(np.argmax(prefix))
    if prefix[best_idx] <= 1e-12:
        return side, 0.0
    for a, b in swaps[:best_idx + 1]:
        side[a], side[b] = 1, 0
    return side, float(prefix[best_idx])


def random_instance(rng, n, max_weight=1):
    """Integer weights in [0, max_weight]; 0/1 makes gain ties common."""
    w = np.triu(rng.integers(0, max_weight + 1, (n, n)), 1).astype(float)
    return w + w.T, rng.integers(0, 2, n)


@pytest.mark.parametrize("max_weight", [1, 3])
def test_kl_pass_matches_reference(max_weight):
    rng = np.random.default_rng(max_weight)
    for _ in range(300):
        n = int(rng.integers(2, 41))
        w, labels = random_instance(rng, n, max_weight)
        before = labels.copy()
        got_labels, got_gain = _kl_pass_two(w, labels)
        assert np.array_equal(labels, before)
        ref_labels, ref_gain = reference_kl_pass_two(w, labels)
        assert np.array_equal(got_labels, ref_labels)
        assert got_gain == ref_gain


def reference_move_gain(w, labels, q):
    """The per-row loop that `move_gains` replaces: cut weight saved minus
    cut weight created if q alone moves to the other side."""
    gain = 0.0
    src, dst = labels[q], 1 - labels[q]
    for r, x in enumerate(w[q]):
        if x == 0 or r == q:
            continue
        gain += x * (int(labels[r] != src) - int(labels[r] != dst))
    return gain


@pytest.mark.parametrize("max_weight", [1, 5])
def test_move_gains_match_per_vertex_loop(max_weight):
    rng = np.random.default_rng(100 + max_weight)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        w, labels = random_instance(rng, n, max_weight)
        labels = labels.tolist()  # the mapper passes its QPU map as a list
        assert move_gains(w, labels).tolist() == [
            reference_move_gain(w, labels, q) for q in range(n)]


def test_kl_refine_matches_reference_pass(monkeypatch):
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 31))
        w = np.triu(rng.integers(0, 2, (n, n)), 1).astype(float)
        g = InteractionGraph(w + w.T)
        labels = rng.integers(0, 2, n)
        sizes = tuple(int(np.sum(labels == j)) + int(rng.integers(1, 3)) for j in range(2))
        cases.append((g, PartitionVector(labels, 2), SizeSpec(sizes)))
    got = [kl_refine(*case).labels for case in cases]
    monkeypatch.setattr(partition, "_kl_pass_two", reference_kl_pass_two)
    ref = [kl_refine(*case).labels for case in cases]
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


# -- exact_min_cut ------------------------------------------------------------

def test_exact_bridge():
    g = two_triangles_with_bridge()
    assert cut_cost(g, exact_min_cut(g, SizeSpec((3, 3)))) == pytest.approx(2.0)


def test_exact_k4_all_splits_equal():
    g = complete(4)
    assert cut_cost(g, exact_min_cut(g, SizeSpec((2, 2)))) == pytest.approx(8.0)


def test_exact_keeps_lone_edge_together():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1
    g = InteractionGraph(w)
    p = exact_min_cut(g, SizeSpec((2, 2)))
    assert cut_cost(g, p) == 0.0
    assert p.labels[0] == p.labels[1]


def test_exact_size_cap():
    g = InteractionGraph(np.zeros((17, 17)))
    with pytest.raises(PartitionError):
        exact_min_cut(g, SizeSpec((9, 9)))


# -- pipeline quality gate (also exercised by the acceptance suite) -----------

def quality_suite(seed=0, count=200):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        n = int(rng.integers(8, 13))
        p = float(rng.uniform(0.3, 0.7))
        w = np.triu(rng.random((n, n)) < p, 1).astype(float)
        instances.append(InteractionGraph(w + w.T))
    return instances


def test_spectral_plus_kl_quality_gate():
    hits, total = 0, 0
    for g in quality_suite():
        spec = SizeSpec(((g.n + 1) // 2, g.n // 2))
        ours = cut_cost(g, kl_refine(g, spectral_partition(g, spec), spec))
        opt = cut_cost(g, exact_min_cut(g, spec))
        assert ours >= opt - 1e-9
        if opt > 1e-9:
            assert ours <= 2 * opt + 1e-9
        else:
            assert ours <= 1e-9
        hits += abs(ours - opt) < 1e-9
        total += 1
    assert hits / total >= 0.80


def test_pipeline_deterministic():
    g = quality_suite(seed=9, count=1)[0]
    spec = SizeSpec(((g.n + 1) // 2, g.n // 2))
    a = kl_refine(g, spectral_partition(g, spec), spec)
    b = kl_refine(g, spectral_partition(g, spec), spec)
    assert np.array_equal(a.labels, b.labels)
