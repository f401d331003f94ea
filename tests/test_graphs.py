import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqcc import (Circuit, DurationModel, InteractionGraph, PartitionVector,
                  cheeger_screen, conductance, interaction_graph,
                  laplacian_eigenvalues, parse_qasm, schedule_asap)
from dqcc.graphs import GraphError, circuit_graph
from dqcc.mapper import _bucket_gates

from conftest import corpus_text


def ring(n):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1
    return InteractionGraph(w)


def complete(n):
    return InteractionGraph(np.ones((n, n)) - np.eye(n))


def two_triangles_with_bridge():
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        w[a, b] = w[b, a] = 1
    return InteractionGraph(w)


def test_graph_validation():
    with pytest.raises(GraphError):
        InteractionGraph(np.array([[0, 1], [2, 0]]))
    with pytest.raises(GraphError):
        InteractionGraph(np.array([[1.0]]))
    with pytest.raises(GraphError):
        InteractionGraph(-np.ones((2, 2)) + np.eye(2))


def test_graph_validation_rules():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    near = w.copy()
    near[0, 1] += 1e-13
    assert InteractionGraph(near).n == 2
    far = w.copy()
    far[0, 1] += 1e-3
    nan = w.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    diagonal = w + np.eye(2)
    for bad in (far, nan, -w, diagonal):
        with pytest.raises(GraphError):
            InteractionGraph(bad)


# -- interaction_graph ------------------------------------------------------

def every_gate(circuit):
    return range(len(circuit.gates))


def test_full_graph_counts_repeated_pairs():
    c = Circuit(2).cx(0, 1).cx(0, 1).cx(1, 0)
    g = interaction_graph(c, every_gate(c))
    assert g.weights[0, 1] == 3


def test_full_graph_total_weight_gf24():
    c = parse_qasm(corpus_text("gf2_4_mult"))
    assert interaction_graph(c, every_gate(c)).total_weight() == 99
    assert circuit_graph(c).total_weight() == 99


def test_window_excludes_late_gates():
    c = Circuit(2, 0)
    c.cx(0, 1)
    for _ in range(299):
        c.rz(0, 0.1)
        c.rz(1, 0.1)
    c.cx(0, 1)
    sched = schedule_asap(c, DurationModel())
    assert sched.start_times[-1] >= 300
    early, late = (interaction_graph(c, bucket)
                   for bucket in _bucket_gates(sched, 200.0)[:2])
    assert early.weights[0, 1] == 1
    assert late.weights[0, 1] == 1


def test_barriers_not_in_graph():
    c = Circuit(2).barrier(0, 1).cx(0, 1)
    assert interaction_graph(c, every_gate(c)).weights[0, 1] == 1


def test_graph_counts_only_cx_among_given_gates():
    c = Circuit(3).cx(0, 1).h(0).cx(1, 2).cx(0, 1).rz(2, 0.1)
    g = interaction_graph(c, [1, 2, 4])
    assert g.weights[1, 2] == 1
    assert g.weights[0, 1] == 0
    assert g.total_weight() == 1


# -- spectra ----------------------------------------------------------------

def test_path3_eigenvalues():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1
    vals = laplacian_eigenvalues(InteractionGraph(w), 3)
    assert vals == pytest.approx([0.0, 1.0, 3.0], abs=1e-9)


def test_disconnected_graph_lambda2_zero():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1
    vals = laplacian_eigenvalues(InteractionGraph(w), 2)
    assert vals == pytest.approx([0.0, 0.0], abs=1e-9)


def test_k4_spectrum():
    vals = laplacian_eigenvalues(complete(4), 4)
    assert vals == pytest.approx([0.0, 4.0, 4.0, 4.0], abs=1e-9)


def test_eigenvalues_k_out_of_range():
    with pytest.raises(GraphError):
        laplacian_eigenvalues(complete(3), 4)


def test_psd_smallest_eigenvalue_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        w = np.triu((rng.random((n, n)) < 0.5) * rng.integers(1, 5, (n, n)), 1).astype(float)
        g = InteractionGraph(w + w.T)
        vals = laplacian_eigenvalues(g, n)
        scale = max(np.abs(vals).max(), 1.0)
        assert vals[0] >= -1e-9 * scale


# -- conductance ---------------------------------------------------------------

def test_k4_bisection_conductance():
    p = PartitionVector(np.array([0, 0, 1, 1]), 2)
    phi = conductance(complete(4), p)
    assert phi == pytest.approx([4 / 6, 4 / 6])


def test_disconnected_triangles_conductance_zero():
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1
    p = PartitionVector(np.array([0, 0, 0, 1, 1, 1]), 2)
    assert conductance(InteractionGraph(w), p) == pytest.approx([0.0, 0.0])


def test_bridged_triangles_conductance():
    p = PartitionVector(np.array([0, 0, 0, 1, 1, 1]), 2)
    phi = conductance(two_triangles_with_bridge(), p)
    assert phi == pytest.approx([1 / 7, 1 / 7])


def test_conductance_zero_volume_errors():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1
    p = PartitionVector(np.array([0, 0, 1]), 2)
    with pytest.raises(GraphError):
        conductance(InteractionGraph(w), p)


# -- cheeger screen ----------------------------------------------------------

def test_screen_two_clusters_with_bridges_suitable():
    n = 10
    w = np.zeros((n, n))
    for base in (0, 5):
        for a in range(base, base + 5):
            for b in range(a + 1, base + 5):
                w[a, b] = w[b, a] = 1
    for a, b in [(0, 5), (1, 6)]:
        w[a, b] = w[b, a] = 1
    res = cheeger_screen(InteractionGraph(w), 2, 1.0)
    assert res.suitable and res.lambda_k < 1.0


def test_screen_k8_unsuitable():
    res = cheeger_screen(complete(8), 2, 1.0)
    assert not res.suitable
    assert res.lambda_k == pytest.approx(8.0)


def test_screen_disjoint_clusters_trivially_suitable():
    w = np.zeros((6, 6))
    for base in (0, 3):
        for a in range(base, base + 3):
            for b in range(a + 1, base + 3):
                w[a, b] = w[b, a] = 1
    res = cheeger_screen(InteractionGraph(w), 2, 1.0)
    assert res.suitable and res.lambda_k == pytest.approx(0.0, abs=1e-9)


# -- invariants ---------------------------------------------------------------

def min_bisection_conductance(g: InteractionGraph):
    """Brute-force minimum over balanced bisections of the worse per-side
    conductance; None when every bisection has a zero-volume side."""
    n = g.n
    best = None
    for subset in itertools.combinations(range(n), n // 2):
        labels = np.ones(n, dtype=int)
        labels[list(subset)] = 0
        p = PartitionVector(labels, 2)
        try:
            phi = conductance(g, p)
        except GraphError:
            continue
        worse = max(phi)
        if best is None or worse < best:
            best = worse
    return best


def test_cheeger_direction_on_random_graphs():
    # The easy Cheeger direction holds for the volume-normalized spectrum:
    # lambda2/2 lower-bounds the conductance of every bisection's worse side.
    from dqcc.graphs import normalized_laplacian_eigenvalues
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        if n % 2:
            n += 1
        w = np.triu((rng.random((n, n)) < rng.uniform(0.25, 0.7)), 1).astype(float)
        g = InteractionGraph(w + w.T)
        h = min_bisection_conductance(g)
        if h is None:
            continue
        lam2 = normalized_laplacian_eigenvalues(g, 2)[1]
        assert lam2 / 2 <= h + 1e-9
        checked += 1
    assert checked >= 90


def test_normalized_spectrum_basics():
    from dqcc.graphs import normalized_laplacian_eigenvalues
    vals = normalized_laplacian_eigenvalues(complete(4), 4)
    assert vals == pytest.approx([0, 4 / 3, 4 / 3, 4 / 3])
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1  # vertex 2 isolated
    vals = normalized_laplacian_eigenvalues(InteractionGraph(w), 3)
    assert vals == pytest.approx([0.0, 0.0, 2.0])


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_metrics_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    n = 8
    w = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
    g = InteractionGraph(w + w.T)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    perm = rng.permutation(n)
    pw = g.weights[np.ix_(perm, perm)]
    pg = InteractionGraph(pw)
    plabels = labels[perm]
    p1 = PartitionVector(labels, 2)
    p2 = PartitionVector(plabels, 2)
    try:
        c1, c2 = conductance(g, p1), conductance(pg, p2)
        assert c1 == pytest.approx(c2)
    except GraphError:
        pass


def test_sum_of_quadratic_forms_is_twice_cut():
    g = two_triangles_with_bridge()
    p = PartitionVector(np.array([0, 0, 0, 1, 1, 1]), 2)
    lap = g.laplacian()
    total = sum(p.indicator(j) @ lap @ p.indicator(j) for j in range(2))
    assert total == pytest.approx(2 * 1.0)
