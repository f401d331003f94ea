"""Weighted interaction graphs, Laplacian spectra, and clustering quality
metrics (conductance, spectral screening)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateKind


class GraphError(ValueError):
    pass


@dataclass
class InteractionGraph:
    """Symmetric nonnegative weight matrix over qubits/vertices. Entry (i, j)
    counts two-qubit gates between i and j (or coupling multiplicity for a
    hardware graph)."""
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise GraphError("weight matrix must be square")
        if not (np.array_equal(w, w.T) or np.allclose(w, w.T, atol=1e-12)):
            raise GraphError("weight matrix must be symmetric")
        if np.any(np.diag(w) != 0):
            raise GraphError("weight matrix must have zero diagonal")
        if np.any(w < 0):
            raise GraphError("weights must be nonnegative")
        self.weights = w

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees()) - self.weights

    def total_weight(self) -> float:
        return float(self.weights.sum() / 2)


@dataclass
class PartitionVector:
    """Vertex -> cluster id in [0, k)."""
    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.k < 1:
            raise GraphError("k must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise GraphError("cluster labels out of range")

    def indicator(self, j: int) -> np.ndarray:
        return (self.labels == j).astype(float)

    def sizes(self) -> list[int]:
        return [int(np.sum(self.labels == j)) for j in range(self.k)]


def interaction_graph(circuit: Circuit, gates) -> InteractionGraph:
    """Qubit interaction graph of the cx gates among the given gate indices.
    Barriers and single-qubit gates contribute nothing."""
    n = circuit.num_qubits
    w = np.zeros((n, n))
    for i in gates:
        gate = circuit.gates[i]
        if gate.kind == GateKind.CX:
            a, b = gate.qubits
            w[a, b] += 1
            w[b, a] += 1
    return InteractionGraph(w)


def circuit_graph(circuit: Circuit) -> InteractionGraph:
    """Interaction graph of every gate of the circuit."""
    return interaction_graph(circuit, range(len(circuit.gates)))


def laplacian_eigenvalues(graph: InteractionGraph, k: int) -> np.ndarray:
    """The k smallest Laplacian eigenvalues, ascending."""
    if not 1 <= k <= graph.n:
        raise GraphError(f"k={k} out of range for n={graph.n}")
    vals = np.linalg.eigvalsh(graph.laplacian())
    return vals[:k]


def normalized_laplacian_eigenvalues(graph: InteractionGraph, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the volume-normalized Laplacian
    D^{-1/2} (D - A) D^{-1/2}, ascending. Isolated vertices contribute
    eigenvalue 0 (each is its own component). This is the spectrum the
    two-sided Cheeger relation for conductance is stated in."""
    if not 1 <= k <= graph.n:
        raise GraphError(f"k={k} out of range for n={graph.n}")
    deg = graph.degrees()
    support = deg > 0
    vals = [0.0] * int(np.sum(~support))
    if np.any(support):
        d = deg[support]
        a = graph.weights[np.ix_(support, support)]
        inv_sqrt = 1.0 / np.sqrt(d)
        norm_lap = np.eye(len(d)) - (a * inv_sqrt[:, None]) * inv_sqrt[None, :]
        vals.extend(np.linalg.eigvalsh(norm_lap).tolist())
    return np.array(sorted(vals)[:k])


def fiedler_vector(graph: InteractionGraph) -> np.ndarray:
    """Eigenvector of the second-smallest Laplacian eigenvalue, with a fixed
    sign convention (first component of largest magnitude made positive)."""
    if graph.n < 2:
        raise GraphError("need at least 2 vertices")
    _, vecs = np.linalg.eigh(graph.laplacian())
    v = vecs[:, 1]
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return v


def conductance(graph: InteractionGraph, partition: PartitionVector) -> np.ndarray:
    """Per-cluster conductance: cut weight out of cluster j over its volume,
    (v_j' L v_j) / (v_j' D v_j)."""
    lap = graph.laplacian()
    deg = graph.degrees()
    out = np.zeros(partition.k)
    for j in range(partition.k):
        v = partition.indicator(j)
        vol = float(deg @ v)
        if vol <= 0:
            raise GraphError(f"cluster {j} has zero volume")
        out[j] = float(v @ lap @ v) / vol
    return out


@dataclass(frozen=True)
class ScreenResult:
    suitable: bool
    lambda_k: float
    threshold: float


def cheeger_screen(graph: InteractionGraph, k: int, threshold: float) -> ScreenResult:
    """Quick suitability check for clustering into k parts: the k-th smallest
    Laplacian eigenvalue upper-bounds how well-clustered the graph can be, so
    a small lambda_k certifies suitability without searching partitions."""
    lam = float(laplacian_eigenvalues(graph, k)[-1])
    # 1e-9 relative slack: eigvalsh may return an exact threshold a few ulps high
    return ScreenResult(lam <= threshold + 1e-9 * abs(threshold), lam, threshold)
