import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dqcc.circuits import GateKind

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "corpus"
CORPUS_NAMES = sorted(p.stem for p in CORPUS_DIR.glob("*.qasm"))
# scripts/make_corpus.py holds the corpus builders
sys.path.insert(0, str(ROOT / "scripts"))


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS_DIR.is_dir(), "bundled corpus missing; run scripts/make_corpus.py"
    return CORPUS_DIR


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / f"{name}.qasm").read_text()


def classical_run(circuit, bits):
    """Propagate a basis bitstring through a reversible x/cx/ccx circuit."""
    bits = list(bits)
    for g in circuit.gates:
        if g.kind == GateKind.X:
            bits[g.qubits[0]] ^= 1
        elif g.kind == GateKind.CX:
            bits[g.qubits[1]] ^= bits[g.qubits[0]]
        elif g.kind == GateKind.CCX:
            a, b, t = g.qubits
            bits[t] ^= bits[a] & bits[b]
        else:
            raise ValueError(f"not classical: {g.kind}")
    return bits


_I2 = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)


def _one_qubit_matrix(kind, params):
    if kind == GateKind.H:
        return _H
    if kind == GateKind.X:
        return _X
    if kind == GateKind.Z:
        return _Z
    if kind == GateKind.S:
        return np.diag([1, 1j])
    if kind == GateKind.SDG:
        return np.diag([1, -1j])
    if kind == GateKind.T:
        return np.diag([1, np.exp(0.25j * math.pi)])
    if kind == GateKind.TDG:
        return np.diag([1, np.exp(-0.25j * math.pi)])
    if kind == GateKind.RZ:
        th = params[0]
        return np.diag([np.exp(-0.5j * th), np.exp(0.5j * th)])
    if kind == GateKind.RX:
        th = params[0]
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    raise ValueError(kind)


def unitary_of(circuit) -> np.ndarray:
    """Kron-embedded circuit unitary; independent of the simulator's in-place
    slice application. Wire 0 is the most significant index bit."""
    n = circuit.num_qubits
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        if g.kind == GateKind.BARRIER:
            continue
        if g.kind == GateKind.CX:
            full = _controlled(n, {g.qubits[0]: 1}, g.qubits[1], _X)
        elif g.kind == GateKind.CCX:
            full = _controlled(n, {g.qubits[0]: 1, g.qubits[1]: 1}, g.qubits[2], _X)
        else:
            mats = [_I2] * n
            mats[g.qubits[0]] = _one_qubit_matrix(g.kind, g.params)
            full = mats[0]
            for m in mats[1:]:
                full = np.kron(full, m)
        u = full @ u
    return u


def _controlled(n, controls, target, gate2):
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - w)) & 1 for w in range(n)]
        if all(bits[c] == v for c, v in controls.items()):
            col = np.zeros(2, dtype=complex)
            col[bits[target]] = 1.0
            out = gate2 @ col
            for tv in (0, 1):
                if out[tv] != 0:
                    j_bits = list(bits)
                    j_bits[target] = tv
                    j = sum(b << (n - 1 - w) for w, b in enumerate(j_bits))
                    full[j, i] += out[tv]
        else:
            full[i, i] = 1.0
    return full


def same_up_to_phase(u, v, tol=1e-9) -> bool:
    k = np.argmax(np.abs(u))
    idx = np.unravel_index(k, u.shape)
    if abs(v[idx]) < 1e-12:
        return False
    phase = u[idx] / v[idx]
    return bool(np.allclose(u, phase * v, atol=tol))
