"""Small-scale statevector oracle with exhaustive measurement branching.

Measurements fork the state into explicit branches so every classically
controlled correction path is simulated literally. Branch counts grow as
2^measurements, which is exactly what the gadget-level checks need; the
equivalence checker additionally coalesces branches that have reconverged to
the same physical state once their classical bits are dead, keeping deep
compiled circuits tractable.

Each branch also tracks the wires known to be in a computational basis state
(EPR reservoir slots spend most of a compiled circuit in |0>). Amplitudes off
that slice are exactly zero, so a branch stores the slice alone, one axis per
other wire; a gate that takes a fixed wire out of its basis state widens the
slice by that wire. `simulate` and the equivalence check read the dense state
back from the slice.

The equivalence check splits its input columns into contiguous blocks by
problem size and runs them on threads, one per usable CPU at most.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Gate, GateKind

MAX_QUBITS = 14
PRUNE_TOL = 1e-12


class SimulationError(ValueError):
    pass


def _rx(theta: float) -> np.ndarray:
    """exp(-i theta X / 2), as `rx` is defined in qelib1.inc."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Diagonal single-qubit gates as (d0, d1) pairs; rz's comes from its angle.
_PHASES = {GateKind.Z: (1, -1), GateKind.S: (1, 1j), GateKind.SDG: (1, -1j),
           GateKind.T: (1, np.exp(0.25j * math.pi)), GateKind.TDG: (1, np.exp(-0.25j * math.pi))}


@dataclass
class BranchState:
    """One measurement branch. `fixed` maps wires known to be in a
    computational basis state to that value. Every amplitude off the slice
    where each of them holds its value is exactly zero, so `state` stores
    that slice alone: one axis per other wire, in wire order, then the batch
    axis (`simulate` hands branches back with `state` dense, (2**n, batch)).
    `state` is unnormalized: its squared norm is the branch probability (per
    input column in batched mode), which `probability` caches."""
    state: np.ndarray          # shape (2,) * (n - len(fixed)) + (batch,)
    bits: dict[int, int] = field(default_factory=dict)
    fixed: dict[int, int] = field(default_factory=dict)
    probability: np.ndarray | None = None

    def __post_init__(self):
        if self.probability is None:
            self.probability = _mass(self.state)


def _mass(block: np.ndarray) -> np.ndarray:
    """Squared norm of each batch column (the trailing axis) of a block."""
    # The batch axis is contiguous, so the block reads as interleaved real
    # and imaginary parts; einsum sums their squares without a temporary.
    parts = block.view(np.float64)
    axes = list(range(parts.ndim))
    sq = np.einsum(parts, axes, parts, axes, axes[-1:])
    return sq[0::2] + sq[1::2]


def _view(state: np.ndarray, n: int, fixed: dict[int, int]) -> np.ndarray:
    """The slice of a dense `state` where each wire in `fixed` holds its
    value: a view with one axis per other wire, in wire order, then the
    batch axis."""
    idx: list = [slice(None)] * (n + 1)
    for axis, val in fixed.items():
        idx[axis] = val
    return state.reshape((2,) * n + (-1,))[tuple(idx)]


def _live(br: BranchState, extra: dict[int, int] | None = None) -> np.ndarray:
    """The stored slice of `br`, restricted further by `extra` (values for
    wires that are not fixed). Wire w is axis w - #{fixed wires < w}."""
    idx: list = [slice(None)] * br.state.ndim
    for w, val in (extra or {}).items():
        idx[w - sum(f < w for f in br.fixed)] = val
    return br.state[tuple(idx)]


def _unfix(br: BranchState, wires: list[int]) -> None:
    """Turn the fixed `wires` back into axes of the stored slice, with zeros
    where they take their other value."""
    vals = {w: br.fixed.pop(w) for w in wires}
    old = br.state
    br.state = np.zeros((2,) * (old.ndim - 1 + len(vals)) + old.shape[-1:], dtype=complex)
    _live(br, vals)[...] = old


def _dense(br: BranchState, n: int) -> np.ndarray:
    """The branch's (2**n, batch) state: its stored slice, zeros elsewhere."""
    state = np.zeros((1 << n, br.state.shape[-1]), dtype=complex)
    _view(state, n, br.fixed)[...] = br.state
    return state


def _basis_wires(state: np.ndarray, n: int) -> dict[int, int]:
    """Wires whose 1-slice (else 0-slice) of a dense `state` is exactly
    zero, with the value they hold."""
    fixed: dict[int, int] = {}
    for w in range(n):
        for val in (0, 1):
            if not _view(state, n, {**fixed, w: 1 - val}).any():
                fixed[w] = val
                break
    return fixed


def _unitary_1q(br: BranchState, q: int, u: np.ndarray) -> None:
    """Dense single-qubit gate u on wire q, in place."""
    val = br.fixed.get(q)
    if val is not None:
        # q leaves the fixed set; its other half was exactly zero.
        _unfix(br, [q])
        a, other = _live(br, {q: val}), _live(br, {q: 1 - val})
        np.multiply(a, u[1 - val, val], out=other)
        a *= u[val, val]
        return
    a0, a1 = _live(br, {q: 0}), _live(br, {q: 1})
    new0 = u[0, 0] * a0
    new0 += u[0, 1] * a1
    a1 *= u[1, 1]
    a1 += u[1, 0] * a0
    a0[...] = new0


def _phase_1q(br: BranchState, q: int, d: tuple[complex, complex]) -> None:
    """Diagonal single-qubit gate diag(d) on wire q, in place."""
    val = br.fixed.get(q)
    if val is not None:
        if d[val] != 1:
            a = _live(br)
            a *= d[val]
        return
    for bit in (0, 1):
        if d[bit] != 1:
            a = _live(br, {q: bit})
            a *= d[bit]


def _controlled_x(br: BranchState, t: int, controls: tuple[int, ...] = ()) -> None:
    """X on wire t wherever every wire in `controls` is 1."""
    live = {}
    for c in controls:
        val = br.fixed.get(c)
        if val == 0:
            return  # a control fixed at 0: the gate does nothing
        if val is None:
            live[c] = 1  # a control fixed at 1 drops out
    val = br.fixed.get(t)
    if val is None:
        a0, a1 = _live(br, {**live, t: 0}), _live(br, {**live, t: 1})
        tmp = a0.copy()
        a0[...] = a1
        a1[...] = tmp
    elif not live:
        br.fixed[t] = 1 - val  # every control fixed at 1: the target flips
    else:
        # The target leaves the fixed set: move the controlled part across.
        _unfix(br, [t])
        src, dst = _live(br, {**live, t: val}), _live(br, {**live, t: 1 - val})
        dst[...] = src
        src.fill(0)


def _measure(br: BranchState, q: int, b: int) -> list[BranchState]:
    """Split `br` by the outcome of measuring wire q into bit b. Each kept
    outcome stores a copy of its own half."""
    val = br.fixed.get(q)
    if val is not None:
        if np.max(br.probability) < PRUNE_TOL:
            return []
        br.bits = {**br.bits, b: val}
        return [br]
    out = []
    for v in (0, 1):
        half = _live(br, {q: v})
        mass = _mass(half)
        if np.max(mass) >= PRUNE_TOL:
            out.append(BranchState(half.copy(), {**br.bits, b: v}, {**br.fixed, q: v}, mass))
    return out


class _Runner:
    def __init__(self, circuit: Circuit, merge: bool = False):
        if circuit.num_qubits > MAX_QUBITS:
            raise SimulationError(
                f"{circuit.num_qubits} qubits exceeds the {MAX_QUBITS}-qubit simulator cap")
        self.circuit = circuit
        self.n = circuit.num_qubits
        self.merge = merge
        # Bit liveness: a branch merge may only collapse branches whose still
        # readable bits agree. Bit b is live after gate i if some gate > i
        # conditions on it.
        self.live_after: list[tuple[int, ...]] = []
        live: set[int] = set()
        for g in reversed(circuit.gates):
            self.live_after.append(tuple(sorted(live)))
            if g.kind in (GateKind.CC_X, GateKind.CC_Z):
                live.add(g.bits[0])
        self.live_after.reverse()

    def initial_state(self, initial) -> np.ndarray:
        dim = 1 << self.n
        if initial is None or isinstance(initial, int):
            index = initial or 0
            if not 0 <= index < dim:
                raise SimulationError(f"basis index {index} out of range")
            state = np.zeros((dim, 1), dtype=complex)
            state[index, 0] = 1.0
            return state
        arr = np.asarray(initial, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[0] != dim:
            raise SimulationError(f"state has dimension {arr.shape[0]}, expected {dim}")
        return arr

    def run(self, initial=None) -> list[BranchState]:
        return self.evolve(self.initial_state(initial))

    def evolve(self, state: np.ndarray) -> list[BranchState]:
        """Run on the dense `state` of shape (2**n, batch), which is left
        unchanged. The first branch copies its live slice and the dense input
        is dropped before the first gate."""
        fixed = _basis_wires(state, self.n)
        branches = [BranchState(_view(state, self.n, fixed).copy(), fixed=fixed)]
        del state
        for i, gate in enumerate(self.circuit.gates):
            branches = self._step(branches, gate)
            if self.merge and gate.kind in (GateKind.MEASURE, GateKind.CC_X, GateKind.CC_Z):
                branches = self._merge(branches, self.live_after[i])
        return branches

    def _step(self, branches: list[BranchState], gate: Gate) -> list[BranchState]:
        kind = gate.kind
        if kind == GateKind.BARRIER:
            return branches
        if kind == GateKind.MEASURE:
            return [child for br in branches
                    for child in _measure(br, gate.qubits[0], gate.bits[0])]
        for br in branches:
            if kind == GateKind.H:
                _unitary_1q(br, gate.qubits[0], _H)
            elif kind == GateKind.RX:
                _unitary_1q(br, gate.qubits[0], _rx(gate.params[0]))
            elif kind == GateKind.RZ:
                theta = gate.params[0]
                _phase_1q(br, gate.qubits[0], (np.exp(-0.5j * theta), np.exp(0.5j * theta)))
            elif kind in _PHASES:
                _phase_1q(br, gate.qubits[0], _PHASES[kind])
            elif kind == GateKind.X:
                _controlled_x(br, gate.qubits[0])
            elif kind == GateKind.CX:
                c, t = gate.qubits
                _controlled_x(br, t, (c,))
            elif kind == GateKind.CCX:
                a, b, t = gate.qubits
                _controlled_x(br, t, (a, b))
            elif kind == GateKind.CC_X:
                if br.bits.get(gate.bits[0], 0) == 1:
                    _controlled_x(br, gate.qubits[0])
            elif kind == GateKind.CC_Z:
                if br.bits.get(gate.bits[0], 0) == 1:
                    _phase_1q(br, gate.qubits[0], (1, -1))
            else:
                raise SimulationError(f"unsupported gate kind {kind.value}")
        return branches

    def _parallel(self, a: BranchState, b: BranchState) -> bool:
        lim = np.sqrt(a.probability) * np.sqrt(b.probability)
        floor = lim - 1e-10 * np.maximum(lim, 1e-30)
        if any(b.fixed.get(w, v) != v for w, v in a.fixed.items()):
            # Disjoint slices: every dot product is exactly 0.
            return bool(np.all(floor <= 0))
        # Restrict each branch by the other's fixed wires.
        va = _live(a, {w: v for w, v in b.fixed.items() if w not in a.fixed})
        vb = _live(b, {w: v for w, v in a.fixed.items() if w not in b.fixed})
        # Reject on the column with the most mass before the full pass.
        j = int(np.argmax(lim))
        if abs(np.sum(np.conj(va[..., j]) * vb[..., j])) < floor[j]:
            return False
        dots = np.abs(np.sum(np.conj(va) * vb, axis=tuple(range(va.ndim - 1))))
        return bool(np.all(dots >= floor))

    def _merge(self, branches: list[BranchState], live: tuple[int, ...]) -> list[BranchState]:
        if len(branches) < 2:
            return branches
        merged: list[BranchState] = []
        by_sig: dict[tuple[int, ...], list[BranchState]] = {}
        for br in branches:
            bucket = by_sig.setdefault(tuple(br.bits.get(b, 0) for b in live), [])
            hit = next((other for other in bucket if self._parallel(other, br)), None)
            if hit is None:
                bucket.append(br)
                merged.append(br)
            else:
                self._fold(hit, br)
        return merged

    def _fold(self, hit: BranchState, br: BranchState) -> None:
        """Same physical state and indistinguishable bit future: fold br's
        probability mass into the representative column-wise."""
        pa, pb = hit.probability, br.probability
        dead = pa < PRUNE_TOL
        scale = np.sqrt(np.where(dead, 1.0, (pa + pb) / np.maximum(pa, PRUNE_TOL)))
        a = _live(hit)
        a *= scale
        if np.any(dead):
            # br's columns come in whole: keep the wires both fix alike.
            _unfix(hit, [w for w, v in hit.fixed.items() if br.fixed.get(w) != v])
            _live(hit)[..., dead] = 0
            extra = {w: v for w, v in br.fixed.items() if w not in hit.fixed}
            _live(hit, extra)[..., dead] = br.state[..., dead]
        hit.probability = np.where(dead, pb, pa + pb)


def simulate(circuit: Circuit, initial=None) -> list[BranchState]:
    """Run with exhaustive measurement branching; zero-probability branches
    are pruned. Returns one BranchState per surviving branch, its `state`
    dense, of shape (2**n, batch)."""
    branches = _Runner(circuit).run(initial)
    for br in branches:
        br.state = _dense(br, circuit.num_qubits)
    return branches


def trim_idle_wires(circuit: Circuit, keep=()) -> tuple[Circuit, dict[int, int]]:
    """Drop wires no gate touches (except those in `keep`), remapping indices.
    Returns the smaller circuit and the old->new wire map."""
    used = set(keep)
    for g in circuit.gates:
        used.update(g.qubits)
    order = sorted(used)
    remap = {old: new for new, old in enumerate(order)}
    out = Circuit(len(order), circuit.num_bits)
    for g in circuit.gates:
        out.append(Gate(g.kind, tuple(remap[q] for q in g.qubits), g.params, g.bits))
    return out, remap


def spanning_inputs(k: int) -> np.ndarray:
    """Input battery for equivalence checking, as columns: all 2^k
    computational basis states, then the six axis states' k-fold products
    |0..0>, |1..1>, |+..+>, |-..->, |+i..+i>, |-i..-i>."""
    r2 = 1 / math.sqrt(2)
    axes = [[1, 0], [0, 1], [r2, r2], [r2, -r2], [r2, 1j * r2], [r2, -1j * r2]]
    return np.column_stack([np.eye(1 << k, dtype=complex)] + [
        functools.reduce(np.kron, [np.array(a, dtype=complex)] * k, np.ones(1, dtype=complex))
        for a in axes])


def _wire_block(state: np.ndarray, n: int, wires: list[int]) -> np.ndarray:
    """The block of `state` where every wire not in `wires` is 0: a view with
    one axis per wire of `wires`, in that order, then the batch axis."""
    block = _view(state, n, {w: 0 for w in range(n) if w not in wires})
    ascending = sorted(wires)  # the view's axes are in wire order
    return block.transpose(*[ascending.index(w) for w in wires], len(wires))


def _embed_columns(cols: np.ndarray, n: int, wires: list[int]) -> np.ndarray:
    """Place k-qubit column states onto the given wires of an n-wire register,
    all other wires in |0>."""
    state = np.zeros(((1 << n), cols.shape[1]), dtype=complex)
    _wire_block(state, n, wires)[...] = cols.reshape((2,) * len(wires) + (-1,))
    return state


def _extract_columns(state: np.ndarray, n: int,
                     wires: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of _embed_columns: the columns on `wires`, with every other
    wire at 0. Returns (reduced, residual mass outside the block, total mass),
    the masses per column and summed over the whole state."""
    reduced = _wire_block(state, n, wires).reshape((1 << len(wires), -1))
    total = _mass(state)
    return reduced, total - _mass(reduced), total


@dataclass
class EquivalenceReport:
    equivalent: bool
    worst_fidelity: float
    failing_input: int | None = None
    failing_bits: dict[int, int] | None = None
    detail: str = ""


def equivalence_report(reference: Circuit, candidate: Circuit, *, tol: float = 1e-9,
                       candidate_in_wires=None, candidate_out_wires=None) -> EquivalenceReport:
    """Check that every measurement branch of `candidate` acts like
    `reference` on its qubits, up to global phase, over the fixed spanning
    input set. The candidate reads reference qubit j from wire
    `candidate_in_wires[j]` and leaves it on `candidate_out_wires[j]`
    (default: wire j). `candidate` may use extra ancilla wires and classical
    bits; ancillas must start and end in |0>. `tol` must lie in [0, 1)."""
    if not 0 <= tol < 1:
        raise SimulationError(f"tol must lie in [0, 1), got {tol}")
    k = reference.num_qubits
    c_in = list(candidate_in_wires) if candidate_in_wires is not None else list(range(k))
    c_out = list(candidate_out_wires) if candidate_out_wires is not None else list(c_in)

    cand, remap = trim_idle_wires(candidate, keep=set(c_in) | set(c_out))
    c_in = [remap[w] for w in c_in]
    c_out = [remap[w] for w in c_out]

    if any(g.kind == GateKind.MEASURE for g in reference.gates):
        raise SimulationError("reference circuit must be measurement-free")

    cols = spanning_inputs(k)
    ref_out = _dense(_Runner(reference).evolve(cols)[0], k)

    # Each column block runs as its own problem. The runner acts on every
    # column separately except in the merge test, which on fewer columns
    # merges at least whenever the full test would and folds each column
    # only where that column is parallel; so the verdict is the same for any
    # split. The split depends on the problem size alone; the CPU count only
    # sets how many blocks run at once (numpy releases the GIL in the kernels).
    runner = _Runner(cand, merge=True)

    def check(span: tuple[int, int]):
        lo, hi = span
        branches = runner.evolve(_embed_columns(cols[:, lo:hi], cand.num_qubits, c_in))
        return _check_block(branches, ref_out[:, lo:hi], cand.num_qubits, c_out, tol, lo)

    spans = _column_blocks(cand.num_qubits, cols.shape[1])
    workers = min(len(spans), _usable_cpus())
    if workers == 1:
        parts = [check(span) for span in spans]
    else:
        # Imported here: only split problems use it, and it adds to start-up time.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(check, spans))

    for failure, _, _ in parts:
        if failure is not None:
            return failure
    worst = min(block_worst for _, block_worst, _ in parts)
    total_mass = np.concatenate([mass for _, _, mass in parts])
    if float(np.max(np.abs(total_mass - 1.0))) > 1e-9:
        return EquivalenceReport(False, worst, int(np.argmax(np.abs(total_mass - 1.0))),
                                 None, "branch probabilities do not sum to 1")
    return EquivalenceReport(True, worst)


# Amplitudes of the dense register per column block: 8 MiB of complex128,
# an upper bound on the slice any branch stores.
_BLOCK_AMPLITUDES = 1 << 19


def _column_blocks(n: int, batch: int) -> list[tuple[int, int]]:
    """Split `batch` input columns on an n-wire register into contiguous
    (lo, hi) spans, one per _BLOCK_AMPLITUDES amplitudes. The split depends
    on the problem size only, so a report does not depend on the machine."""
    blocks = max(1, (batch << n) // _BLOCK_AMPLITUDES)
    return [(i * batch // blocks, (i + 1) * batch // blocks) for i in range(blocks)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_block(branches: list[BranchState], ref_out: np.ndarray, n: int,
                 c_out: list[int], tol: float,
                 offset: int) -> tuple[EquivalenceReport | None, float, np.ndarray]:
    """Check the final branches of one column block against the reference
    outputs of the same columns; `offset` is the block's first column.
    Returns (the failure report or None, worst branch fidelity, total mass
    per column)."""
    worst = 1.0
    total_mass = np.zeros(ref_out.shape[1])
    for br in branches:
        # The mass is summed afresh, not taken from the branch's cache.
        reduced, resid, mass = _extract_columns(_dense(br, n), n, c_out)
        total_mass += mass
        bad = resid > tol * np.maximum(mass, 1.0)
        if np.any(bad):
            col = offset + int(np.argmax(bad))
            return (EquivalenceReport(False, 0.0, col, dict(br.bits),
                                      "amplitude left on ancilla/EPR wires"), 0.0, total_mass)
        # branch fidelity per input column
        dots = np.abs(np.sum(np.conj(ref_out) * reduced, axis=0)) ** 2
        denom = np.sum(np.abs(ref_out) ** 2, axis=0) * np.maximum(
            np.sum(np.abs(reduced) ** 2, axis=0), PRUNE_TOL ** 2)
        live = mass > PRUNE_TOL
        fid = np.where(live, dots / np.maximum(denom, PRUNE_TOL ** 2), 1.0)
        wi = int(np.argmin(fid))
        if fid[wi] < worst:
            worst = float(fid[wi])
        if worst < 1 - tol:
            return (EquivalenceReport(False, worst, offset + wi, dict(br.bits),
                                      f"branch fidelity {worst:.3e} below 1-tol"),
                    worst, total_mass)
    return None, worst, total_mass
