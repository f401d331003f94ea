#!/usr/bin/env python3
"""Regenerate the bundled benchmark corpus (QASM files + baselines.json).

The bundled circuits are reconstructions of the classic reversible-arithmetic
benchmark families (Toffoli chains, Barenco multiply-controlled gates, GF(2^k)
field multipliers, a Grover search instance, an 8-bit adder, mod-5 oracle, and
a truncated QFT), written out as pre-lowered OpenQASM 2.0 in the Clifford+T
style the suite is normally distributed in. Every Toffoli uses the package's
fixed 6-cx decomposition, so two-qubit totals and trivial-map inter-QPU counts
are deterministic.

`dqcc.bench.PUBLISHED_BASELINES` holds the published per-circuit reference
counts; for most files the reconstruction reproduces them exactly, and
baselines.json says which (`matches_published`). The two exceptions (adder_8,
qft_4) carry their own recorded counts as the baseline of record.

Run: python scripts/make_corpus.py [--out DIR]   (default: the repo's corpus/)
"""
import argparse
import json
import math
import os
from pathlib import Path

from dqcc.bench import PUBLISHED_BASELINES, trivial_qpu_map
from dqcc.circuits import Circuit, GateKind, count_inter_qpu, count_two_qubit, toffoli_sequence
from dqcc.qasm import parse_qasm

# Irreducible polynomials x^k + (middle terms) + 1 for the GF multipliers.
_GF_POLY_MIDDLE = {4: [1], 6: [1], 7: [1], 8: [4, 3, 1], 10: [3]}


def tof_chain(n: int) -> tuple[Circuit, list[tuple[str, int]]]:
    """n-controlled NOT via a clean-ancilla chain: compute partial ANDs down
    the ancilla register, hit the target, then uncompute."""
    anc = list(range(n, 2 * n - 2))
    target = 2 * n - 2
    c = Circuit(2 * n - 1)
    down = [(0, 1, anc[0])]
    for i in range(2, n):
        tgt = target if i == n - 1 else anc[i - 1]
        down.append((i, anc[i - 2], tgt))
    for a, b, t in down + down[-2::-1]:
        c.ccx(a, b, t)
    return c, [("q", 2 * n - 1)]


def barenco_tof(n: int) -> tuple[Circuit, list[tuple[str, int]]]:
    """n-controlled NOT in the Barenco et al. style: two sweeps of a
    V-shaped Toffoli ladder over n-2 ancillas (4(n-2) Toffolis)."""
    anc = list(range(n, 2 * n - 2))
    target = 2 * n - 2
    ladder = [(n - 1, anc[-1], target)]
    for j in range(len(anc) - 1, 0, -1):
        ladder.append((j + 1, anc[j - 1], anc[j]))
    ladder.append((0, 1, anc[0]))
    sweep = ladder + ladder[-2:0:-1]
    c = Circuit(2 * n - 1)
    for a, b, t in sweep + sweep:
        c.ccx(a, b, t)
    return c, [("q", 2 * n - 1)]


def gf_mult(k: int) -> tuple[Circuit, list[tuple[str, int]]]:
    """GF(2^k) multiplier c += a*b mod p(x). Round j adds b_j * (x^j a); the
    running x^j a lives in the a register under a rotating index map, with the
    modular reduction applied in place by CNOTs between rounds (so a finishes
    holding x^(k-1) a mod p)."""
    middle = _GF_POLY_MIDDLE[k]
    c = Circuit(3 * k)
    a = lambda i: i
    b = lambda j: k + j
    out = lambda i: 2 * k + i
    for j in range(k):
        rho = lambda i: (i - j) % k  # coefficient i of x^j a sits on wire rho(i)
        for i in range(k):
            c.ccx(a(rho(i)), b(j), out(i))
        if j < k - 1:
            overflow = a(rho(k - 1))
            for e in middle:
                c.cx(overflow, a(rho(e - 1)))
    return c, [("a", k), ("b", k), ("c", k)]


def grover_5(pattern: int = 0b10101, iterations: int = 4
             ) -> tuple[Circuit, list[tuple[str, int]]]:
    """Grover search over 5 qubits: oracle marks `pattern` via a 5-controlled
    NOT onto a |-> kickback qubit, diffusion inverts about the mean with a
    4-controlled Z; both use the 3-slot ancilla chain."""
    x = list(range(5))
    a = [5, 6, 7]
    t = 8
    c = Circuit(9)
    c.x(t)
    c.h(t)
    for q in x:
        c.h(q)
    flips = [q for q in x if not (pattern >> q) & 1]
    oracle = [(0, 1, a[0]), (2, a[0], a[1]), (3, a[1], a[2]), (4, a[2], t),
              (3, a[1], a[2]), (2, a[0], a[1]), (0, 1, a[0])]
    dchain = [(0, 1, a[0]), (2, a[0], a[1]), (3, a[1], 4), (2, a[0], a[1]), (0, 1, a[0])]
    for _ in range(iterations):
        for q in flips:
            c.x(q)
        for abc in oracle:
            c.ccx(*abc)
        for q in flips:
            c.x(q)
        for q in x:
            c.h(q)
        for q in x:
            c.x(q)
        c.h(4)
        for abc in dchain:
            c.ccx(*abc)
        c.h(4)
        for q in x:
            c.x(q)
        for q in x:
            c.h(q)
    return c, [("q", 9)]


def adder_8() -> tuple[Circuit, list[tuple[str, int]]]:
    """8-bit ripple-carry adder, b += a mod 2^8, with a carry scratch
    register that is computed forward and uncomputed on the way back."""
    n = 8
    c = Circuit(3 * n)
    a = lambda i: i
    b = lambda i: n + i
    carry = lambda i: 2 * n + i
    for i in range(n - 1):
        c.ccx(a(i), b(i), carry(i + 1))
        c.cx(a(i), b(i))
        c.ccx(carry(i), b(i), carry(i + 1))
    c.cx(a(n - 1), b(n - 1))
    c.cx(carry(n - 1), b(n - 1))
    for i in range(n - 2, -1, -1):
        c.ccx(carry(i), b(i), carry(i + 1))
        c.cx(a(i), b(i))
        c.ccx(a(i), b(i), carry(i + 1))
        c.cx(a(i), b(i))
        c.cx(carry(i), b(i))
    return c, [("a", n), ("b", n), ("c", n)]


def mod5_4() -> tuple[Circuit, list[tuple[str, int]]]:
    """Oracle over 4 inputs and one work qubit built from a ring of doubly
    controlled phases plus single-control flips onto the work qubit."""
    c = Circuit(5)
    c.x(4)
    c.h(4)
    for pair in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        c.h(4)
        c.ccx(pair[0], pair[1], 4)
        c.h(4)
    for q in range(4):
        c.cx(q, 4)
    c.h(4)
    return c, [("q", 5)]


def qft_4() -> tuple[Circuit, list[tuple[str, int]]]:
    """QFT over 5 qubits with controlled rotations truncated at order 4,
    followed by the reversal swap network."""
    c = Circuit(5)
    for i in range(5):
        c.h(i)
        for d in (1, 2, 3):
            j = i + d
            if j > 4:
                continue
            theta = math.pi / (1 << d)
            # controlled-phase(theta) on (j, i) in the {rz, cx} basis
            c.rz(j, theta / 2)
            c.cx(j, i)
            c.rz(i, -theta / 2)
            c.cx(j, i)
            c.rz(i, theta / 2)
    for a, b in [(0, 4), (1, 3)]:
        c.cx(a, b)
        c.cx(b, a)
        c.cx(a, b)
    return c, [("q", 5)]


BUILDERS = {
    "tof_3": lambda: tof_chain(3),
    "tof_4": lambda: tof_chain(4),
    "tof_5": lambda: tof_chain(5),
    "tof_10": lambda: tof_chain(10),
    "barenco_tof_3": lambda: barenco_tof(3),
    "barenco_tof_4": lambda: barenco_tof(4),
    "barenco_tof_5": lambda: barenco_tof(5),
    "barenco_tof_10": lambda: barenco_tof(10),
    "gf2_4_mult": lambda: gf_mult(4),
    "gf2_6_mult": lambda: gf_mult(6),
    "gf2_7_mult": lambda: gf_mult(7),
    "gf2_8_mult": lambda: gf_mult(8),
    "gf2_10_mult": lambda: gf_mult(10),
    "grover_5": grover_5,
    "adder_8": adder_8,
    "mod5_4": mod5_4,
    "qft_4": qft_4,
}


def lower_toffolis(circuit: Circuit) -> Circuit:
    """Replace each ccx with the fixed T-style decomposition, leaving all
    other gates (already in file form) untouched."""
    out = Circuit(circuit.num_qubits, circuit.num_bits)
    for g in circuit.gates:
        if g.kind == GateKind.CCX:
            for rep in toffoli_sequence(*g.qubits):
                out.append(rep)
        else:
            out.append(g)
    return out


def _fmt_angle(a: float) -> str:
    if abs(a - math.pi) < 1e-12:
        return "pi"
    if abs(a + math.pi) < 1e-12:
        return "-pi"
    for k in (2, 4, 8, 16, 32):
        if abs(abs(a) - math.pi / k) < 1e-12:
            return ("-pi/%d" if a < 0 else "pi/%d") % k
    return repr(a)


def qasm_text(name: str, circuit: Circuit, regs: list[tuple[str, int]]) -> str:
    """`circuit` as a corpus file, its wires named by the registers `regs`."""
    names = []
    for reg, size in regs:
        names.extend(f"{reg}[{i}]" for i in range(size))
    lines = [f"// {name}", "OPENQASM 2.0;", 'include "qelib1.inc";']
    lines.extend(f"qreg {reg}[{size}];" for reg, size in regs)
    for g in circuit.gates:
        ops = ",".join(names[q] for q in g.qubits)
        if g.params:
            lines.append(f"{g.kind.value}({_fmt_angle(g.params[0])}) {ops};")
        else:
            lines.append(f"{g.kind.value} {ops};")
    return "\n".join(lines) + "\n"


def write_corpus(directory) -> dict:
    """Write every builder's file and baselines.json into `directory`; refuse
    text that does not parse back to the built circuit."""
    os.makedirs(directory, exist_ok=True)
    baselines = {}
    for name in sorted(BUILDERS):
        raw, regs = BUILDERS[name]()
        circuit = lower_toffolis(raw)
        text = qasm_text(name, circuit, regs)
        if parse_qasm(text) != circuit:
            raise RuntimeError(f"{name}: emitted QASM does not parse back to the built circuit")
        with open(os.path.join(directory, f"{name}.qasm"), "w", encoding="utf-8") as fh:
            fh.write(text)
        counts = (circuit.num_qubits, count_two_qubit(circuit),
                  count_inter_qpu(circuit, trivial_qpu_map(circuit.num_qubits)))
        published = PUBLISHED_BASELINES.get(name)
        baselines[name] = {
            "name": name,
            "num_qubits": counts[0],
            "total_2q": counts[1],
            "interqpu_trivial": counts[2],
            "published": list(published) if published else None,
            "matches_published": published == counts,
        }
    with open(os.path.join(directory, "baselines.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "baselines": baselines}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return baselines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "corpus"))
    args = parser.parse_args()
    baselines = write_corpus(args.out)
    matched = sum(1 for rec in baselines.values() if rec["matches_published"])
    print(f"wrote {len(baselines)} circuits to {args.out} "
          f"({matched} match the published counts exactly)")


if __name__ == "__main__":
    main()
