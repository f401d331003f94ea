"""Circuit families for the benchmark, written as lowered OpenQASM 2.0 text.

The generator is the benchmark's own, independent of `dqcc.corpusgen`, so the
inputs do not change when the compiler under test changes. At the bundled
sizes it must reproduce `corpus/tof_*`, `corpus/barenco_tof_*` and
`corpus/gf2_*_mult` gate for gate; `measure.py` checks that before timing.

Every Toffoli is written as the fixed 15-gate, 6-cx Clifford+T sequence the
bundled files use, so each family's two-qubit count has a closed form.
"""
from __future__ import annotations

from itertools import combinations

# (kind, operands): kind is "ccx" or "cx"; operands index one flat register.
Step = tuple[str, tuple[int, ...]]


def _degree(p: int) -> int:
    return p.bit_length() - 1


def _polymod(a: int, m: int) -> int:
    dm = _degree(m)
    while a and _degree(a) >= dm:
        a ^= m << (_degree(a) - dm)
    return a


def _polymulmod(a: int, b: int, m: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a = _polymod(a << 1, m)
    return out


def _polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def is_irreducible(p: int) -> bool:
    """Ben-Or's test over GF(2): p of degree k is irreducible iff
    gcd(x^(2^i) - x mod p, p) = 1 for i = 1 .. k/2."""
    k = _degree(p)
    if k < 1 or not p & 1:
        return k == 1
    x = 0b10
    power = x
    for _ in range(k // 2):
        power = _polymulmod(power, power, p)
        if _polygcd(p, power ^ x) != 1:
            return False
    return True


def gf_poly_middle(k: int) -> list[int]:
    """Middle exponents of the lowest-weight irreducible x^k + ... + 1,
    ties broken by the smallest polynomial read as a binary number. For the
    bundled k this is the table the corpus was written with."""
    for weight in range(1, k):
        found = None
        for middle in combinations(range(1, k), weight):
            p = (1 << k) | 1
            for e in middle:
                p |= 1 << e
            if is_irreducible(p) and (found is None or p < found[0]):
                found = (p, sorted(middle, reverse=True))
        if found:
            return found[1]
    raise ValueError(f"no irreducible polynomial of degree {k}")


def tof_chain(n: int) -> tuple[int, list[Step]]:
    """n-controlled NOT through a clean-ancilla chain, computed and
    uncomputed: 2n-3 Toffolis on 2n-1 qubits."""
    anc = list(range(n, 2 * n - 2))
    target = 2 * n - 2
    down = [(0, 1, anc[0])]
    for i in range(2, n):
        down.append((i, anc[i - 2], target if i == n - 1 else anc[i - 1]))
    return 2 * n - 1, [("ccx", t) for t in down + down[-2::-1]]


def barenco_tof(n: int) -> tuple[int, list[Step]]:
    """n-controlled NOT as two sweeps of a V-shaped Toffoli ladder over n-2
    ancillas: 4(n-2) Toffolis on 2n-1 qubits."""
    anc = list(range(n, 2 * n - 2))
    ladder = [(n - 1, anc[-1], 2 * n - 2)]
    for j in range(len(anc) - 1, 0, -1):
        ladder.append((j + 1, anc[j - 1], anc[j]))
    ladder.append((0, 1, anc[0]))
    sweep = ladder + ladder[-2:0:-1]
    return 2 * n - 1, [("ccx", t) for t in sweep + sweep]


def gf_mult(k: int) -> tuple[int, list[Step]]:
    """GF(2^k) multiplier c += a*b mod p(x): k^2 Toffolis, plus one cx per
    middle term of p between rounds to reduce x^j a in place."""
    middle = gf_poly_middle(k)
    ops: list[Step] = []
    for j in range(k):
        rho = [(i - j) % k for i in range(k)]
        ops.extend(("ccx", (rho[i], k + j, 2 * k + i)) for i in range(k))
        if j < k - 1:
            ops.extend(("cx", (rho[k - 1], rho[e - 1])) for e in middle)
    return 3 * k, ops


FAMILIES = {"tof": tof_chain, "barenco_tof": barenco_tof, "gf2": gf_mult}


def circuit_name(family: str, n: int) -> str:
    return f"gf2_{n}_mult" if family == "gf2" else f"{family}_{n}"


def expected_two_qubit(family: str, n: int) -> int:
    """Closed-form two-qubit count of the lowered circuit."""
    if family == "tof":
        return 6 * (2 * n - 3)
    if family == "barenco_tof":
        return 6 * 4 * (n - 2)
    return 6 * n * n + (n - 1) * len(gf_poly_middle(n))


def _toffoli(a: int, b: int, t: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("h", (t,)), ("cx", (b, t)), ("tdg", (t,)), ("cx", (a, t)),
            ("t", (t,)), ("cx", (b, t)), ("tdg", (t,)), ("cx", (a, t)),
            ("t", (b,)), ("t", (t,)), ("h", (t,)), ("cx", (a, b)),
            ("t", (a,)), ("tdg", (b,)), ("cx", (a, b))]


def qasm(family: str, n: int) -> str:
    """Lowered QASM text of one family member, in the bundled files' form."""
    num_qubits, ops = FAMILIES[family](n)
    if family == "gf2":
        regs = [("a", n), ("b", n), ("c", n)]
    else:
        regs = [("q", num_qubits)]
    names = [f"{reg}[{i}]" for reg, size in regs for i in range(size)]
    lines = [f"// {circuit_name(family, n)}", "OPENQASM 2.0;", 'include "qelib1.inc";']
    lines.extend(f"qreg {reg}[{size}];" for reg, size in regs)
    for kind, qubits in ops:
        for gk, gq in (_toffoli(*qubits) if kind == "ccx" else [(kind, qubits)]):
            lines.append(f"{gk} {','.join(names[q] for q in gq)};")
    return "\n".join(lines) + "\n"
