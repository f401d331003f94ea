"""The benchmark's workloads, each a list of operations that makes one pass.

An operation compiles one QASM text the way `dqcc compile` does. A verify
operation then checks the output with the oracle the way `dqcc verify` does
and expects EQUIVALENT. A refute operation first breaks one remote-CNOT
gadget of the output and expects NOT EQUIVALENT. Why each workload exists,
and which layer it should and should not move, is written in BENCHMARK.json.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from dqcc.bench import CompileResult, compile_circuit
from dqcc.circuits import Circuit, Gate, GateKind
from dqcc.qasm import parse_qasm

import gen

# The bundled circuits with at most 9 data qubits.
VERIFY_SMALL = ["tof_3", "tof_4", "tof_5", "barenco_tof_3", "barenco_tof_4",
                "barenco_tof_5", "mod5_4", "qft_4", "grover_5"]
# 5-qubit circuits whose every remote-CNOT gadget is mutated. The many cheap
# refutations hold refute_s.p50 in place from seed to seed; the oracle, not
# the compile step, is most of each one's time.
EXHAUSTIVE_MUTANTS = ["mod5_4", "qft_4"]
# One seeded mutant each; tof_5 is the 9-qubit one.
SEEDED_MUTANTS = ["tof_4", "barenco_tof_4", "tof_5"]

# Windows far shorter than the default EPR period (200): tens to ~200
# windows per circuit, so the local pass re-partitions many small graphs.
SHORT_DTS = (16.0, 8.0)
COMPILE_SEEDS = 3

# compile-scale takes one size from each narrow stratum, all larger than
# anything bundled. Each family's largest stratum gives its top size; below
# it the strata alternate between their low and high ends, and the seed
# draws which end comes first. Every seed thus sees the same spread of sizes
# but not the same circuits. The count metrics are sums dominated by the
# largest circuits: over any ten seeds their quartile distance stays under
# 2.5% of their median, where an independent draw per stratum reaches 7%.
SCALE_STRATA = {
    "tof": [(n - 1, n) for n in range(15, 61, 5)],
    "barenco_tof": [(n - 1, n) for n in range(15, 61, 5)],
    "gf2": [(k - 1, k) for k in range(12, 31, 3)] + [(31, 32)],
}
# compile-windows verifies the 5-qubit circuits at the short windows, which
# exercises teleport and exchange gadgets.
SHORT_DT_VERIFY = ["tof_3", "barenco_tof_3", "mod5_4", "qft_4"]
# The smallest member of each generated family, small enough for the oracle.
SCALE_VERIFY = [("tof", 3), ("barenco_tof", 3), ("gf2", 2)]
# The compile workloads' mutants: every gadget of the two cheapest circuits,
# which keeps the oracle a small share of those workloads.
PROBE_MUTANTS = ["tof_3", "barenco_tof_3"]


@dataclass(frozen=True)
class Op:
    kind: str                 # "compile", "verify" or "refute"
    name: str
    text: str
    dt: float | None
    seed: int
    total_2q: int             # expected two-qubit count of the lowered input
    interqpu_trivial: int | None  # expected trivial-map count, bundled inputs only
    mutant: int | None = None     # which remote-CNOT gadget a refute breaks

    @property
    def key(self) -> tuple:
        return (self.name, self.dt, self.seed)


def gadget_corrections(result: CompileResult) -> list[int]:
    """Indices of the cc_z corrections of remote-CNOT gadgets: a cc_z whose
    target is a data wire. Teleport and exchange gadgets correct EPR slots."""
    hw = result.hw
    return [i for i, g in enumerate(result.expanded.circuit.gates)
            if g.kind == GateKind.CC_Z and not hw.is_epr_wire(g.qubits[0])]


def mutate(result: CompileResult, ordinal: int) -> Circuit:
    """The expanded circuit with one remote-CNOT gadget's cc_z turned into a
    cc_x on the same wire and bit. In the branch where that bit is 1 the
    control picks up X.Z instead of the identity, so the known answer is
    NOT EQUIVALENT."""
    index = gadget_corrections(result)[ordinal]
    circuit = result.expanded.circuit.copy()
    g = circuit.gates[index]
    circuit.gates[index] = Gate(GateKind.CC_X, g.qubits, g.params, g.bits)
    return circuit


def _bundled(corpus: Path, kind: str, names: list[str], dts, seeds) -> list[Op]:
    baselines = json.loads((corpus / "baselines.json").read_text())["baselines"]
    return [Op(kind, name, (corpus / f"{name}.qasm").read_text(), dt, seed,
               baselines[name]["total_2q"], baselines[name]["interqpu_trivial"])
            for name in names for dt in dts for seed in seeds]


def _generated(kind: str, family: str, n: int, dt, seed: int) -> Op:
    return Op(kind, gen.circuit_name(family, n), gen.qasm(family, n), dt, seed,
              gen.expected_two_qubit(family, n), None)


def _mutants(op: Op, rng: random.Random | None) -> list[Op]:
    """Refute operations for `op`'s input: one per remote-CNOT gadget, or one
    gadget picked by `rng`."""
    count = len(gadget_corrections(
        compile_circuit(parse_qasm(op.text), None, op.dt, op.seed)))
    picks = range(count) if rng is None else [rng.randrange(count)]
    return [Op("refute", op.name, op.text, op.dt, op.seed, op.total_2q,
               op.interqpu_trivial, k) for k in picks]


def verify_small(seed: int, corpus: Path) -> list[Op]:
    verify = _bundled(corpus, "verify", VERIFY_SMALL, [None], [seed])
    by_name = {op.name: op for op in verify}
    rng = random.Random(seed)
    refute = [m for name in EXHAUSTIVE_MUTANTS for m in _mutants(by_name[name], None)]
    refute += [m for name in SEEDED_MUTANTS for m in _mutants(by_name[name], rng)]
    return verify + refute


def compile_windows(seed: int, corpus: Path) -> list[Op]:
    names = sorted(p.stem for p in corpus.glob("*.qasm"))
    seeds = [seed * COMPILE_SEEDS + i for i in range(COMPILE_SEEDS)]
    ops = _bundled(corpus, "compile", names, [None, *SHORT_DTS], seeds)
    verify = _bundled(corpus, "verify", SHORT_DT_VERIFY, SHORT_DTS, [seed])
    return ops + verify + [m for op in verify if op.name in PROBE_MUTANTS
                           for m in _mutants(op, None)]


def compile_scale(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for family, strata in SCALE_STRATA.items():
        phase = rng.randrange(2)
        for i, (lo, hi) in enumerate(strata):
            n = hi if i == len(strata) - 1 or (i + phase) % 2 else lo
            ops.append(_generated("compile", family, n, None, seed))
    verify = [_generated("verify", family, n, None, seed) for family, n in SCALE_VERIFY]
    return ops + verify + [m for op in verify if op.name in PROBE_MUTANTS
                           for m in _mutants(op, None)]


def build(workload: str, seed: int, corpus: Path) -> list[Op]:
    if workload == "verify-small":
        return verify_small(seed, corpus)
    if workload == "compile-windows":
        return compile_windows(seed, corpus)
    return compile_scale(seed)
