"""The measuring loop: runs a workload's operations in a closed loop, checks
every output, and turns the samples into end-to-end or per-layer metrics.

Imported by `run.py` once BLAS threads are pinned and `src/` is on the path.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
import resource
import statistics
import time
import traceback
from pathlib import Path

from dqcc.bench import compile_circuit
from dqcc.circuits import GateKind
from dqcc.gadgets import cross_qpu_violations
from dqcc.qasm import parse_qasm
from dqcc.sim import equivalence_report, spanning_inputs, trim_idle_wires

import gen
import workloads
from spans import HARNESS, Tracer

# After the first pass, an operation that took this long or more repeats
# only its compile step, so every input gains samples while a run stays
# near its length.
REPEAT_UNDER_S = 1.0
# Bundled files the benchmark's generator must reproduce gate for gate.
GENERATOR_CHECKS = ([("tof", n) for n in (3, 4, 5, 10)]
                    + [("barenco_tof", n) for n in (3, 4, 5, 10)]
                    + [("gf2", k) for k in (4, 6, 7, 8, 10)])


@dataclasses.dataclass
class Ledger:
    """Operations attempted and the failures among them, with reasons."""
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclasses.dataclass
class Sample:
    op: workloads.Op
    compile_s: float
    verdict_s: float | None
    record: dict
    lowered_gates: int
    expanded_gates: int


@dataclasses.dataclass
class Result:
    metrics: dict
    detail: dict
    ledger: Ledger
    tracer: Tracer


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest integer percentile (nearest rank, at least the
    median) that has at least ten values beyond it; the maximum, reported
    as percentile 100, when there are too few values for that."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def output_problems(op: workloads.Op, result) -> list[str]:
    rec = result.record
    problems = []
    if rec["base_total_2q"] != op.total_2q:
        problems.append(f"base_total_2q {rec['base_total_2q']} != {op.total_2q}")
    if op.interqpu_trivial is not None and rec["base_interqpu_trivial"] != op.interqpu_trivial:
        problems.append(f"base_interqpu_trivial {rec['base_interqpu_trivial']}"
                        f" != {op.interqpu_trivial}")
    if rec["global_interqpu"] > rec["base_interqpu_trivial"]:
        problems.append("global assignment is worse than the trivial map")
    if rec["local_interqpu"] > rec["global_interqpu"]:
        problems.append("local pass is worse than the global assignment")
    if cross_qpu_violations(result.expanded.circuit, result.hw):
        problems.append("expanded circuit has a two-qubit gate across QPUs")
    return problems


def oracle_sizes(circuit, candidate, wires) -> dict:
    """What the oracle is given: wires left after trimming, input columns,
    the state they make, and the measurements it branches on."""
    trimmed, _ = trim_idle_wires(candidate, keep=set(wires))
    columns = spanning_inputs(circuit.num_qubits).shape[1]
    return {"wires": trimmed.num_qubits, "input_columns": columns,
            "state_mb": (1 << trimmed.num_qubits) * columns * 16 / 2**20,
            "measurements": sum(g.kind == GateKind.MEASURE for g in candidate.gates)}


def run_op(op: workloads.Op, tracer: Tracer, sizes: dict) -> tuple[Sample, list[str]]:
    """Parse and compile as `dqcc compile` does; for a verify or refute
    operation, then check the (possibly mutated) output as `dqcc verify`
    does. Timed: the compile step, and compile plus oracle for a verdict.
    A traced run records the oracle's problem size, found on an operation's
    first run and kept in `sizes`, since compiles are deterministic."""
    t0 = time.perf_counter()
    with tracer.span("qasm.parse_qasm") as rec:
        circuit = parse_qasm(op.text)
    rec["gates"] = len(circuit.gates)
    with tracer.span("bench.compile_circuit"):
        result = compile_circuit(circuit, None, op.dt, op.seed)
    compile_s = time.perf_counter() - t0
    problems = output_problems(op, result)
    verdict_s = None
    if op.kind != "compile":
        exp = result.expanded
        ins = [exp.in_wires[q] for q in range(circuit.num_qubits)]
        outs = [exp.out_wires[q] for q in range(circuit.num_qubits)]
        candidate = exp.circuit if op.mutant is None else workloads.mutate(result, op.mutant)
        if tracer.enabled and op not in sizes:
            sizes[op] = oracle_sizes(circuit, candidate, ins + outs)
        t1 = time.perf_counter()
        with tracer.span("sim.refute" if op.kind == "refute" else "sim.equivalence_report",
                         **sizes.get(op, {})):
            report = equivalence_report(result.decomposed, candidate,
                                        candidate_in_wires=ins, candidate_out_wires=outs)
        verdict_s = compile_s + time.perf_counter() - t1
        if report.equivalent != (op.kind == "verify"):
            problems.append(f"wrong verdict: equivalent={report.equivalent}")
    return Sample(op, compile_s, verdict_s, result.record, len(result.decomposed.gates),
                  len(result.expanded.circuit.gates)), problems


class Runner:
    """Closed loop over a workload's operations, one at a time."""

    def __init__(self, ops: list[workloads.Op], ledger: Ledger):
        self.ops = ops
        self.ledger = ledger
        self.first_run_s: dict[workloads.Op, float] = {}
        self.oracle_sizes: dict[workloads.Op, dict] = {}

    def run_one(self, op: workloads.Op, tracer: Tracer) -> Sample | None:
        tracer.op += 1
        sample, problems = None, []
        with tracer.span(HARNESS, kind=op.kind, input=op.name):
            try:
                sample, problems = run_op(op, tracer, self.oracle_sizes)
            except Exception:
                problems = [traceback.format_exc()]
        self.ledger.check(not problems, f"{op.kind} {op.name} dt={op.dt} seed={op.seed} "
                                        f"mutant={op.mutant}: {'; '.join(problems)}")
        return sample

    def repeat_form(self, op: workloads.Op) -> workloads.Op:
        """How an operation runs after its first run: whole, or only its
        compile step if its first run took REPEAT_UNDER_S or more."""
        if self.first_run_s[op] < REPEAT_UNDER_S:
            return op
        return dataclasses.replace(op, kind="compile", mutant=None)

    def loop(self, tracer: Tracer, passes: int = 1, seconds: float = 0.0,
             first: int = 0, between=None) -> tuple[list[Sample], float]:
        """Passes `first`, `first + 1`, ..., each in its own fixed shuffled
        order, so every metric's samples spread over the run. Pass 0 runs
        every operation; later passes run each in its repeat form. In pass
        0, after a verdict that took REPEAT_UNDER_S or more, the operations
        run so far run again in their repeat form, while the run is shorter
        than `seconds`: otherwise a few multi-second verdicts would fill most
        of the run and every other sample would gather at its end. Runs
        `passes` passes, then stops at the first operation boundary after
        `seconds`. `between`, if given, is called with the time gone by at
        every operation boundary. Returns the samples and the wall time."""
        samples, t0 = [], time.perf_counter()

        def run(op: workloads.Op) -> float:
            if between is not None:
                between(time.perf_counter() - t0)
            t = time.perf_counter()
            sample = self.run_one(op, tracer)
            took = time.perf_counter() - t
            self.first_run_s.setdefault(op, took)
            if sample is not None:
                samples.append(sample)
            return took

        for p in itertools.count(first):
            order = list(self.ops) if p == 0 else [self.repeat_form(op) for op in self.ops]
            random.Random(p).shuffle(order)
            for i, op in enumerate(order):
                if p - first >= passes and time.perf_counter() - t0 >= seconds:
                    return samples, time.perf_counter() - t0
                if run(op) >= REPEAT_UNDER_S and p == 0 and op.kind != "compile":
                    for done in order[:i + 1]:
                        if time.perf_counter() - t0 >= seconds:
                            break
                        run(self.repeat_form(done))


def _mean_of(group: list[Sample], attr: str) -> float:
    return statistics.fmean(getattr(s, attr) for s in group)


def measure(workload: str, seed: int, seconds: float, trace: bool, corpus: Path,
            between=None) -> Result:
    """Run `workload` for `seconds`. An untraced run calls `between` with the
    time gone by at every operation boundary of its loop."""
    compile_circuit(parse_qasm(gen.qasm("tof", 3)), seed=0)  # warm-up, as in set-up
    ops = workloads.build(workload, seed, corpus)
    ledger = Ledger()
    if workload == "compile-scale":
        for family, n in GENERATOR_CHECKS:
            name = gen.circuit_name(family, n)
            bundled = parse_qasm((corpus / f"{name}.qasm").read_text())
            ledger.check(parse_qasm(gen.qasm(family, n)) == bundled,
                         f"generator does not reproduce corpus/{name}.qasm")

    runner = Runner(ops, ledger)
    tracer = Tracer(trace)
    if trace:
        # Untraced and traced passes alternate, untraced first and in the
        # same order, so that neither side alone pays for warming up. Both
        # sides together fill the run's `seconds`.
        samples, wall, untraced_wall = [], 0.0, 0.0
        for traced_passes in itertools.count():
            if wall + untraced_wall >= seconds:
                break
            untraced_wall += runner.loop(Tracer(False), first=traced_passes)[1]
            tracer.install()
            try:
                done, pass_wall = runner.loop(tracer, first=traced_passes)
            finally:
                tracer.uninstall()
            samples += done
            wall += pass_wall
    else:
        samples, wall = runner.loop(tracer, seconds=seconds, between=between)

    # An input is a (circuit, window, seed) triple. Its compile time is the
    # mean over every compile of it, and a verdict's time the mean over its
    # operation's repeats: on a machine shared with other work, repeats fall
    # into fast and slow phases, and the mean moves less from run to run
    # than the median. Statistics then run over inputs, so an input measured more
    # often does not weigh more.
    by_input: dict[tuple, list[Sample]] = {}
    by_op: dict[workloads.Op, list[Sample]] = {}
    for sample in samples:
        by_input.setdefault(sample.op.key, []).append(sample)
        by_op.setdefault(sample.op, []).append(sample)

    # Determinism: every compile of an input gives the same record apart
    # from its run time; an input compiled once is compiled again.
    def stable(record):
        return {k: v for k, v in record.items() if k != "compile_runtime_seconds"}
    for key, group in by_input.items():
        records = [stable(s.record) for s in group]
        if len(records) == 1:
            op = group[0].op
            again = compile_circuit(parse_qasm(op.text), None, op.dt, op.seed)
            records.append(stable(again.record))
        for record in records[1:]:
            ledger.check(record == records[0], f"{key}: two compiles gave different records")

    # The compile and count metrics describe the inputs of the compile
    # operations, or, on a workload with none, every input it verifies. The
    # compile workloads' few verify inputs are small circuits that would
    # skew them.
    keys = {op.key for op in ops if op.kind == "compile"} or {op.key for op in ops}
    compiled = [by_input[k] for k in sorted(keys, key=str) if k in by_input]

    def counts(pick):
        chosen = [pick(group) for group in compiled]
        ratios = [s.record["local_interqpu"] / s.record["base_interqpu_trivial"] for s in chosen]
        return {"interqpu_vs_trivial": math.exp(statistics.fmean(math.log(r) for r in ratios)),
                "epr_pairs": sum(s.record["epr_consumed"] for s in chosen),
                "expanded_gates": sum(s.expanded_gates for s in chosen)}
    first_counts = counts(lambda group: group[0])
    ledger.check(counts(lambda group: group[-1]) == first_counts,
                 "count metrics differ between the first and last compiles")

    detail = {"wall_s": wall, "operations": len(ops), "samples": len(samples),
              "inputs": [{"kind": op.kind, "name": op.name, "dt": op.dt, "seed": op.seed,
                          "mutant": op.mutant, "compile_s": [s.compile_s for s in group],
                          "verdict_s": [s.verdict_s for s in group]}
                         for op, group in by_op.items()]}
    if trace:
        metrics = tracer.layer_metrics(wall)
        metrics["trace.overhead_s"] = wall - untraced_wall
        metrics["trace.passes"] = traced_passes
        detail.update(untraced_wall_s=untraced_wall, missing_wrappers=tracer.missing)
        return Result(metrics, detail, ledger, tracer)

    compile_s = [_mean_of(group, "compile_s") for group in compiled]
    verify_s = [_mean_of(g, "verdict_s") for op, g in by_op.items() if op.kind == "verify"]
    refute_s = [_mean_of(g, "verdict_s") for op, g in by_op.items() if op.kind == "refute"]
    compile_tail, compile_p = tail(compile_s)
    verify_tail, verify_p = tail(verify_s)
    metrics = {
        "compile_s.p50": statistics.median(compile_s),
        "compile_s.tail": compile_tail,
        "compile_gates_per_s": sum(group[0].lowered_gates for group in compiled)
        / sum(compile_s),
        "verify_s.p50": statistics.median(verify_s),
        "verify_s.tail": verify_tail,
        "verify_total_s": sum(verify_s),
        "refute_s.p50": statistics.median(refute_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **first_counts,
    }
    detail.update({
        "compile_s.p50": {"inputs": len(compile_s)},
        "compile_s.tail": {"percentile": compile_p, "inputs": len(compile_s)},
        "verify_s.p50": {"inputs": len(verify_s)},
        "verify_s.tail": {"percentile": verify_p, "inputs": len(verify_s)},
        "refute_s.p50": {"inputs": len(refute_s)},
    })
    return Result(metrics, detail, ledger, tracer)
