"""Command-line driver: compile, bench, verify.

Exit codes: 0 success; 1 parse or spec error (and empty bench corpus);
2 capacity infeasible; 3 equivalence failure in verify.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bench import (bench_circuit, compile_circuit, hardware_suitability,
                    records_to_csv, REPORT_SCHEMA_VERSION, TABLE_OF_RECORD)
from .circuits import count_two_qubit
from .hardware import default_hardware, load_hardware_spec, HardwareError
from .gadgets import GadgetError
from .mapper import CapacityError
from .qasm import QasmError, emit_qasm, parse_qasm
from .sim import SimulationError, equivalence_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_NOT_EQUIVALENT = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fail(message, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _compile_input(args):
    """Parse args.input, load its hardware and compile it. Returns the
    CompileResult, or the exit code after printing the error."""
    try:
        circuit = parse_qasm(_read(args.input))
        hw = (load_hardware_spec(args.hardware) if args.hardware
              else default_hardware(circuit.num_qubits))
    except (QasmError, HardwareError, OSError) as exc:
        return _fail(exc)
    screen = hardware_suitability(hw)
    if not screen.suitable:
        print(f"warning: hardware topology is weakly clustered "
              f"(lambda_{len(hw.qpus)}={screen.lambda_k:.3f} > {screen.threshold})",
              file=sys.stderr)
    try:
        return compile_circuit(circuit, hw, args.dt, args.seed)
    except CapacityError as exc:
        return _fail(exc, EXIT_CAPACITY)
    except GadgetError as exc:
        return _fail(exc)


def cmd_compile(args) -> int:
    result = _compile_input(args)
    if isinstance(result, int):
        return result
    record = {"name": Path(args.input).stem, **result.record}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    if args.emit:
        out = result.expanded.circuit if args.expand_gadgets else result.decomposed
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(emit_qasm(out))
    print(json.dumps({k: record[k] for k in
                      ("name", "num_qubits", "base_total_2q", "base_interqpu_trivial",
                       "global_interqpu", "local_interqpu", "epr_consumed")}))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeats < 1:
        return _fail(f"--repeats must be at least 1, got {args.repeats}")
    corpus = sorted(Path(args.corpus).glob("*.qasm"))
    if not corpus:
        return _fail(f"no .qasm files in {args.corpus}")
    seeds = [args.seed + i for i in range(args.repeats)]
    hw = None
    if args.hardware:
        try:
            hw = load_hardware_spec(args.hardware)
        except (HardwareError, OSError) as exc:
            return _fail(exc)
    aggregates, flat = [], []
    failures = 0
    for path in corpus:
        rec = bench_circuit(path.stem, _read(path), hw, args.dt, seeds)
        agg = rec.aggregate()
        aggregates.append(agg)
        if rec.error:
            failures += 1
            print(f"{path.stem}: FAILED ({rec.error})", file=sys.stderr)
            continue
        flat.extend(rec.records)
        star = "*" if path.stem in TABLE_OF_RECORD else ""
        print(f"{path.stem}{star}: base {agg['base_total_2q']}/{agg['base_interqpu_trivial']}"
              f"  global {agg['global_interqpu_mean']:.1f}"
              f" +- {agg['global_interqpu_std']:.1f}"
              f"  local {agg['local_interqpu_mean']:.1f}"
              f" +- {agg['local_interqpu_std']:.1f}"
              f"  baseline {agg['baseline']}")
    if any(path.stem in TABLE_OF_RECORD for path in corpus):
        print("* = table-of-record suite")
    if args.report:
        doc = {"schema_version": REPORT_SCHEMA_VERSION, "circuits": aggregates}
        path = Path(args.report)
        if path.suffix == ".csv":
            path.write_text(records_to_csv(flat), encoding="utf-8")
        else:
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if failures < len(corpus) else EXIT_INPUT


def cmd_verify(args) -> int:
    result = _compile_input(args)
    if isinstance(result, int):
        return result
    data = range(result.circuit.num_qubits)
    if len(data) > 10:
        return _fail(f"verify is limited to 10 data qubits, got {len(data)}")
    exp = result.expanded
    try:
        report = equivalence_report(
            result.decomposed, exp.circuit, tol=args.tol,
            candidate_in_wires=[exp.in_wires[q] for q in data],
            candidate_out_wires=[exp.out_wires[q] for q in data])
    except SimulationError as exc:
        return _fail(exc)
    if not report.equivalent:
        print(f"NOT EQUIVALENT: input state #{report.failing_input}, "
              f"branch bits {report.failing_bits}: {report.detail}", file=sys.stderr)
        return EXIT_NOT_EQUIVALENT
    print(f"equivalent: worst branch fidelity {report.worst_fidelity:.12f} "
          f"({count_two_qubit(result.decomposed)} two-qubit gates, "
          f"{result.mapped.inter_qpu_total} inter-QPU)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dqcc",
                                description="Multi-QPU quantum circuit compiler")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile one circuit and report metrics")
    c.add_argument("input", help="input .qasm file")
    c.add_argument("--hardware", help="hardware spec YAML (default: two clusters sized to fit)")
    c.add_argument("--dt", type=float, default=None, help="window length (default: EPR period)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--expand-gadgets", action="store_true",
                   help="emit the gadget-expanded physical circuit")
    c.add_argument("--emit", help="write output QASM here")
    c.add_argument("--report", help="write the JSON report here")
    c.set_defaults(func=cmd_compile)

    b = sub.add_parser("bench", help="compile a corpus directory and tabulate metrics")
    b.add_argument("corpus", help="directory of .qasm files")
    b.add_argument("--hardware", help="hardware spec YAML (default: per-circuit two clusters)")
    b.add_argument("--dt", type=float, default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeats", type=int, default=1, help="seeds per circuit")
    b.add_argument("--report", help="write aggregate JSON (or CSV if path ends in .csv)")
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="compile, expand, and check equivalence to the input")
    v.add_argument("input", help="input .qasm file (at most 10 data qubits)")
    v.add_argument("--hardware")
    v.add_argument("--dt", type=float, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dt is not None and not (math.isfinite(args.dt) and args.dt > 0):
        return _fail(f"--dt must be a positive finite number, got {args.dt}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
