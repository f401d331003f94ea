#!/usr/bin/env python3
"""dqcc benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload verify-small --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The seed makes the workload's inputs; dqcc
receives only QASM text. Operations run one after another, in passes over
the workload, until the first pass is done and `--seconds` have gone by.
Every output is checked; a failed check, a wrong verdict or a raise counts
as a failed operation.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it wraps dqcc's layer functions and reports per-layer self
times and counts; each traced pass is paired with the same pass untraced, to
measure the tracing overhead. A summary goes to stdout and the last line is
one JSON object {correct, attempted, failed, metrics}. The full result, and
the spans of a traced run as JSONL, are written to perfbench/out/.
"""
import os

# Pin BLAS/OpenMP to one thread before numpy is imported, here and in the
# set-up probes this process starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-small", "compile-windows", "compile-scale")
SETUP_PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe() -> float:
    """Process start to ready, in a fresh interpreter: imports plus one
    warm-up compile. Workload generation is not part of it."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class SetupProbes:
    """Runs SETUP_PROBES set-up probes spread evenly over a run, one at the
    first operation boundary after each due time, so that they do not all
    fall into one fast or slow phase of the machine."""

    def __init__(self, seconds: float):
        self.due = [i * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.times.append(setup_probe())

    def finish(self) -> list[float]:
        while self.due:
            self.due.pop(0)
            self.times.append(setup_probe())
        return self.times


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "commit": git_commit(),
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dqcc").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} holds no dqcc sources (src/dqcc) or corpus/", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    probes = None if args.trace else SetupProbes(args.seconds)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure
    result = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             ROOT / "corpus", probes)
    setup = [] if args.trace else probes.finish()
    ledger, detail = result.ledger, result.detail
    metrics = result.metrics if args.trace else \
        {"setup_s": statistics.median(setup), **result.metrics}
    detail.update(failures=ledger.failures, failed_ratio=len(ledger.failures) / ledger.attempted)
    if not args.trace:
        detail["setup_s"] = {"samples_s": setup}

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace:
        result.tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "detail": detail}, indent=2) + "\n")

    print("environment: " + json.dumps(env))
    for name, value in metrics.items():
        extra = detail.get(name)
        print(f"  {name:32} {value:<12.6g} {units[name]:8}" + (json.dumps(extra) if extra else ""))
    print(f"  {detail['samples']} samples of {detail['operations']} operations in "
          f"{detail['wall_s']:.2f} s; attempted {ledger.attempted}, failed {len(ledger.failures)}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
