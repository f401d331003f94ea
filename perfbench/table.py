#!/usr/bin/env python3
"""Run every workload once, untraced, for the run length BENCHMARK.json
declares, and print each end-to-end metric by name and unit, one row per
workload, with the operations attempted and the share that failed.

    python3 perfbench/table.py [--seed 0]

Exits 1 if a run fails or any of its output checks fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    columns = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    header = ["workload"] + [f"{name} [{unit}]" for name, unit in columns] + \
        ["attempted", "failed_ratio [ratio]"]
    rows, status = [], 0
    seconds = str(declared["run_seconds"])
    for workload in (w["name"] for w in declared["workloads"]):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", seconds,
                               "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        status |= not result["correct"]
        rows.append([workload] + [f"{result['metrics'][name]['value']:.6g}" for name, _ in columns]
                    + [str(result["attempted"]), f"{result['failed'] / result['attempted']:.6g}"])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return status


if __name__ == "__main__":
    sys.exit(main())
