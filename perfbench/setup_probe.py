"""Set-up probe: a fresh interpreter imports numpy and dqcc, compiles one
circuit, and prints "ready". `run.py` times it from spawn to that line."""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401  (part of what set-up pays for)
from dqcc.bench import compile_circuit  # noqa: E402
from dqcc.qasm import parse_qasm  # noqa: E402

import gen  # noqa: E402

compile_circuit(parse_qasm(gen.qasm("tof", 3)), seed=0)
print("ready", flush=True)
