"""Spans around calls into dqcc's layers, for the benchmark's traced run.

Wrappers go on the names that callers look up, so nothing under `src/`
changes; `Tracer.install` puts them in place and `Tracer.uninstall` restores
the originals. A span records its name, start, end, parent span and the
operation (one compile, with or without a verdict) it belongs to. A layer's
self time is its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

import dqcc.bench
import dqcc.mapper
import dqcc.partition


def _lowered(args, result):
    return {"gates": len(result.gates)}


def _vertices(args, result):
    return {"vertices": args[0].n}


def _mapped(args, result):
    return {"windows": len(result.windows), "teleports": result.teleport_count,
            "remote_gates": result.remote_count}


def _expanded(args, result):
    return {"epr_pairs": result.epr_events, "gates": len(result.circuit.gates)}


# (module, attribute callers look up, span name, counts taken from the call)
WRAPPED = [
    (dqcc.bench, "decompose_to_basis", "circuits.decompose_to_basis", _lowered),
    (dqcc.bench, "schedule_asap", "circuits.schedule_asap", None),
    (dqcc.bench, "global_assign", "mapper.global_assign", None),
    (dqcc.bench, "local_optimize", "mapper.local_optimize", _mapped),
    (dqcc.bench, "expand_program", "gadgets.expand_program", _expanded),
    (dqcc.mapper, "spectral_partition", "partition.spectral_partition", None),
    (dqcc.mapper, "kl_refine", "partition.kl_refine", _vertices),
    (dqcc.mapper, "circuit_graph", "graphs.circuit_graph", None),
    (dqcc.mapper, "interaction_graph", "graphs.interaction_graph", None),
    (dqcc.partition, "fiedler_vector", "graphs.fiedler_vector", None),
]

SIM_SPANS = ("sim.equivalence_report", "sim.refute")
# per-layer metric -> (what to sum: "self" time, "calls" or a count the span
# recorded, then the span names to sum it over)
LAYER_SUMS = {
    "qasm.parse_s": ("self", "qasm.parse_qasm"),
    "circuits.lower_s": ("self", "circuits.decompose_to_basis"),
    "circuits.schedule_s": ("self", "circuits.schedule_asap"),
    "circuits.lowered_gates": ("gates", "circuits.decompose_to_basis"),
    "graphs.circuit_graph_s": ("self", "graphs.circuit_graph"),
    "graphs.interaction_graph_s": ("self", "graphs.interaction_graph"),
    "graphs.interaction_graph_calls": ("calls", "graphs.interaction_graph"),
    "graphs.fiedler_s": ("self", "graphs.fiedler_vector"),
    "graphs.fiedler_calls": ("calls", "graphs.fiedler_vector"),
    "partition.spectral_s": ("self", "partition.spectral_partition"),
    "partition.spectral_calls": ("calls", "partition.spectral_partition"),
    "partition.kl_s": ("self", "partition.kl_refine"),
    "partition.kl_calls": ("calls", "partition.kl_refine"),
    "partition.kl_vertices": ("vertices", "partition.kl_refine"),
    "mapper.global_s": ("self", "mapper.global_assign"),
    "mapper.local_s": ("self", "mapper.local_optimize"),
    "mapper.windows": ("windows", "mapper.local_optimize"),
    "mapper.teleports": ("teleports", "mapper.local_optimize"),
    "mapper.remote_gates": ("remote_gates", "mapper.local_optimize"),
    "gadgets.expand_s": ("self", "gadgets.expand_program"),
    "gadgets.epr_pairs": ("epr_pairs", "gadgets.expand_program"),
    "gadgets.expanded_gates": ("gates", "gadgets.expand_program"),
    "bench.record_s": ("self", "bench.compile_circuit"),
    # All oracle time, proofs and refutations; then the refutations' part.
    "sim.equivalence_s": ("self", *SIM_SPANS),
    "sim.refute_s": ("self", "sim.refute"),
    "sim.measurements": ("measurements", *SIM_SPANS),
}
# The size of the largest problem the oracle was given, not a sum.
SIM_MAXIMA = ("wires", "input_columns", "state_mb")
# Spans the benchmark opens around its own work; their self time is harness time.
HARNESS = "perfbench.op"
_SPAN_FIELDS = ("id", "name", "op", "parent", "start", "end")


class Tracer:
    """Collects spans in memory; `enabled=False` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = -1  # the operation the next spans belong to
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    def span(self, name: str, **counts):
        return self._span(name, counts) if self.enabled else nullcontext({})

    @contextmanager
    def _span(self, name: str, counts: dict):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1]["id"] if self._stack else None, **counts}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts:
                rec.update(counts(args, result))
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, name, counts in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals over every span, plus how the traced wall time
        splits into layer self time, harness self time and the remainder.
        A metric whose span was never wrapped is left out."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        by_name: dict[str, dict[str, float]] = {}
        for rec, inner in zip(self.spans, child_time):
            acc = by_name.setdefault(rec["name"], {"self": 0.0, "calls": 0})
            acc["self"] += rec["end"] - rec["start"] - inner
            acc["calls"] += 1
            for key, value in rec.items():
                if key in _SPAN_FIELDS or isinstance(value, str):
                    continue
                if key in SIM_MAXIMA:
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
        out: dict[str, float] = {}
        for metric, (field, *names) in LAYER_SUMS.items():
            if not set(names) & set(self.missing):
                out[metric] = sum(by_name.get(name, {}).get(field, 0) for name in names)
        for field in SIM_MAXIMA:
            out[f"sim.{field}"] = max(by_name.get(name, {}).get(field, 0) for name in SIM_SPANS)
        parse = by_name.get("qasm.parse_qasm", {})
        out["qasm.gates_per_s"] = parse.get("gates", 0) / parse["self"] if parse else 0.0
        harness = by_name.get(HARNESS, {}).get("self", 0.0)
        layers = sum(acc["self"] for name, acc in by_name.items() if name != HARNESS)
        out["trace.wall_s"] = wall_s
        out["trace.harness_s"] = harness
        out["trace.unaccounted_s"] = wall_s - layers - harness
        return out
