"""Target hardware: two QPU clusters, each with data slots and an EPR
reservoir, joined by one interconnect of `channels` parallel EPR channels,
plus gate durations. Loaded from a YAML key-value file or synthesized for the
default two-cluster architecture. Every QPU is on the interconnect, so each
needs at least one EPR slot."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import yaml

from .circuits import DurationModel


class HardwareError(ValueError):
    pass


@dataclass(frozen=True)
class QPU:
    id: str
    data_capacity: int
    epr_slots: int

    def __post_init__(self):
        if self.data_capacity < 1:
            raise HardwareError(f"QPU {self.id}: data_capacity must be >= 1")
        if self.epr_slots < 1:
            raise HardwareError(f"QPU {self.id}: epr_slots must be >= 1")


@dataclass
class HardwareSpec:
    qpus: list[QPU]
    channels: int
    durations: DurationModel = field(default_factory=DurationModel)

    def __post_init__(self):
        if len(self.qpus) != 2:
            raise HardwareError(
                f"dqcc compiles for exactly two QPUs, the spec has {len(self.qpus)}")
        if self.qpus[0].id == self.qpus[1].id:
            raise HardwareError("duplicate QPU ids")
        if self.channels < 1:
            raise HardwareError("interconnect channels must be >= 1")

    @property
    def total_data_capacity(self) -> int:
        return sum(q.data_capacity for q in self.qpus)

    # Physical wire layout: QPU 0's data slots then its EPR reservoir slots,
    # then QPU 1's.
    def wire_base(self, qpu_idx: int) -> int:
        q0 = self.qpus[0]
        return q0.data_capacity + q0.epr_slots if qpu_idx else 0

    def data_wire(self, qpu_idx: int, slot: int) -> int:
        q = self.qpus[qpu_idx]
        if not 0 <= slot < q.data_capacity:
            raise HardwareError(f"data slot {slot} out of range on QPU {q.id}")
        return self.wire_base(qpu_idx) + slot

    def epr_wire(self, qpu_idx: int, slot: int) -> int:
        q = self.qpus[qpu_idx]
        if not 0 <= slot < q.epr_slots:
            raise HardwareError(f"EPR slot {slot} out of range on QPU {q.id}")
        return self.wire_base(qpu_idx) + q.data_capacity + slot

    @property
    def total_wires(self) -> int:
        return self.wire_base(1) + self.qpus[1].data_capacity + self.qpus[1].epr_slots

    def qpu_of_wire(self, wire: int) -> int:
        if not 0 <= wire < self.total_wires:
            raise HardwareError(f"wire {wire} out of range")
        return int(wire >= self.wire_base(1))

    def is_epr_wire(self, wire: int) -> bool:
        i = self.qpu_of_wire(wire)
        return wire >= self.wire_base(i) + self.qpus[i].data_capacity

    def fingerprint(self) -> str:
        doc = {
            "qpus": [[q.id, q.data_capacity, q.epr_slots] for q in self.qpus],
            # the one-link list keeps the document, so fingerprints of
            # existing specs and reports stay valid
            "links": [[self.qpus[0].id, self.qpus[1].id, self.channels]],
            "durations": [self.durations.rx, self.durations.rz, self.durations.h,
                          self.durations.cx, self.durations.measure,
                          self.durations.epr_generation_period],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def default_hardware(num_qubits: int) -> HardwareSpec:
    """Two all-to-all clusters of ceil(N/2) data qubits and 2 EPR slots each,
    joined by one 2-channel interconnect."""
    cap = max(1, math.ceil(num_qubits / 2))
    return HardwareSpec([QPU("qpu0", cap, 2), QPU("qpu1", cap, 2)], 2)


def load_hardware_spec(path: str) -> HardwareSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise HardwareError(f"{path} is not valid YAML: {exc}") from exc
    return hardware_from_dict(doc)


def _count(value, name: str) -> int:
    """An integer-valued count; refuses booleans and fractions, which int()
    would silently turn into 1 or truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise HardwareError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _duration(value, name: str) -> float:
    """A duration in time units; refuses booleans and strings, which float()
    would silently turn into 1.0 or parse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HardwareError(f"duration {name} must be a number, got {value!r}")
    return float(value)


def hardware_from_dict(doc: dict) -> HardwareSpec:
    """Build a spec from a parsed YAML document. `links` is a list holding
    exactly one entry, which names the two declared QPUs in either order."""
    if not isinstance(doc, dict) or "qpus" not in doc:
        raise HardwareError("hardware spec must define qpus[]")
    try:
        qpus = [QPU(str(q["id"]), _count(q["data_capacity"], "data_capacity"),
                    _count(q.get("epr_slots", 2), "epr_slots"))
                for q in doc["qpus"]]
        links = doc.get("links")
        if not isinstance(links, list) or len(links) != 1:
            raise HardwareError("hardware spec must declare exactly one link, "
                                "between its two QPUs")
        ends = sorted(str(links[0][key]) for key in ("qpu_a", "qpu_b"))
        channels = _count(links[0].get("channels", 1), "channels")
        dur = doc.get("durations", {})
        model = DurationModel(
            rx=_duration(dur.get("rx", 1.0), "rx"),
            rz=_duration(dur.get("rz", 1.0), "rz"),
            h=_duration(dur.get("h", 1.0), "h"),
            cx=_duration(dur.get("cx", 2.0), "cx"),
            measure=_duration(dur.get("measure", 5.0), "measure"),
            epr_generation_period=_duration(dur.get("epr_period", 200.0), "epr_period"),
        )
    except HardwareError:
        raise
    except KeyError as exc:
        raise HardwareError(f"hardware spec entry lacks the key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise HardwareError(f"malformed hardware spec: {exc}") from exc
    hw = HardwareSpec(qpus, channels, model)
    if ends != sorted(q.id for q in hw.qpus):
        raise HardwareError(f"the link must join the two declared QPUs, "
                            f"it joins {ends[0]!r} and {ends[1]!r}")
    return hw
