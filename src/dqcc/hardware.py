"""Target hardware description: QPU clusters, EPR reservoir slots, interconnect
links, and gate durations. Loaded from a YAML key-value file or synthesized
for the default two-cluster architecture."""
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
        if self.epr_slots < 0:
            raise HardwareError(f"QPU {self.id}: epr_slots must be >= 0")


@dataclass(frozen=True)
class Link:
    qpu_a: str
    qpu_b: str
    channels: int

    def __post_init__(self):
        if self.channels < 1:
            raise HardwareError("link channels must be >= 1")


@dataclass
class HardwareSpec:
    qpus: list[QPU]
    links: list[Link]
    durations: DurationModel = field(default_factory=DurationModel)

    def __post_init__(self):
        if len(self.qpus) != 2:
            raise HardwareError(
                f"dqcc compiles for exactly two QPUs, the spec has {len(self.qpus)}")
        ids = [q.id for q in self.qpus]
        if len(set(ids)) != len(ids):
            raise HardwareError("duplicate QPU ids")
        for link in self.links:
            if link.qpu_a not in ids or link.qpu_b not in ids:
                raise HardwareError(f"link references unknown QPU: {link}")
            for qid in (link.qpu_a, link.qpu_b):
                if self.qpu_by_id(qid).epr_slots < 1:
                    raise HardwareError(f"QPU {qid} participates in a link but has no EPR slots")

    def qpu_by_id(self, qid: str) -> QPU:
        for q in self.qpus:
            if q.id == qid:
                return q
        raise HardwareError(f"unknown QPU id {qid}")

    def qpu_index(self, qid: str) -> int:
        for i, q in enumerate(self.qpus):
            if q.id == qid:
                return i
        raise HardwareError(f"unknown QPU id {qid}")

    @property
    def total_data_capacity(self) -> int:
        return sum(q.data_capacity for q in self.qpus)

    # Physical wire layout: QPUs in declaration order, each contributing its
    # data slots then its EPR reservoir slots.
    def wire_base(self, qpu_idx: int) -> int:
        return sum(q.data_capacity + q.epr_slots for q in self.qpus[:qpu_idx])

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
        return sum(q.data_capacity + q.epr_slots for q in self.qpus)

    def qpu_of_wire(self, wire: int) -> int:
        for i in range(len(self.qpus)):
            base = self.wire_base(i)
            if base <= wire < base + self.qpus[i].data_capacity + self.qpus[i].epr_slots:
                return i
        raise HardwareError(f"wire {wire} out of range")

    def is_epr_wire(self, wire: int) -> bool:
        i = self.qpu_of_wire(wire)
        return wire >= self.wire_base(i) + self.qpus[i].data_capacity

    def link_between(self, i: int, j: int) -> Link | None:
        a, b = self.qpus[i].id, self.qpus[j].id
        for link in self.links:
            if {link.qpu_a, link.qpu_b} == {a, b}:
                return link
        return None

    def fingerprint(self) -> str:
        doc = {
            "qpus": [[q.id, q.data_capacity, q.epr_slots] for q in self.qpus],
            "links": [[l.qpu_a, l.qpu_b, l.channels] for l in self.links],
            "durations": [self.durations.rx, self.durations.rz, self.durations.h,
                          self.durations.cx, self.durations.measure,
                          self.durations.epr_generation_period],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def default_hardware(num_qubits: int, epr_slots: int = 2, channels: int = 2,
                     durations: DurationModel | None = None) -> HardwareSpec:
    """Two all-to-all clusters of ceil(N/2) data qubits each, plus an EPR
    reservoir per cluster, joined by one interconnect."""
    cap = max(1, math.ceil(num_qubits / 2))
    return HardwareSpec(
        qpus=[QPU("qpu0", cap, epr_slots), QPU("qpu1", cap, epr_slots)],
        links=[Link("qpu0", "qpu1", channels)],
        durations=durations or DurationModel(),
    )


def load_hardware_spec(path: str) -> HardwareSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise HardwareError(f"{path} is not valid YAML: {exc}") from exc
    return hardware_from_dict(doc)


def hardware_from_dict(doc: dict) -> HardwareSpec:
    if not isinstance(doc, dict) or "qpus" not in doc:
        raise HardwareError("hardware spec must define qpus[]")
    try:
        qpus = [QPU(str(q["id"]), int(q["data_capacity"]), int(q.get("epr_slots", 2)))
                for q in doc["qpus"]]
        links = [Link(str(l["qpu_a"]), str(l["qpu_b"]), int(l.get("channels", 1)))
                 for l in doc.get("links", [])]
        dur = doc.get("durations", {})
        model = DurationModel(
            rx=float(dur.get("rx", 1.0)),
            rz=float(dur.get("rz", 1.0)),
            h=float(dur.get("h", 1.0)),
            cx=float(dur.get("cx", 2.0)),
            measure=float(dur.get("measure", 5.0)),
            epr_generation_period=float(dur.get("epr_period", 200.0)),
        )
    except HardwareError:
        raise
    except KeyError as exc:
        raise HardwareError(f"hardware spec entry lacks the key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise HardwareError(f"malformed hardware spec: {exc}") from exc
    return HardwareSpec(qpus, links, model)


@dataclass
class Assignment:
    """Logical qubit -> (QPU index, data slot). Injective into slots; EPR
    reservoir slots never hold data."""
    hw: HardwareSpec
    placement: dict[int, tuple[int, int]] = field(default_factory=dict)

    def validate(self) -> None:
        seen = set()
        for q, (qpu, slot) in self.placement.items():
            if not 0 <= qpu < len(self.hw.qpus):
                raise HardwareError(f"qubit {q}: unknown QPU index {qpu}")
            if not 0 <= slot < self.hw.qpus[qpu].data_capacity:
                raise HardwareError(f"qubit {q}: slot {slot} exceeds data capacity")
            if (qpu, slot) in seen:
                raise HardwareError(f"slot collision at {(qpu, slot)}")
            seen.add((qpu, slot))

    def qpu_map(self) -> dict[int, int]:
        return {q: qs[0] for q, qs in self.placement.items()}

    def free_slots(self, qpu: int) -> list[int]:
        used = {slot for (p, slot) in self.placement.values() if p == qpu}
        return [s for s in range(self.hw.qpus[qpu].data_capacity) if s not in used]

    def copy(self) -> "Assignment":
        return Assignment(self.hw, dict(self.placement))
