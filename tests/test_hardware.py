import math
from pathlib import Path

import pytest

from dqcc import SizeSpec
from dqcc.bench import hardware_suitability
from dqcc.hardware import (HardwareError, HardwareSpec, QPU, default_hardware,
                           hardware_from_dict, load_hardware_spec)
from dqcc.partition import PartitionError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_qpus(cap=3, epr=2, channels=1):
    return HardwareSpec([QPU("a", cap, epr), QPU("b", cap, epr)], channels)


def spec_doc(links=None, **counts):
    """A two-QPU spec document; `counts` overrides qpu a's entry."""
    doc = {"qpus": [{"id": "a", "data_capacity": 3, "epr_slots": 2, **counts},
                    {"id": "b", "data_capacity": 3, "epr_slots": 2}]}
    if links is not None:
        doc["links"] = links
    return doc


LINK = {"qpu_a": "a", "qpu_b": "b", "channels": 2}


# -- QPU ----------------------------------------------------------------------

@pytest.mark.parametrize("capacity, epr_slots", [(0, 2), (-1, 2), (3, -1), (3, 0)])
def test_qpu_rejects_bad_counts(capacity, epr_slots):
    with pytest.raises(HardwareError):
        QPU("a", capacity, epr_slots)


# -- HardwareSpec ---------------------------------------------------------------

def test_link_needs_a_channel():
    with pytest.raises(HardwareError, match="channels"):
        two_qpus(channels=0)
    with pytest.raises(HardwareError, match="channels"):
        hardware_from_dict(spec_doc([{**LINK, "channels": 0}]))


@pytest.mark.parametrize("count", [0, 1, 3])
def test_spec_needs_exactly_two_qpus(count):
    qpus = [QPU(f"q{i}", 2, 2) for i in range(count)]
    with pytest.raises(HardwareError, match="exactly two QPUs"):
        HardwareSpec(qpus, 1)


def test_spec_rejects_duplicate_ids():
    with pytest.raises(HardwareError, match="duplicate"):
        HardwareSpec([QPU("a", 2, 2), QPU("a", 2, 2)], 1)


def test_spec_lookups_reject_unknown_slots():
    hw = two_qpus(cap=3, epr=2)
    with pytest.raises(HardwareError):
        hw.data_wire(0, 3)
    with pytest.raises(HardwareError):
        hw.epr_wire(1, 2)
    for wire in (-1, hw.total_wires):
        with pytest.raises(HardwareError):
            hw.qpu_of_wire(wire)
    # QPU 0's three data wires and two EPR wires, then QPU 1's
    assert [hw.qpu_of_wire(w) for w in range(10)] == [0] * 5 + [1] * 5
    assert [hw.is_epr_wire(w) for w in range(10)] == ([False] * 3 + [True] * 2) * 2


# -- loader ---------------------------------------------------------------------

def test_loader_rejects_a_document_without_qpus():
    for doc in (None, [], {"links": []}):
        with pytest.raises(HardwareError, match="qpus"):
            hardware_from_dict(doc)


@pytest.mark.parametrize("links", [
    None, [], {}, [{**LINK, "channels": 1}, {**LINK, "channels": 5}],
], ids=["no-key", "empty", "not-a-list", "two-links"])
def test_loader_needs_exactly_one_link(links):
    with pytest.raises(HardwareError, match="exactly one link"):
        hardware_from_dict(spec_doc(links))


def test_spec_rejects_link_to_unknown_qpu():
    for a, b in (("a", "c"), ("c", "b"), ("a", "a")):
        with pytest.raises(HardwareError, match="two declared QPUs"):
            hardware_from_dict(spec_doc([{"qpu_a": a, "qpu_b": b}]))


def test_spec_rejects_link_without_epr_slots():
    # every QPU is on the interconnect, so each needs a reservoir slot
    with pytest.raises(HardwareError, match="epr_slots must be >= 1"):
        hardware_from_dict(spec_doc([LINK], epr_slots=0))


def test_reversed_link_loads_as_the_forward_one():
    forward = hardware_from_dict(spec_doc([LINK]))
    reverse = hardware_from_dict(spec_doc([{**LINK, "qpu_a": "b", "qpu_b": "a"}]))
    assert reverse.channels == forward.channels == 2
    assert reverse.fingerprint() == forward.fingerprint()


def test_link_channels_default_to_one():
    assert hardware_from_dict(spec_doc([{"qpu_a": "a", "qpu_b": "b"}])).channels == 1


@pytest.mark.parametrize("key, value", [
    ("data_capacity", 3.7), ("data_capacity", True), ("epr_slots", 2.5),
    ("epr_slots", True), ("channels", 1.9), ("channels", True), ("channels", "2"),
])
def test_loader_refuses_non_integer_counts(key, value):
    if key == "channels":
        doc = spec_doc([{**LINK, "channels": value}])
    else:
        doc = spec_doc([LINK], **{key: value})
    with pytest.raises(HardwareError, match=f"{key} must be an integer"):
        hardware_from_dict(doc)


def test_loader_accepts_integral_floats():
    hw = hardware_from_dict(spec_doc([{**LINK, "channels": 2.0}], data_capacity=3.0))
    assert (hw.qpus[0].data_capacity, hw.channels) == (3, 2)
    assert isinstance(hw.channels, int)


@pytest.mark.parametrize("key, value", [
    ("cx", True), ("rx", False), ("epr_period", "50"), ("measure", "5.0"), ("h", None),
])
def test_loader_refuses_non_numeric_durations(key, value):
    doc = {**spec_doc([LINK]), "durations": {key: value}}
    with pytest.raises(HardwareError, match=f"duration {key} must be a number"):
        hardware_from_dict(doc)


def test_loader_accepts_integer_durations():
    hw = hardware_from_dict({**spec_doc([LINK]), "durations": {"cx": 3, "epr_period": 50}})
    assert (hw.durations.cx, hw.durations.epr_generation_period) == (3.0, 50.0)


def test_bundled_config_is_the_default_architecture():
    hw = load_hardware_spec(str(CONFIGS / "two_cluster_12q.yaml"))
    assert default_hardware(12).fingerprint() == "d49b9eb52f32f159"
    assert hw.fingerprint() == "d49b9eb52f32f159"


# -- SizeSpec -------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(4,), (2, 2, 2)])
def test_size_spec_needs_two_capacities(sizes):
    with pytest.raises(PartitionError, match="exactly 2"):
        SizeSpec(sizes)


def test_size_spec_needs_positive_capacities():
    with pytest.raises(PartitionError):
        SizeSpec((3, 0))


# -- hardware_suitability ---------------------------------------------------------

def test_default_hardware_screens_suitable():
    # one data qubit per QPU: lambda_2 is exactly the 1.0 threshold
    small = hardware_suitability(default_hardware(2))
    assert small.suitable and small.lambda_k == pytest.approx(1.0)
    assert hardware_suitability(default_hardware(12)).lambda_k < 0.5


def test_wide_interconnect_screens_unsuitable():
    res = hardware_suitability(two_qpus(cap=2, epr=2, channels=8))
    assert not res.suitable
    assert res.lambda_k == pytest.approx(2 * (3 - math.sqrt(5)))


def test_suitability_threshold_is_the_callers():
    hw = default_hardware(12)
    lam = hardware_suitability(hw).lambda_k
    assert hardware_suitability(hw, threshold=lam * 1.01).suitable
    assert not hardware_suitability(hw, threshold=lam * 0.99).suitable
