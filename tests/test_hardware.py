import math
from pathlib import Path

import pytest

from dqcc import SizeSpec
from dqcc.bench import hardware_suitability
from dqcc.hardware import (HardwareError, HardwareSpec, Link, QPU, default_hardware,
                           hardware_from_dict, load_hardware_spec)
from dqcc.partition import PartitionError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def two_qpus(cap=3, epr=2, channels=1):
    return HardwareSpec([QPU("a", cap, epr), QPU("b", cap, epr)], [Link("a", "b", channels)])


# -- QPU and Link -------------------------------------------------------------

@pytest.mark.parametrize("capacity, epr_slots", [(0, 2), (-1, 2), (3, -1)])
def test_qpu_rejects_bad_counts(capacity, epr_slots):
    with pytest.raises(HardwareError):
        QPU("a", capacity, epr_slots)


def test_link_needs_a_channel():
    with pytest.raises(HardwareError):
        Link("a", "b", 0)


# -- HardwareSpec ---------------------------------------------------------------

@pytest.mark.parametrize("count", [0, 1, 3])
def test_spec_needs_exactly_two_qpus(count):
    qpus = [QPU(f"q{i}", 2, 2) for i in range(count)]
    links = [Link(a.id, b.id, 1) for a, b in zip(qpus, qpus[1:])]
    with pytest.raises(HardwareError, match="exactly two QPUs"):
        HardwareSpec(qpus, links)


def test_spec_rejects_duplicate_ids():
    with pytest.raises(HardwareError, match="duplicate"):
        HardwareSpec([QPU("a", 2, 2), QPU("a", 2, 2)], [])


def test_spec_rejects_link_to_unknown_qpu():
    with pytest.raises(HardwareError, match="unknown QPU"):
        HardwareSpec([QPU("a", 2, 2), QPU("b", 2, 2)], [Link("a", "c", 1)])


def test_spec_rejects_link_without_epr_slots():
    with pytest.raises(HardwareError, match="no EPR slots"):
        HardwareSpec([QPU("a", 2, 2), QPU("b", 2, 0)], [Link("a", "b", 1)])


def test_spec_lookups_reject_unknown_ids_and_slots():
    hw = two_qpus(cap=3, epr=2)
    with pytest.raises(HardwareError):
        hw.qpu_by_id("c")
    with pytest.raises(HardwareError):
        hw.qpu_index("c")
    with pytest.raises(HardwareError):
        hw.data_wire(0, 3)
    with pytest.raises(HardwareError):
        hw.epr_wire(1, 2)
    with pytest.raises(HardwareError):
        hw.qpu_of_wire(hw.total_wires)


def test_loader_rejects_a_document_without_qpus():
    for doc in (None, [], {"links": []}):
        with pytest.raises(HardwareError, match="qpus"):
            hardware_from_dict(doc)


def test_bundled_config_is_the_default_architecture():
    hw = load_hardware_spec(str(CONFIGS / "two_cluster_12q.yaml"))
    assert hw.fingerprint() == default_hardware(12).fingerprint()


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
