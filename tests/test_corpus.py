"""Identity and semantics checks for the bundled benchmark corpus."""
import json
import math
import random

import numpy as np
import pytest

from dqcc import parse_qasm, count_inter_qpu, count_two_qubit, simulate
from dqcc.bench import PUBLISHED_BASELINES, TABLE_OF_RECORD, trivial_qpu_map

from conftest import CORPUS_DIR, CORPUS_NAMES, classical_run, corpus_text
import make_corpus


def test_write_corpus_rejects_text_that_does_not_round_trip(tmp_path, monkeypatch):
    real = make_corpus.qasm_text
    monkeypatch.setattr(make_corpus, "qasm_text", lambda name, circuit, regs: (
        corpus_text("tof_4") if name == "tof_3" else real(name, circuit, regs)))
    with pytest.raises(RuntimeError, match="tof_3"):
        make_corpus.write_corpus(str(tmp_path))


def test_recorded_baselines_consistent_with_files():
    doc = json.loads((CORPUS_DIR / "baselines.json").read_text())
    assert doc["schema_version"] == 1
    for name, rec in doc["baselines"].items():
        circuit = parse_qasm(corpus_text(name))
        assert circuit.num_qubits == rec["num_qubits"]
        assert count_two_qubit(circuit) == rec["total_2q"]
        trivial = trivial_qpu_map(circuit.num_qubits)
        assert count_inter_qpu(circuit, trivial) == rec["interqpu_trivial"]


def test_count_verified_reconstructions_match_paper():
    baselines = json.loads((CORPUS_DIR / "baselines.json").read_text())["baselines"]
    differ = {name for name, rec in baselines.items()
              if (rec["num_qubits"], rec["total_2q"], rec["interqpu_trivial"])
              != PUBLISHED_BASELINES[name]}
    # the structural reconstructions documented in corpus/README.md
    assert differ == {"adder_8", "qft_4"}


def _gf_reference(k, a, b):
    poly = (1 << k) | 1
    for e in make_corpus._GF_POLY_MIDDLE[k]:
        poly |= 1 << e
    prod = 0
    for j in range(k):
        if (b >> j) & 1:
            prod ^= a << j
    for m in range(2 * k - 2, k - 1, -1):
        if (prod >> m) & 1:
            prod ^= poly << (m - k)
    return prod


@pytest.mark.parametrize("k", [4, 6, 7, 8, 10])
def test_gf_multiplier_products(k):
    circ = make_corpus.gf_mult(k)[0]
    rng = random.Random(k)
    for _ in range(20):
        a, b = rng.randrange(1 << k), rng.randrange(1 << k)
        bits = [0] * (3 * k)
        for i in range(k):
            bits[i] = (a >> i) & 1
            bits[k + i] = (b >> i) & 1
        out = classical_run(circ, bits)
        c = sum(out[2 * k + i] << i for i in range(k))
        assert c == _gf_reference(k, a, b)
        assert all(out[k + i] == (b >> i) & 1 for i in range(k))


def test_adder_8_adds_mod_256():
    circ = make_corpus.adder_8()[0]
    rng = random.Random(99)
    for _ in range(40):
        a, b = rng.randrange(256), rng.randrange(256)
        bits = [0] * 24
        for i in range(8):
            bits[i] = (a >> i) & 1
            bits[8 + i] = (b >> i) & 1
        out = classical_run(circ, bits)
        assert sum(out[8 + i] << i for i in range(8)) == (a + b) % 256
        assert sum(out[i] << i for i in range(8)) == a
        assert all(out[16 + i] == 0 for i in range(8))


@pytest.mark.parametrize("family,builder", [("tof", make_corpus.tof_chain),
                                            ("barenco_tof", make_corpus.barenco_tof)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_multiply_controlled_not_families(family, builder, n):
    circ = builder(n)[0]
    for ctrl in range(1 << n):
        bits = [0] * (2 * n - 1)
        for i in range(n):
            bits[i] = (ctrl >> i) & 1
        out = classical_run(circ, bits)
        assert out[2 * n - 2] == (1 if ctrl == (1 << n) - 1 else 0)
        assert all(out[j] == 0 for j in range(n, 2 * n - 2))


def test_barenco_network_tolerates_dirty_ancillas():
    circ = make_corpus.barenco_tof(4)[0]
    for ctrl in range(16):
        for anc in range(4):
            bits = [0] * 7
            for i in range(4):
                bits[i] = (ctrl >> i) & 1
            bits[4] = anc & 1
            bits[5] = (anc >> 1) & 1
            out = classical_run(circ, bits)
            assert out[6] == (1 if ctrl == 15 else 0)
            assert out[4] == anc & 1 and out[5] == (anc >> 1) & 1


def test_grover_amplifies_marked_state():
    circ = parse_qasm(corpus_text("grover_5"))
    (branch,) = simulate(circ)
    tensor = branch.state[:, 0].reshape((2,) * 9)
    idx = tuple((0b10101 >> q) & 1 for q in range(5))
    prob = float(np.sum(np.abs(tensor[idx]) ** 2))
    theta = math.asin(1 / math.sqrt(32))
    assert prob == pytest.approx(math.sin(9 * theta) ** 2, abs=1e-9)
    assert prob > 0.99


def test_table1_suite_membership():
    assert set(TABLE_OF_RECORD) <= set(CORPUS_NAMES)
    assert len(TABLE_OF_RECORD) == 6


def test_corpus_regeneration_is_stable(tmp_path):
    # builders -> files and baselines.json, byte for byte; the baselines
    # tests above tie baselines.json to the files and the published counts
    make_corpus.write_corpus(tmp_path)
    assert sorted(make_corpus.BUILDERS) == CORPUS_NAMES
    for name in CORPUS_NAMES:
        assert (tmp_path / f"{name}.qasm").read_text() == corpus_text(name), name
    assert (tmp_path / "baselines.json").read_text() == (CORPUS_DIR / "baselines.json").read_text()
