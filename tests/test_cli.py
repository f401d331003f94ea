import json

import pytest

from dqcc.cli import main
from dqcc import bench, gadgets

from conftest import CORPUS_DIR, corpus_text


def test_compile_writes_report_and_exits_zero(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["compile", str(CORPUS_DIR / "tof_3.qasm"), "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    for key in ("name", "num_qubits", "seed", "dt", "base_total_2q",
                "base_interqpu_trivial", "global_interqpu", "local_interqpu",
                "local_total_2q_logical", "local_total_2q_expanded",
                "epr_consumed", "compile_runtime_seconds", "hardware"):
        assert key in doc, key
    assert doc["num_qubits"] == 5
    assert doc["base_total_2q"] == 18


def test_compile_emits_expanded_qasm(tmp_path):
    out = tmp_path / "out.qasm"
    rc = main(["compile", str(CORPUS_DIR / "tof_3.qasm"),
               "--expand-gadgets", "--emit", str(out)])
    assert rc == 0
    from dqcc import parse_qasm
    expanded = parse_qasm(out.read_text())
    assert expanded.num_qubits == 10  # 2 QPUs x (3 data + 2 EPR)


def test_compile_malformed_input_exit_1(tmp_path):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[2]; cnot q[0],q[1];")
    assert main(["compile", str(bad)]) == 1


@pytest.mark.parametrize("command", ["compile", "verify"])
@pytest.mark.parametrize("statement", ["cx q[0],q[0];", "barrier q,q[0];", "rz(1e999) q[0];"])
def test_malformed_operands_exit_1(tmp_path, capsys, command, statement):
    bad = tmp_path / "bad.qasm"
    bad.write_text(f"OPENQASM 2.0;\nqreg q[2];\n{statement}\n")
    assert main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3, column 1: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["compile", "TOF3", "--dt", "0"],
    ["compile", "TOF3", "--dt", "-5"],
    ["compile", "TOF3", "--dt", "nan"],
    ["verify", "TOF3", "--dt", "0"],
    ["verify", "TOF3", "--dt", "inf"],
    ["verify", "TOF3", "--tol", "nan"],
    ["bench", "CORPUS", "--dt", "-5"],
    ["bench", "CORPUS", "--repeats", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_numeric_options_exit_1(capsys, argv):
    paths = {"TOF3": str(CORPUS_DIR / "tof_3.qasm"), "CORPUS": str(CORPUS_DIR)}
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("angle", ["(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"],
                         ids=["parentheses", "unary-minus"])
def test_deeply_nested_angle_exit_1(tmp_path, capsys, angle):
    f = tmp_path / "deep.qasm"
    f.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")
    assert main(["compile", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3, column 104: ")


def test_compile_capacity_exhausted_exit_2(tmp_path):
    hwfile = tmp_path / "hw.yaml"
    hwfile.write_text(
        "qpus:\n"
        "  - {id: qpu0, data_capacity: 2, epr_slots: 2}\n"
        "  - {id: qpu1, data_capacity: 2, epr_slots: 2}\n"
        "links:\n"
        "  - {qpu_a: qpu0, qpu_b: qpu1, channels: 2}\n")
    rc = main(["compile", str(CORPUS_DIR / "gf2_10_mult.qasm"), "--hardware", str(hwfile)])
    assert rc == 2


def test_compile_with_custom_durations(tmp_path):
    hwfile = tmp_path / "hw.yaml"
    hwfile.write_text(
        "qpus:\n"
        "  - {id: a, data_capacity: 3, epr_slots: 2}\n"
        "  - {id: b, data_capacity: 3, epr_slots: 2}\n"
        "links:\n"
        "  - {qpu_a: a, qpu_b: b, channels: 2}\n"
        "durations: {rx: 1, rz: 1, h: 1, cx: 3, measure: 4, epr_period: 50}\n")
    report = tmp_path / "r.json"
    rc = main(["compile", str(CORPUS_DIR / "tof_3.qasm"), "--hardware", str(hwfile),
               "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["dt"] == 50.0


def test_bench_runs_corpus_and_reports(tmp_path):
    small = tmp_path / "corpus"
    small.mkdir()
    for name in ("tof_3", "mod5_4"):
        (small / f"{name}.qasm").write_text(corpus_text(name))
    report = tmp_path / "bench.json"
    rc = main(["bench", str(small), "--repeats", "2", "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["schema_version"] == 1
    recs = {r["name"]: r for r in doc["circuits"]}
    assert set(recs) == {"tof_3", "mod5_4"}
    assert len(recs["tof_3"]["runs"]) == 2
    seeds = {run["seed"] for run in recs["tof_3"]["runs"]}
    assert seeds == {0, 1}
    assert "global_interqpu_std" in recs["tof_3"]


def test_bench_reports_baseline_status(tmp_path, capsys):
    small = tmp_path / "corpus"
    small.mkdir()
    for name in ("qft_4", "grover_5", "broken"):
        text = "OPENQASM 3.0; qubit[2] q;" if name == "broken" else corpus_text(name)
        (small / f"{name}.qasm").write_text(text)
    report = tmp_path / "bench.json"
    assert main(["bench", str(small), "--report", str(report)]) == 0
    recs = {r["name"]: r for r in json.loads(report.read_text())["circuits"]}
    assert recs["qft_4"]["baseline"] == "recorded"  # reconstruction differs
    assert recs["grover_5"]["baseline"] == "count-verified"
    assert recs["broken"]["baseline"] == "recorded"  # not a bundled circuit
    out = capsys.readouterr().out
    assert "grover_5*: " in out and "baseline count-verified" in out
    assert "qft_4: " in out and "* = table-of-record suite" in out


@pytest.mark.parametrize("dt_args, plan", [([], "windowed"), (["--dt", "8"], "static")])
def test_compile_reports_local_plan(tmp_path, dt_args, plan):
    # At dt=8 the windowed plan for qft_4 costs more than the static one.
    report = tmp_path / "r.json"
    assert main(["compile", str(CORPUS_DIR / "qft_4.qasm"), *dt_args,
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["local_plan"] == plan


def test_bench_csv_report(tmp_path):
    small = tmp_path / "corpus"
    small.mkdir()
    (small / "tof_3.qasm").write_text(corpus_text("tof_3"))
    report = tmp_path / "bench.csv"
    assert main(["bench", str(small), "--report", str(report)]) == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0].startswith("name,num_qubits,seed,dt,base_total_2q")
    assert len(lines) == 2


def test_bench_full_corpus_reproduces_recorded_baselines(tmp_path):
    report = tmp_path / "full.json"
    assert main(["bench", str(CORPUS_DIR), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    recs = {r["name"]: r for r in doc["circuits"]}
    baselines = json.loads((CORPUS_DIR / "baselines.json").read_text())["baselines"]
    for name in bench.TABLE_OF_RECORD:
        baseline = baselines[name]
        assert recs[name]["base_total_2q"] == baseline["total_2q"]
        assert recs[name]["base_interqpu_trivial"] == baseline["interqpu_trivial"]
        assert recs[name]["num_qubits"] == baseline["num_qubits"]
    recorded = {name for name, r in recs.items() if r["baseline"] == "recorded"}
    assert len(recs) == 17 and recorded == {"adder_8", "qft_4"}


def test_bench_baseline_needs_the_published_counts_not_the_name(tmp_path, capsys):
    small = tmp_path / "corpus"
    small.mkdir()
    (small / "tof_3.qasm").write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n')
    assert main(["bench", str(small)]) == 0
    out = capsys.readouterr().out
    assert "tof_3: base 1/1" in out and "baseline recorded" in out


def test_bench_empty_corpus_exit_1(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 1


def test_bench_partial_failure_still_succeeds(tmp_path, capsys):
    small = tmp_path / "corpus"
    small.mkdir()
    (small / "tof_3.qasm").write_text(corpus_text("tof_3"))
    (small / "broken.qasm").write_text("OPENQASM 3.0; qubit[2] q;")
    assert main(["bench", str(small)]) == 0
    assert "broken: FAILED" in capsys.readouterr().err


def test_bench_unexpected_error_propagates(tmp_path, monkeypatch):
    # A bug in the compiler must fail the bench, not become a "compile error" row.
    small = tmp_path / "corpus"
    small.mkdir()
    (small / "tof_3.qasm").write_text(corpus_text("tof_3"))

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the compiler")

    monkeypatch.setattr(bench, "compile_circuit", broken)
    with pytest.raises(RuntimeError, match="bug in the compiler"):
        main(["bench", str(small)])


def test_compile_unlinked_hardware_exit_1(tmp_path, capsys):
    hwfile = tmp_path / "hw.yaml"
    hwfile.write_text(
        "qpus:\n"
        "  - {id: a, data_capacity: 3, epr_slots: 2}\n"
        "  - {id: b, data_capacity: 3, epr_slots: 2}\n"
        "links: []\n")
    f = tmp_path / "pair.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[6];\ncx q[0],q[5];\ncx q[1],q[4];\n"
                 "cx q[2],q[3];\ncx q[0],q[3];\n")
    assert main(["compile", str(f), "--hardware", str(hwfile)]) == 1
    # refused at load, before any gadget is built
    assert "exactly one link" in capsys.readouterr().err


def test_compile_three_qpu_hardware_exit_1(tmp_path):
    hwfile = tmp_path / "hw3.yaml"
    hwfile.write_text(
        "qpus:\n"
        "  - {id: a, data_capacity: 2, epr_slots: 2}\n"
        "  - {id: b, data_capacity: 2, epr_slots: 2}\n"
        "  - {id: c, data_capacity: 2, epr_slots: 2}\n"
        "links:\n"
        "  - {qpu_a: a, qpu_b: b, channels: 1}\n"
        "  - {qpu_a: b, qpu_b: c, channels: 1}\n")
    assert main(["compile", str(CORPUS_DIR / "tof_3.qasm"),
                 "--hardware", str(hwfile)]) == 1


QPU_PAIR = b"qpus:\n  - {id: a, data_capacity: 3}\n  - {id: b, data_capacity: 3}\n"
TWO_QPUS = QPU_PAIR + b"links:\n  - {qpu_a: a, qpu_b: b}\n"
MALFORMED_HARDWARE = {
    "qpu-without-id": b"qpus:\n  - {data_capacity: 3}\n  - {id: b, data_capacity: 3}\n",
    "capacity-not-a-number": b"qpus:\n  - {id: a, data_capacity: three}\n",
    "zero-duration": TWO_QPUS + b"durations: {cx: 0}\n",
    "truncated-yaml": b"qpus: [",
    "qpus-not-a-list": b"qpus: 5\n",
    "nan-epr-period": TWO_QPUS + b"durations: {epr_period: .nan}\n",
    "not-utf-8": b"\xffqpus: 5\n",
    "two-links": QPU_PAIR + (b"links:\n  - {qpu_a: a, qpu_b: b, channels: 1}\n"
                             b"  - {qpu_a: a, qpu_b: b, channels: 5}\n"),
    "no-link": QPU_PAIR,
    "link-to-unknown-qpu": QPU_PAIR + b"links:\n  - {qpu_a: a, qpu_b: c}\n",
    "fractional-capacity": TWO_QPUS.replace(b"data_capacity: 3}", b"data_capacity: 3.7}", 1),
    "boolean-epr-slots": TWO_QPUS.replace(b"data_capacity: 3}", b"data_capacity: 3, epr_slots: true}", 1),
    "boolean-duration": TWO_QPUS + b"durations: {cx: true}\n",
    "quoted-epr-period": TWO_QPUS + b'durations: {epr_period: "50"}\n',
}


@pytest.mark.parametrize("command", ["compile", "bench"])
@pytest.mark.parametrize("spec", MALFORMED_HARDWARE.values(), ids=MALFORMED_HARDWARE.keys())
def test_malformed_hardware_exit_1(tmp_path, capsys, command, spec):
    hwfile = tmp_path / "hw.yaml"
    hwfile.write_bytes(spec)
    target = CORPUS_DIR / "tof_3.qasm" if command == "compile" else CORPUS_DIR
    assert main([command, str(target), "--hardware", str(hwfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_small_compile_prints_no_topology_warning(tmp_path, capsys):
    # default hardware for 2 qubits puts lambda_2 exactly on the threshold
    f = tmp_path / "pair.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
    assert main(["compile", str(f)]) == 0
    assert capsys.readouterr().err == ""


def test_wide_interconnect_still_warns(tmp_path, capsys):
    hwfile = tmp_path / "hw.yaml"
    hwfile.write_text(
        "qpus:\n  - {id: a, data_capacity: 2}\n  - {id: b, data_capacity: 2}\n"
        "links:\n  - {qpu_a: a, qpu_b: b, channels: 8}\n")
    f = tmp_path / "pair.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
    assert main(["compile", str(f), "--hardware", str(hwfile)]) == 0
    assert "weakly clustered (lambda_2=1.528 > 1.0)" in capsys.readouterr().err


def test_verify_tof3_exit_0():
    assert main(["verify", str(CORPUS_DIR / "tof_3.qasm")]) == 0


def test_verify_identity_circuit_exit_0(tmp_path):
    f = tmp_path / "idle.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\n")
    assert main(["verify", str(f)]) == 0


def test_verify_too_wide_exit_1():
    assert main(["verify", str(CORPUS_DIR / "gf2_4_mult.qasm")]) == 1


def test_verify_detects_dropped_correction(tmp_path, monkeypatch):
    real = gadgets.expand_remote_cnot

    def sabotaged(ctrl, tgt, epr, bits):
        seq = real(ctrl, tgt, epr, bits)
        # drop the phase correction on the control
        from dqcc.circuits import GateKind
        return [g for g in seq if g.kind != GateKind.CC_Z]

    monkeypatch.setattr(gadgets, "expand_remote_cnot", sabotaged)
    f = tmp_path / "pair.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
    assert main(["verify", str(f)]) == 3
