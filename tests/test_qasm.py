import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from dqcc import Circuit, GateKind, emit_qasm, parse_qasm
from dqcc.qasm import QasmError

from conftest import corpus_text


def test_minimal_program():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; cx q[0],q[1];")
    assert c.num_qubits == 2
    assert len(c.gates) == 1
    assert c.gates[0].kind == GateKind.CX
    assert c.gates[0].qubits == (0, 1)


def test_empty_body():
    c = parse_qasm("OPENQASM 2.0; qreg q[1];")
    assert c.num_qubits == 1
    assert c.gates == []


def test_include_ignored_and_comments():
    c = parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\n// nothing\nqreg q[1];\nh q[0];\n')
    assert len(c.gates) == 1


def test_register_flattening_order():
    c = parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a[1],b[0];")
    assert c.gates[0].qubits == (1, 2)


def test_angle_expressions():
    c = parse_qasm("OPENQASM 2.0; qreg q[1]; rz(pi/4) q[0]; rx(-pi/2) q[0]; "
                   "rz(3*pi/4) q[0]; rz(0.25) q[0]; rz(2) q[0];")
    angles = [g.params[0] for g in c.gates]
    assert angles == pytest.approx(
        [math.pi / 4, -math.pi / 2, 3 * math.pi / 4, 0.25, 2.0])


def test_measure_and_condition():
    text = ("OPENQASM 2.0; qreg q[2]; creg m[1]; "
            "measure q[0] -> m[0]; if(m==1) x q[1]; if(m==1) z q[0];")
    c = parse_qasm(text)
    kinds = [g.kind for g in c.gates]
    assert kinds == [GateKind.MEASURE, GateKind.CC_X, GateKind.CC_Z]
    assert c.gates[1].bits == (0,)


def test_barrier_whole_register():
    c = parse_qasm("OPENQASM 2.0; qreg q[3]; barrier q;")
    assert c.gates[0].kind == GateKind.BARRIER
    assert c.gates[0].qubits == (0, 1, 2)


def test_syntax_error_reports_position():
    with pytest.raises(QasmError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0] q[1];")
    assert "line 3" in str(err.value)


def test_unsupported_gate_rejected():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0; qreg q[2]; cy q[0],q[1];")


def test_out_of_bounds_index():
    with pytest.raises(QasmError) as err:
        parse_qasm("OPENQASM 2.0; qreg q[2]; h q[2];")
    assert "out of bounds" in str(err.value)


def test_duplicate_register_name():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0; qreg q[2]; creg q[1];")


def test_custom_gate_definitions_rejected():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0; gate foo a { h a; } qreg q[1];")


_H = "OPENQASM 2.0;\nqreg q[2]; creg c[1];\n"

# One case per QasmError raise site: (text, line, column, message).
ERROR_SITES = {
    "unexpected character": (_H + "h q[0]; @\n", 3, 9, "unexpected character '@'"),
    "unexpected end of input": (_H + "  h q[0]", 3, 8, "unexpected end of input"),
    "unexpected end, empty text": ("", 1, 1, "unexpected end of input"),
    "expected text": (_H + "cx q[0] q[1];", 3, 9, "expected ';', found 'q'"),
    "expected kind": (_H + "h q[x];", 3, 5, "expected int, found 'x'"),
    "undeclared qreg": (_H + "h  r[0];", 3, 4, "undeclared qreg 'r'"),
    "undeclared qreg in barrier": (_H + "barrier q, r;", 3, 12, "undeclared qreg 'r'"),
    "undeclared creg in measure": (_H + "measure q[0] -> d[0];", 3, 17,
                                   "undeclared creg 'd'"),
    "undeclared creg in if": (_H + "if(d==1) x q[0];", 3, 4, "undeclared creg 'd'"),
    "qubit index out of bounds": (_H + "cx q[0], q[2];", 3, 10,
                                  "index 2 out of bounds for q[2]"),
    "bit index out of bounds": (_H + "measure q[0] -> c[1];", 3, 17,
                                "index 1 out of bounds for c[1]"),
    "duplicate register": (_H + "  qreg c[3];", 3, 8, "duplicate register name 'c'"),
    "register size": (_H + "creg d[0];", 3, 6, "register size must be >= 1"),
    "bad version": ("\n OPENQASM 3.0;", 2, 2, "unsupported OPENQASM version 3.0"),
    "bad include": (_H + 'include "foo.inc";', 3, 9, 'unsupported include "foo.inc"'),
    "unsupported statement": (_H + "cy q[0],q[1];", 3, 1, "unsupported statement 'cy'"),
    "custom gate": (_H + "gate foo a { h a; }", 3, 1,
                    "custom gate definitions are not supported"),
    "opaque gate": (_H + "opaque foo a;", 3, 1, "custom gate definitions are not supported"),
    "arity": (_H + "h q[0]; cx q[0];", 3, 9, "cx expects 2 operand(s), got 1"),
    "bad angle term": (_H + "rz(pi*q) q[0];", 3, 7, "bad angle term 'q'"),
    "division by zero": (_H + "rx(pi/(1-1)) q[0];", 3, 6, "division by zero in angle"),
    "non-single-bit creg": ("OPENQASM 2.0;\nqreg q[1]; creg c[2];\nif(c==1) x q[0];", 3, 4,
                            "classical control requires a single-bit creg"),
    "== 1 only": (_H + "if(c==0) x q[0];", 3, 7, "only `== 1` conditions are supported"),
    "unsupported conditioned gate": (_H + "if(c==1) h q[0];", 3, 10,
                                     "unsupported conditioned gate 'h'"),
    # Operand lists the circuit IR rejects, reported at the statement's first token.
    "duplicate operand": (_H + "cx q[0],q[0];", 3, 1,
                          "duplicate qubit operand in cx: (0, 0)"),
    "duplicate barrier operand": (_H + "barrier q,q[0];", 3, 1,
                                  "duplicate qubit operand in barrier: (0, 1, 0)"),
    "infinite angle": (_H + "rz(1e999) q[0];", 3, 1, "non-finite parameter in rz: inf"),
    "nan angle": (_H + "h q[0]; rx(1e308*10-1e308*10) q[1];", 3, 9,
                  "non-finite parameter in rx: nan"),
    # The 101st nesting level is refused; the gate's own '(' does not count.
    "nested parentheses": (_H + "rz(" + "(" * 400 + "1" + ")" * 400 + ") q[0];", 3, 104,
                           "angle nested deeper than 100 levels"),
    "nested unary minus": (_H + "rz(" + "-" * 2000 + "1) q[0];", 3, 104,
                           "angle nested deeper than 100 levels"),
}


@pytest.mark.parametrize("text,line,col,message", ERROR_SITES.values(), ids=ERROR_SITES.keys())
def test_error_position(text, line, col, message):
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == f"line {line}, column {col}: {message}"


def test_angle_nesting_limit_is_reached_not_passed():
    angle = "-(" * 50 + "pi" + ")" * 50
    c = parse_qasm(_H + f"rz({angle}) q[0];")
    assert c.gates[0].params == (math.pi,)


def test_bad_character_reported_before_earlier_syntax_error():
    with pytest.raises(QasmError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0] q[0];\n// ok @\nh q[0]; $")
    assert str(err.value) == "line 5, column 9: unexpected character '$'"


def test_emit_simple():
    c = Circuit(1).h(0)
    assert "h q[0];" in emit_qasm(c)


def test_emit_conditioned_gate_roundtrip():
    c = Circuit(2, 1)
    c.measure(0, 0)
    c.cc_x(0, 1)
    text = emit_qasm(c)
    assert "if(b0==1) x q[1];" in text
    assert parse_qasm(text) == c


def test_roundtrip_barenco_file():
    base = parse_qasm(corpus_text("barenco_tof_3"))
    again = parse_qasm(emit_qasm(base))
    assert again == base


def test_corpus_parses_and_roundtrips(corpus_dir):
    files = sorted(corpus_dir.glob("*.qasm"))
    assert len(files) == 17
    for path in files:
        c = parse_qasm(path.read_text())
        assert parse_qasm(emit_qasm(c)) == c, path.name


@st.composite
def random_circuits(draw):
    n = draw(st.integers(2, 5))
    c = Circuit(n, 1)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["h", "x", "t", "cx", "rz", "measure", "cc_x"]))
        q = draw(st.integers(0, n - 1))
        if kind == "cx":
            r = draw(st.integers(0, n - 2))
            r = r if r < q else r + 1
            c.cx(q, r)
        elif kind == "rz":
            c.rz(q, draw(st.floats(-10, 10, allow_nan=False, allow_infinity=False,
                                   allow_subnormal=False)))
        elif kind == "measure":
            c.measure(q, 0)
        elif kind == "cc_x":
            c.cc_x(0, q)
        else:
            getattr(c, kind)(q)
    return c


@given(random_circuits())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_circuits(c):
    assert parse_qasm(emit_qasm(c)) == c


# Tokens of emitted text; the separators below go between them.
_EMITTED_TOKEN = re.compile(r'\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+|\w+|"[^"]*"|==|->|\S')
_SEPARATORS = [" ", "\n", "\t", "  \n ", "// c\n", " // cx q[0]; @\n", "\r\n//\n\n"]


@given(random_circuits(), st.data())
@settings(max_examples=60, deadline=None)
def test_whitespace_and_comments_between_tokens(c, data):
    tokens = _EMITTED_TOKEN.findall(emit_qasm(c))
    seps = data.draw(st.lists(st.sampled_from(_SEPARATORS),
                              min_size=len(tokens), max_size=len(tokens)))
    assert parse_qasm("".join(t + sep for t, sep in zip(tokens, seps))) == c


def test_comment_inside_statement():
    c = parse_qasm("OPENQASM 2.0; qreg q[2]; cx q[0], // c\n q[1]; rz(pi // half\n /2) q[0];")
    assert c == Circuit(2).cx(0, 1).rz(0, math.pi / 2)
