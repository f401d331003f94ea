"""OpenQASM 2.0 subset: parser and emitter.

Supported statements: qreg, creg, the gates x z s sdg t tdg h rx rz cx ccx,
measure, barrier, and single-bit classical control `if(c==1) x|z ...;`.
`include "qelib1.inc"` is accepted and ignored. Custom gate definitions are
rejected. Qubit indices flatten registers in declaration order.
"""
from __future__ import annotations

import math
import re
from operator import itemgetter

from .circuits import Circuit, CircuitError, Gate, GateKind


class QasmError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


# Whitespace and comments are the unnamed alternatives, so their matches have
# no lastgroup and are dropped; `bad` catches any character no token starts.
_TOKEN_RE = re.compile(r"""
    \s+ | //[^\n]*
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<id>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<str>"[^"\n]*")
  | (?P<op>==|->|[-+*/()\[\],;{}])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# A token is (kind, text, offset into the source text).
_Tok = tuple[str, str, int]

_GATES = {  # name -> (kind, operand count)
    "x": (GateKind.X, 1), "z": (GateKind.Z, 1), "s": (GateKind.S, 1),
    "sdg": (GateKind.SDG, 1), "t": (GateKind.T, 1), "tdg": (GateKind.TDG, 1),
    "h": (GateKind.H, 1), "rx": (GateKind.RX, 1), "rz": (GateKind.RZ, 1),
    "cx": (GateKind.CX, 2), "ccx": (GateKind.CCX, 3),
}
_PARAM_GATES = {"rx", "rz"}

# Deepest run of open '(' and unary '-' an angle may nest; each level is a
# parser recursion, so this keeps a hostile angle off Python's stack limit.
MAX_ANGLE_NESTING = 100


class _Parser:
    """Tokenizes the whole text, then reads the tokens once, appending
    flat-indexed gates as it goes."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [(kind, m.group(), m.start())
                       for m in _TOKEN_RE.finditer(text) if (kind := m.lastgroup)]
        if "bad" in map(itemgetter(0), self.tokens):
            bad = next(tok for tok in self.tokens if tok[0] == "bad")
            raise self._error(f"unexpected character {bad[1]!r}", bad)
        self.pos = 0
        # register name -> (flat offset, size), in declaration order
        self.qregs: dict[str, tuple[int, int]] = {}
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_bits = 0
        self.gates: list[Gate] = []
        self.nesting = 0

    def _error(self, message: str, tok: _Tok) -> QasmError:
        """A QasmError at tok; line and column are worked out from its offset."""
        off = tok[2]
        return QasmError(message, self.text.count("\n", 0, off) + 1,
                         off - self.text.rfind("\n", 0, off))

    def _peek_text(self) -> str | None:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def _next(self) -> _Tok:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            last = self.tokens[-1] if self.tokens else ("", "", 0)
            raise self._error("unexpected end of input", last) from None
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Tok:
        tok = self._next()
        if tok[1] != text:
            raise self._error(f"expected {text!r}, found {tok[1]!r}", tok)
        return tok

    def _expect_kind(self, kind: str) -> _Tok:
        tok = self._next()
        if tok[0] != kind:
            raise self._error(f"expected {kind}, found {tok[1]!r}", tok)
        return tok

    # -- angle expressions ------------------------------------------------
    # expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    # factor := ['-'] (real | int | 'pi' | '(' expr ')')
    def _expr(self) -> float:
        value = self._term()
        while (op := self._peek_text()) in ("+", "-"):
            self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while (op := self._peek_text()) in ("*", "/"):
            tok = self._next()
            rhs = self._factor()
            if op == "/":
                if rhs == 0:
                    raise self._error("division by zero in angle", tok)
                value /= rhs
            else:
                value *= rhs
        return value

    def _factor(self) -> float:
        tok = self._next()
        kind, text, _ = tok
        if text in ("-", "("):
            if self.nesting == MAX_ANGLE_NESTING:
                raise self._error(
                    f"angle nested deeper than {MAX_ANGLE_NESTING} levels", tok)
            self.nesting += 1
            if text == "-":
                value = -self._factor()
            else:
                value = self._expr()
                self._expect(")")
            self.nesting -= 1
            return value
        if kind in ("real", "int"):
            return float(text)
        if text == "pi":
            return math.pi
        raise self._error(f"bad angle term {text!r}", tok)

    # -- program ----------------------------------------------------------
    def parse(self) -> Circuit:
        tok = self._expect("OPENQASM")
        version = self._expect_kind("real")[1]
        if version != "2.0":
            raise self._error(f"unsupported OPENQASM version {version}", tok)
        self._expect(";")
        while self.pos < len(self.tokens):
            self._statement()
        return Circuit(self.num_qubits, self.num_bits, self.gates)

    def _add(self, tok: _Tok, kind: GateKind, qubits: tuple[int, ...],
             params: tuple[float, ...] = (), bits: tuple[int, ...] = ()) -> None:
        """Append one gate; a gate the IR rejects is an error at tok."""
        try:
            self.gates.append(Gate(kind, qubits, params, bits))
        except CircuitError as exc:
            raise self._error(str(exc), tok) from None

    def _statement(self) -> None:
        tok = self._next()
        text = tok[1]
        if text in _GATES:
            gate_kind, arity = _GATES[text]
            params: tuple[float, ...] = ()
            if text in _PARAM_GATES:
                self._expect("(")
                params = (self._expr(),)
                self._expect(")")
            operands = [self._ref(self.qregs, "qreg")]
            while self._peek_text() == ",":
                self.pos += 1
                operands.append(self._ref(self.qregs, "qreg"))
            self._expect(";")
            if len(operands) != arity:
                raise self._error(f"{text} expects {arity} operand(s), "
                                  f"got {len(operands)}", tok)
            self._add(tok, gate_kind, tuple(operands), params)
        elif text == "include":
            inc = self._expect_kind("str")
            if inc[1] != '"qelib1.inc"':
                raise self._error(f"unsupported include {inc[1]}", inc)
            self._expect(";")
        elif text in ("qreg", "creg"):
            name_tok = self._expect_kind("id")
            name = name_tok[1]
            if name in self.qregs or name in self.cregs:
                raise self._error(f"duplicate register name {name!r}", name_tok)
            self._expect("[")
            size = int(self._expect_kind("int")[1])
            self._expect("]")
            self._expect(";")
            if size < 1:
                raise self._error("register size must be >= 1", name_tok)
            if text == "qreg":
                self.qregs[name] = (self.num_qubits, size)
                self.num_qubits += size
            else:
                self.cregs[name] = (self.num_bits, size)
                self.num_bits += size
        elif text == "measure":
            q = self._ref(self.qregs, "qreg")
            self._expect("->")
            b = self._ref(self.cregs, "creg")
            self._expect(";")
            self._add(tok, GateKind.MEASURE, (q,), bits=(b,))
        elif text == "barrier":
            qubits = self._barrier_operand()
            while self._peek_text() == ",":
                self.pos += 1
                qubits.extend(self._barrier_operand())
            self._expect(";")
            self._add(tok, GateKind.BARRIER, tuple(qubits))
        elif text == "if":
            self._expect("(")
            name_tok, (bit, size) = self._register(self.cregs, "creg")
            if size != 1:
                raise self._error("classical control requires a single-bit creg", name_tok)
            self._expect("==")
            val_tok = self._expect_kind("int")
            if val_tok[1] != "1":
                raise self._error("only `== 1` conditions are supported", val_tok)
            self._expect(")")
            gate_tok = self._next()
            if gate_tok[1] not in ("x", "z"):
                raise self._error(f"unsupported conditioned gate {gate_tok[1]!r}", gate_tok)
            q = self._ref(self.qregs, "qreg")
            self._expect(";")
            cc_kind = GateKind.CC_X if gate_tok[1] == "x" else GateKind.CC_Z
            self._add(tok, cc_kind, (q,), bits=(bit,))
        elif text == "gate" or text == "opaque":
            raise self._error("custom gate definitions are not supported", tok)
        else:
            raise self._error(f"unsupported statement {text!r}", tok)

    def _register(self, regs: dict[str, tuple[int, int]],
                  what: str) -> tuple[_Tok, tuple[int, int]]:
        """A declared register's name token and (flat offset, size)."""
        name_tok = self._expect_kind("id")
        reg = regs.get(name_tok[1])
        if reg is None:
            raise self._error(f"undeclared {what} {name_tok[1]!r}", name_tok)
        return name_tok, reg

    def _index(self, name_tok: _Tok, size: int) -> int:
        """`[i]` after a register name, checked against its size."""
        self._expect("[")
        idx = int(self._expect_kind("int")[1])
        self._expect("]")
        if not 0 <= idx < size:
            raise self._error(f"index {idx} out of bounds for {name_tok[1]}[{size}]",
                              name_tok)
        return idx

    def _ref(self, regs: dict[str, tuple[int, int]], what: str) -> int:
        """A flat index from `name[i]`."""
        name_tok, (offset, size) = self._register(regs, what)
        return offset + self._index(name_tok, size)

    def _barrier_operand(self) -> list[int]:
        """One barrier operand: q[i] or a whole register q."""
        name_tok, (offset, size) = self._register(self.qregs, "qreg")
        if self._peek_text() == "[":
            return [offset + self._index(name_tok, size)]
        return list(range(offset, offset + size))


def parse_qasm(text: str) -> Circuit:
    """Parse QASM text into a flat-indexed Circuit. Gate order is preserved;
    qubit indices flatten registers in declaration order. Every fault,
    including an operand list the IR rejects, is a QasmError with a line and
    column."""
    return _Parser(text).parse()


_EMIT_NAMES = {kind: name for name, (kind, _) in _GATES.items()}


def emit_qasm(circuit: Circuit) -> str:
    """Emit a circuit as OpenQASM 2.0 text.

    Classical bits become single-bit cregs (b0, b1, ...) so that
    classically-controlled corrections can be written as `if(bk==1) ...`.
    parse_qasm(emit_qasm(c)) reproduces c gate for gate.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{circuit.num_qubits}];"]
    for b in range(circuit.num_bits):
        lines.append(f"creg b{b}[1];")
    for gate in circuit.gates:
        if gate.kind in _EMIT_NAMES:
            name = _EMIT_NAMES[gate.kind]
            args = ",".join(f"q[{i}]" for i in gate.qubits)
            if gate.params:
                params = ",".join(repr(p) for p in gate.params)
                lines.append(f"{name}({params}) {args};")
            else:
                lines.append(f"{name} {args};")
        elif gate.kind == GateKind.MEASURE:
            lines.append(f"measure q[{gate.qubits[0]}] -> b{gate.bits[0]}[0];")
        elif gate.kind == GateKind.BARRIER:
            args = ",".join(f"q[{i}]" for i in gate.qubits)
            lines.append(f"barrier {args};")
        elif gate.kind == GateKind.CC_X:
            lines.append(f"if(b{gate.bits[0]}==1) x q[{gate.qubits[0]}];")
        elif gate.kind == GateKind.CC_Z:
            lines.append(f"if(b{gate.bits[0]}==1) z q[{gate.qubits[0]}];")
        else:
            raise QasmError(f"gate kind {gate.kind.value} has no QASM form")
    return "\n".join(lines) + "\n"
