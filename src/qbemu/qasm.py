"""OpenQASM 2.0 frontend for the native gate set.

Parses a supported subset of OpenQASM 2.0 into native gate columns (see
:mod:`qbemu.columns`).  Every gate of qelib1.inc is built in, and every gate
name has a template of the native rows a call lowers to.  The native twelve
(``p`` is ``u1``) and ``CX cx ch crx cry crz cu1 cp`` are primitives; ``U u3 u
u2 id u0 sx sxdg cz cy swap ccx cswap cu3 csx cu rxx rzz rccx rc3x c3x c3sqrtx
c4x`` are ``gate`` lines in ``_PRELUDE``, read once as a user's are: a gate's
template splices together its body's templates when it is defined, and a name
cannot be defined twice.  ``U`` is RZ(phi) RY(theta) RZ(lambda), qelib1's U
times exp(-i(phi+lambda)/2).  Calls wait in a batch that is checked and
lowered in array passes: each call gathers its template's rows on its qubits.

``measure`` and ``barrier`` statements are accepted and dropped; ``creg``
declarations are recorded but otherwise ignored.  ``if``, ``reset`` and
``opaque`` are rejected, as is OpenQASM 3.

Qubits are flattened in register declaration order, with index 0 of the
first register as flat qubit 0 (the least significant bit of an amplitude
index).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .columns import Columns
from .config import quote
from .gates import ROTATIONAL, GateKind, gate_columns


class QasmError(Exception):
    """Parse or lowering failure, with source position."""

    def __init__(self, message: str, filename: str = "<input>", line: int = 0, col: int = 0):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col


@dataclass
class SourceCircuit:
    """Parsed circuit: native gate columns over the declared qubits, flat in
    register declaration order.

    ``gates`` may also be given as ``GateApplication`` rows; they are stored
    as columns.
    """

    qubit_count: int
    gates: Columns

    def __post_init__(self) -> None:
        if not isinstance(self.gates, Columns):
            self.gates = gate_columns(
                zip(*((g.kind, g.target, g.target if g.control is None else g.control,
                       0.0 if g.angle is None else g.angle) for g in self.gates))
            )


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Lexical grammar, shared by the tokenizer and the call pattern below.  A
# comment runs to the end of its line: the lookahead keeps a pattern that
# backtracks from reading part of one as code.
_SKIP = r"(?:[ \t\r\n]|//[^\n]*(?![^\n]))"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_REAL = r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_INT = r"[0-9]+"

# Whitespace and comments are one skipped alternative with no named group; it
# comes before the punctuation so that ``//`` never reads as two slashes.  The
# final catch-all makes every character part of some match.  Apart from those
# two, no alternatives share a first character (``real`` before ``int``), so
# their order only sets speed: the most frequent tokens come first.
_TOKEN_RE = re.compile(
    rf"""
    {_SKIP}+
  | (?P<id>{_ID})
  | (?P<punct>->|==|[;,(){{}}\[\]+\-*/^])
  | (?P<real>{_REAL})
  | (?P<int>{_INT})
  | (?P<string>"[^"\n]*")
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# The commonest statement in one match, after the whitespace and comments
# before it: a gate name, optionally number literals (each maybe negated) in
# parentheses, one or two ``reg[i]`` of at most five index digits, and ``;``,
# with no comment inside.  What may follow each part cannot continue it, so a
# part only matches as the whole token the tokenizer reads there.
_S = r"[ \t\r\n]*"  # never two in a row: a failing match backtracks through whitespace once
_NUMBER = rf"{_S}-?(?:{_REAL}|{_INT}){_S}"
_CALL_RE = re.compile(
    rf"{_SKIP}*(?P<name>{_ID})(?=[( \t\r\n]){_S}"
    rf"(?:\((?P<angles>{_NUMBER}(?:,{_NUMBER})*)\){_S})?"
    rf"(?P<reg1>{_ID}){_S}\[{_S}(?P<idx1>[0-9]{{1,5}}){_S}\]{_S}"
    rf"(?:,{_S}(?P<reg2>{_ID}){_S}\[{_S}(?P<idx2>[0-9]{{1,5}}){_S}\]{_S})?;"
)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` items starts."""
    return np.cumsum(counts) - counts


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of character offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokens(text: str, start: int = 0):
    """``(kind, text, offset)`` per token from offset ``start`` on, ending with
    an ``eof`` token; each is read when asked for.

    Punctuation tokens use their own text as the kind.  A character no token
    starts with is a ``bad`` token, which no parser step takes.
    """
    for m in _TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = m.group()
        if kind == "punct":
            kind = tok
        yield kind, tok, m.start()
    yield "eof", "", len(text)


# ---------------------------------------------------------------------------
# Supported gate surface
# ---------------------------------------------------------------------------

# Gates named by their opcodes, and controlled ones that set an opcode's control field.
_NATIVE_1Q = {**{kind.name.lower(): kind for kind in GateKind}, "p": GateKind.U1}
_CONTROLLED_NATIVE = {"CX": GateKind.X, **{"c" + n: _NATIVE_1Q[n] for n in ("x", "h", "rx", "ry", "rz", "u1", "p")}}


class _Template:
    """The native rows one call of a gate lowers to.

    Angle slot 0 holds 0.0 (no angle), slots ``1..params`` the call's angle
    arguments, and each later slot the value of one of ``evals``, an
    ``(expression, reads, pos)`` evaluated in order at every call, where
    slot ``k`` of the parsed expression reads our slot ``reads[k]``: a splice
    shares the expression tree and maps only its slots; a built-in's ``pos``
    is None, the call's.  ``fail`` is the ``(message, pos)`` of an error every
    call raises after ``evals``.  Row ``k`` is native opcode ``opcodes[k]`` on
    the call's qubit arguments ``targets[k]`` and ``controls[k]`` (equal when
    uncontrolled), with the angle in slot ``angles[k]``.
    """

    def __init__(self, params: int, qubits: int, rows=()):
        self.params, self.qubits = params, qubits
        self.evals, self.fail = [], None
        columns = list(zip(*rows)) or [()] * 4
        self.opcodes, self.targets, self.controls, self.angles = (list(map(int, col)) for col in columns)

    def eval(self, node, pos: int) -> int:
        """Slot of the value of ``node``, parsed in our body; a bare slot needs no evaluation."""
        if node[0] == "slot":
            return node[1]
        self.evals.append((node, range(self.params + 1), pos))
        return self.params + len(self.evals)

    def splice(self, sub: "_Template", args: list[int], qubits: list[int], pos: int) -> None:
        """Append a call of ``sub`` at ``pos``: ``args`` are the slots of its angle
        arguments and ``qubits`` the indices of its qubits among ours."""
        slots = [0, *args]
        for node, reads, at in sub.evals:
            self.evals.append((node, [slots[k] for k in reads], pos if at is None else at))
            slots.append(self.params + len(self.evals))
        self.opcodes += sub.opcodes
        self.targets += [qubits[k] for k in sub.targets]
        self.controls += [qubits[k] for k in sub.controls]
        self.angles += [slots[k] for k in sub.angles]
        self.fail = sub.fail


def _rot(kind: GateKind) -> int:
    return int(kind in ROTATIONAL)


# name -> template, over the whole built-in surface: these primitives, and below the gates of _PRELUDE
_BUILTINS = {
    **{name: _Template(_rot(k), 1, [(k, 0, 0, _rot(k))]) for name, k in _NATIVE_1Q.items()},
    **{name: _Template(_rot(k), 2, [(k, 1, 0, _rot(k))]) for name, k in _CONTROLLED_NATIVE.items()},
}

# The rest of qelib1.inc, one gate a line, as Qiskit ships it but where a comment says otherwise.
_PRELUDE = """OPENQASM 2.0;
// the primitives' lowering: U is RZ RY RZ, and id and u0 lower to nothing
gate U(theta,phi,lambda) q { rz(lambda) q; ry(theta) q; rz(phi) q; }
gate u3(theta,phi,lambda) q { U(theta,phi,lambda) q; }
gate u(theta,phi,lambda) q { U(theta,phi,lambda) q; }
gate u2(phi,lambda) q { U(pi/2,phi,lambda) q; }
gate id a { }
gate u0(gamma) q { }
gate sx a { sdg a; h a; sdg a; }
gate sxdg a { s a; h a; s a; }
gate cz a,b { h b; cx a,b; h b; }
gate cy a,b { sdg b; cx a,b; s b; }
gate swap a,b { cx a,b; cx b,a; cx a,b; }
gate ccx a,b,c { h c; cx b,c; tdg c; cx a,c; t c; cx b,c; tdg c; cx a,c; t b; t c; h c; cx a,b; t a; tdg b; cx a,b; }
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
gate cu3(theta,phi,lambda) c,t { u1((lambda+phi)/2) c; u1((lambda-phi)/2) t; cx c,t; u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t; }
gate csx a,b { h b; cu1(pi/2) a,b; h b; }
gate cu(theta,phi,lambda,gamma) c,t { p(gamma) c; p((lambda+phi)/2) c; p((lambda-phi)/2) t; cx c,t; u(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u(theta/2,phi,0) t; }
gate rxx(theta) a,b { u3(pi/2,theta,0) a; h b; cx a,b; u1(-theta) b; cx a,b; h b; u2(-pi,pi-theta) a; }
gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }
gate rccx a,b,c { u2(0,pi) c; u1(pi/4) c; cx b,c; u1(-pi/4) c; cx a,c; u1(pi/4) c; cx b,c; u1(-pi/4) c; u2(0,pi) c; }
gate rc3x a,b,c,d { u2(0,pi) d; u1(pi/4) d; cx c,d; u1(-pi/4) d; u2(0,pi) d; cx a,d; u1(pi/4) d; cx b,d; u1(-pi/4) d; cx a,d; u1(pi/4) d; cx b,d; u1(-pi/4) d; u2(0,pi) d; u1(pi/4) d; cx c,d; u1(-pi/4) d; u2(0,pi) d; }
gate c3x a,b,c,d { h d; p(pi/8) a; p(pi/8) b; p(pi/8) c; p(pi/8) d; cx a,b; p(-pi/8) b; cx a,b; cx b,c; p(-pi/8) c; cx a,c; p(pi/8) c; cx b,c; p(-pi/8) c; cx a,c; cx c,d; p(-pi/8) d; cx b,d; p(pi/8) d; cx c,d; p(-pi/8) d; cx a,d; p(pi/8) d; cx c,d; p(-pi/8) d; cx b,d; p(pi/8) d; cx c,d; p(-pi/8) d; cx a,d; h d; }
gate c3sqrtx a,b,c,d { h d; cu1(pi/8) a,d; h d; cx a,b; h d; cu1(-pi/8) b,d; h d; cx a,b; h d; cu1(pi/8) b,d; h d; cx b,c; h d; cu1(-pi/8) c,d; h d; cx a,c; h d; cu1(pi/8) c,d; h d; cx b,c; h d; cu1(-pi/8) c,d; h d; cx a,c; h d; cu1(pi/8) c,d; h d; }
// qelib1's text calls rc3x twice, but rc3x is not its own inverse: the second is written out as its inverse
gate c4x a,b,c,d,e { h e; cu1(pi/2) d,e; h e; rc3x a,b,c,d; h e; cu1(-pi/2) d,e; h e; u2(0,pi) d; u1(pi/4) d; cx c,d; u1(-pi/4) d; u2(0,pi) d; u1(pi/4) d; cx b,d; u1(-pi/4) d; cx a,d; u1(pi/4) d; cx b,d; u1(-pi/4) d; cx a,d; u2(0,pi) d; u1(pi/4) d; cx c,d; u1(-pi/4) d; u2(0,pi) d; c3sqrtx a,b,c,e; }
"""


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Parser recursion is bounded far below Python's recursion limit: angle
# expressions nest at most MAX_EXPR_DEPTH levels (parentheses, unary minus,
# powers, function calls).  Gate definitions splice flat lists of rows and
# expressions, so how deep they nest is no depth of recursion.
MAX_EXPR_DEPTH = 100
# Most native gates and angle expressions one parse may lower: the rows and
# expressions spliced into every gate definition's template plus those of
# every call.  It is checked before they are added.
MAX_NATIVE_GATES = 1 << 20
# Largest register size; integer tokens with more digits are never converted.
MAX_REGISTER_SIZE = 1 << 16
# Rows a pending batch of calls holds at most.  The small objects of a longer
# batch stay in the allocator's arenas once it is lowered and add to peak memory.
_BATCH_ROWS = 4096
_MAX_INT_DIGITS = len(str(MAX_REGISTER_SIZE))

_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

_UNARY_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.stream = _tokens(text)  # the tokens being read, and the next of them
        self.tok = next(self.stream)
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (base, size)
        self.cregs: dict[str, int] = {}
        self.params: dict[str, int] = {}  # angle parameter -> slot, inside a gate definition
        self.expr_depth = 0
        self.qubit_count = 0
        self.lowered = 0  # native gates and angle expressions lowered so far
        self.templates = dict(_BUILTINS)  # gate name -> template, user gates added when defined
        # the pending batch: a row (name offset, name, angles, reg, idx, reg, idx) per call, with the angle
        # values as comma-separated literals, index None for a whole register and register None for none,
        self.calls: list[tuple] = []  # and a row of None, None, None and two more per two more arguments
        self.columns: list[tuple] = []  # the native gate columns lowered from each batch

    # -- token helpers ----------------------------------------------------

    def _at(self, kind: str) -> bool:
        return self.tok[0] == kind

    def _next(self) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] != "eof":
            self.tok = next(self.stream)
        return tok

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.tok[0] == kind:
            self.tok = next(self.stream)
            return True
        return False

    def _error(self, message: str, pos: int | None = None):
        """Raise at source offset ``pos``, by default the next token's.  If the
        next token is a bad character and ``pos`` is not before it, the error
        is that character's: of two errors, the one earlier in the text wins."""
        kind, text, at = self.tok
        pos = at if pos is None else pos
        if kind == "bad" and pos >= at:
            message, pos = f"unexpected character {quote(text)}", at
        raise QasmError(message, self.filename, *_line_col(self.text, pos))

    def _expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.tok
        if tok[0] != kind:
            text = tok[1]
            self._error(f"expected {what or kind}, found {quote(text)}" if text else f"expected {what or kind}", tok[2])
        self.tok = next(self.stream)
        return tok

    # -- top level ---------------------------------------------------------

    def parse(self) -> SourceCircuit:
        """Read the text statement by statement: each one the call pattern matches from its
        offset, or else from the tokens from there on.  A call joins the pending batch, lowered
        when full, before a register or gate declaration, at the end and before an error leaves."""
        self._parse_header()
        start = self.tok[2]  # offset of the statement being read
        try:
            while True:
                if len(self.calls) >= _BATCH_ROWS:
                    self._flush()
                m = _CALL_RE.match(self.text, start)
                if m and m[1] not in _STATEMENTS:
                    self.calls.append((m.start("name"), *m.groups()))
                    start = m.end()
                    continue
                self.stream = _tokens(self.text, start)
                self.tok = next(self.stream)
                if self._at("eof"):
                    break
                self._parse_statement()
                start = self.tok[2]
        except QasmError:
            self._flush()  # a pending call's error is the earlier one
            raise
        self._flush()
        return SourceCircuit(self.qubit_count, gate_columns(map(np.concatenate, zip(*self.columns))))

    def _parse_header(self) -> None:
        kind, text, _ = self.tok
        if kind != "id" or text != "OPENQASM":
            self._error("expected 'OPENQASM 2.0;' header")
        self._next()
        _, version, pos = self._expect("real", "version number")
        if version != "2.0":
            self._error(f"unsupported OpenQASM version {version}", pos)
        self._expect(";")

    def _parse_statement(self) -> None:
        kind, name, _ = self.tok
        if kind != "id":
            self._error(f"expected a statement, found {quote(name)}")
        handler = _STATEMENTS.get(name, _Parser._parse_gate_application)
        if isinstance(handler, str):
            self._error(handler)
        handler(self)

    def _parse_include(self) -> None:
        self._next()
        _, text, pos = self._expect("string", "include file name")
        if text.strip('"') != "qelib1.inc":
            self._error(f"unsupported include {text}; only \"qelib1.inc\" is built in", pos)
        self._expect(";")

    def _parse_register(self) -> None:
        self._flush()
        which = self._next()[1]
        _, name, name_pos = self._expect("id", "register name")
        if name in self.qregs or name in self.cregs:
            self._error(f"register {quote(name)} already declared", name_pos)
        self._expect("[")
        _, text, size_pos = self._expect("int", "register size")
        # the digit count is checked before int() converts the token
        if len(text.lstrip("0")) > _MAX_INT_DIGITS or (size := int(text)) > MAX_REGISTER_SIZE:
            self._error(f"register size exceeds the limit of {MAX_REGISTER_SIZE}", size_pos)
        if size <= 0:
            self._error("register size must be positive", size_pos)
        self._expect("]")
        self._expect(";")
        if which == "qreg":
            self.qregs[name] = (self.qubit_count, size)
            self.qubit_count += size
        else:
            self.cregs[name] = size

    # -- gate definitions ----------------------------------------------------

    def _parse_ids(self, what: str) -> list[str]:
        """A comma-separated list of at least one identifier."""
        names = [self._expect("id", what)[1]]
        while self._accept(","):
            names.append(self._expect("id", what)[1])
        return names

    def _parse_gate_definition(self) -> None:
        self._flush()
        self._next()
        _, name, name_pos = self._expect("id", "gate name")
        if name in self.templates:
            self._error(f"gate {quote(name)} already defined", name_pos)
        params: list[str] = []
        if self._accept("("):
            if not self._at(")"):
                params = self._parse_ids("parameter name")
            self._expect(")")
        qargs = self._parse_ids("qubit argument")
        if len(set(params)) != len(params) or len(set(qargs)) != len(qargs):
            self._error(f"duplicate formal argument in gate {quote(name)}", name_pos)
        self._expect("{")
        t = _Template(len(params), len(qargs))
        self.params = {p: k for k, p in enumerate(params, start=1)}
        while not self._at("}"):
            kind, op_name, op_pos = self.tok
            if kind != "id":
                self._error("expected a gate name in gate body")
            if op_name == "barrier":
                self._next()
                while self.tok[0] not in (";", "eof", "bad"):
                    self._next()
                self._expect(";")
                continue
            self._next()
            if op_name == name:
                self._error(f"recursive gate definition: {quote(name)} references itself", op_pos)
            if op_name not in self.templates:
                self._error(f"unknown gate {quote(op_name)} in body of {quote(name)}", op_pos)
            sub = self.templates[op_name]
            angle_exprs = list(self._parse_angle_args())
            op_qargs = self._parse_ids("qubit argument")
            self._expect(";")
            for q in op_qargs:
                if q not in qargs:
                    self._error(f"unknown qubit argument {quote(q)} in body of {quote(name)}", op_pos)
            self._check_arity(op_name, len(angle_exprs), len(op_qargs), op_pos)
            if t.fail:  # every call fails, so nothing after the failing op is lowered
                continue
            args = [t.eval(node, op_pos) for node in angle_exprs]
            qubits = [qargs.index(q) for q in op_qargs]
            if len(set(qubits)) != len(qubits):
                t.fail = (f"duplicate qubit in expansion of {quote(name)}", op_pos)
                continue
            self._lower(len(sub.opcodes) + len(sub.evals), op_pos)
            t.splice(sub, args, qubits, op_pos)
        self._expect("}")
        self.params = {}
        self.templates[name] = t

    def _parse_angle_args(self):
        """Parenthesized angle arguments, if any; each is parsed when asked for."""
        if self._accept("("):
            if not self._at(")"):
                yield self._parse_expr()
                while self._accept(","):
                    yield self._parse_expr()
            self._expect(")")

    def _check_arity(self, name: str, n_angles: int, n_qubits: int, pos: int) -> _Template:
        """The template of gate ``name``, if a call with these argument counts fits it."""
        t = self.templates[name]
        if n_angles != t.params:
            self._error(f"gate {quote(name)} takes {t.params} parameter(s), got {n_angles}", pos)
        if n_qubits != t.qubits:
            self._error(f"gate {quote(name)} takes {t.qubits} qubit argument(s), got {n_qubits}", pos)
        return t

    # -- expressions -------------------------------------------------------

    # Left-associative runs of + - or * / become one flat ("chain", first,
    # ((op, operand), ...)) node, so no run length deepens the tree.

    def _parse_expr(self):
        first = self._parse_term()
        rest = []
        while self.tok[0] in ("+", "-"):
            rest.append((self._next()[0], self._parse_term()))
        return ("chain", first, tuple(rest)) if rest else first

    def _parse_term(self):
        first = self._parse_factor()
        rest = []
        while self.tok[0] in ("*", "/"):
            rest.append((self._next()[0], self._parse_factor()))
        return ("chain", first, tuple(rest)) if rest else first

    def _parse_factor(self):
        """Every nesting level passes through here, so the depth is counted here."""
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_DEPTH:
            self._error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        node = self._parse_atom()
        if self._accept("^"):
            node = ("pow", node, self._parse_factor())
        self.expr_depth -= 1
        return node

    def _parse_atom(self):
        kind, text, pos = self.tok
        if kind == "-":
            self._next()
            return ("neg", self._parse_factor())
        if kind == "(":
            self._next()
            node = self._parse_expr()
            self._expect(")")
            return node
        if kind in ("real", "int"):
            self._next()
            return ("num", float(text))
        if kind == "id":
            self._next()
            if text == "pi":
                return ("num", math.pi)
            if text in _UNARY_FUNCS:
                self._expect("(")
                node = self._parse_expr()
                self._expect(")")
                return ("fun", text, node)
            if text in self.params:
                return ("slot", self.params[text])
            return ("param", text, pos)
        self._error(f"expected an expression, found {quote(text)}", pos)

    def _eval_angle(self, node, slots: list[float], pos: int) -> float:
        """Value of an angle expression over angle ``slots``; failures are positioned at ``pos``."""
        try:
            value = self._eval_expr(node, slots)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            self._error(f"cannot evaluate expression: {exc}", pos)
        if not math.isfinite(value):
            self._error(f"cannot evaluate expression: result is {value}", pos)
        return value

    def _eval_expr(self, node, slots: list[float]) -> float:
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "slot":
            return slots[node[1]]
        if tag == "neg":
            return -self._eval_expr(node[1], slots)
        if tag == "fun":
            return _UNARY_FUNCS[node[1]](self._eval_expr(node[2], slots))
        if tag == "param":  # a parameter no enclosing gate defines
            self._error(f"undefined parameter {quote(node[1])}", node[2])
        if tag == "chain":
            value = self._eval_expr(node[1], slots)
            for op, rhs in node[2]:
                value = _BINARY_OPS[op](value, self._eval_expr(rhs, slots))
            return value
        power = self._eval_expr(node[1], slots) ** self._eval_expr(node[2], slots)
        if isinstance(power, complex):  # negative base, fractional exponent
            raise ValueError("math domain error")
        return power

    # -- arguments and broadcast --------------------------------------------

    def _parse_arguments(self):
        """The comma-separated arguments of a statement, then its ``;``; each
        is parsed when asked for."""
        yield self._parse_argument()
        while self._accept(","):
            yield self._parse_argument()
        self._expect(";")

    def _parse_argument(self) -> tuple[str, int | None, int]:
        _, name, pos = self._expect("id", "register reference")
        idx = None
        if self._accept("["):
            _, text, idx_pos = self._expect("int", "index")
            if len(text) > _MAX_INT_DIGITS and len(text.lstrip("0")) > _MAX_INT_DIGITS:
                self._error(f"index exceeds the limit of {MAX_REGISTER_SIZE}", idx_pos)
            idx = int(text)  # range-checked against its register by _resolve_qubit_arg
            self._expect("]")
        return name, idx, pos

    def _resolve_qubit_arg(self, name: str, idx: int | None, pos: int) -> list[int]:
        if name not in self.qregs:
            self._error(f"unknown quantum register {quote(name)}", pos)
        base, size = self.qregs[name]
        if idx is None:
            return [base + k for k in range(size)]
        if not 0 <= idx < size:
            self._error(f"qubit index {name}[{idx}] out of range (size {size})", pos)
        return [base + idx]

    # -- statements that emit or drop gates -----------------------------------

    def _parse_measure(self) -> None:
        self._next()
        qname, qidx, qpos = self._parse_argument()
        self._expect("->")
        cname, cidx, cpos = self._parse_argument()
        self._expect(";")
        qubits = self._resolve_qubit_arg(qname, qidx, qpos)
        if cname not in self.cregs:
            self._error(f"unknown classical register {quote(cname)}", cpos)
        csize = self.cregs[cname]
        if cidx is None:
            if qidx is None and len(qubits) != csize:
                self._error("measure register size mismatch", cpos)
        elif not 0 <= cidx < csize:
            self._error(f"bit index {cname}[{cidx}] out of range (size {csize})", cpos)
        # measurement happens off-device; nothing is emitted

    def _parse_barrier(self) -> None:
        self._next()
        for arg in self._parse_arguments():
            self._resolve_qubit_arg(*arg)

    def _lower(self, count: int, pos: int) -> None:
        """Count ``count`` more native gates and angle expressions against the budget."""
        self.lowered += count
        if self.lowered > MAX_NATIVE_GATES:
            self._error(f"gate expansion exceeds the limit of {MAX_NATIVE_GATES} native gates", pos)

    def _parse_gate_application(self) -> None:
        name, name_pos, values, args = self._read_call()
        flat = [x for arg in args for x in arg[:2]] + [None, None]
        fields = (name_pos, name, ",".join(map(repr, values)) or None)  # repr reads back as the same float
        self.calls += [(*((None,) * 3 if k else fields), *flat[k : k + 4]) for k in range(0, len(args) * 2, 4)]

    def _read_call(self) -> tuple[str, int, list[float], list[tuple[str, int | None, int]]]:
        """A call read from the tokens: name, position, angle values and ``(register, index, pos)``
        arguments.  The name, then each angle and argument, is checked before the next is read."""
        _, name, name_pos = self._next()
        if name not in self.templates:
            self._error(f"unknown gate {quote(name)}", name_pos)
        values = [self._eval_angle(node, [], name_pos) for node in self._parse_angle_args()]
        return name, name_pos, values, [arg for arg in self._parse_arguments() if self._resolve_qubit_arg(*arg)]

    def _check_call(self, offset: int) -> None:
        """Read the call at ``offset`` again from the tokens and raise its first error."""
        self.stream, self.expr_depth = _tokens(self.text, offset), 0
        self.tok = next(self.stream)
        name, name_pos, values, args = self._read_call()
        operands = [self._resolve_qubit_arg(*arg) for arg in args]
        t = self._check_arity(name, len(values), len(operands), name_pos)
        n = max(map(len, operands))  # qubit rows: a whole-register argument gives one qubit to each
        if any(len(ops) not in (1, n) for ops in operands):
            self._error("mismatched register sizes in broadcast", name_pos)
        if any(len(set(row)) != len(row) for row in zip(*(ops * n if len(ops) == 1 else ops for ops in operands))):
            self._error("duplicate qubit in gate arguments", name_pos)
        self._lower(len(t.evals) + n * len(t.opcodes), name_pos)
        self._error(*t.fail)  # what is left of a call the masks flag, after its expressions

    def _flush(self) -> None:
        """Lower the pending calls in array passes.  The first call a mask flags is read again, which raises
        its error, once the calls before it evaluate their expressions; else each gathers its template's rows."""
        if not self.calls:
            return
        offsets, names, angles, *args = zip(*self.calls)
        self.calls.clear()
        used = {name: k for k, name in enumerate(dict.fromkeys(names))}  # None: a row of further arguments
        temps = [self.templates.get(name, _BUILTINS["id"]) for name in used]  # an unknown name fails below
        params, width, nrows, nevals, fail = map(np.array, zip(*(
            (t.params, t.qubits, len(t.opcodes), len(t.evals), t.fail is not None or name not in self.templates)
            for name, t in zip(used, temps))))
        tid = np.fromiter(map(used.__getitem__, names), np.int64, len(names))
        heads = tid != used.get(None, -1)
        head, tid = np.flatnonzero(heads), tid[heads]  # each call's first row and template
        nang = np.array([a.count(",") + 1 if a else 0 for a in angles], np.int64)[head]
        values = list(map(float, filter(None, ",".join(filter(None, angles)).split(","))))
        ids = {reg: k for k, reg in enumerate(dict.fromkeys(args[0] + args[2]))}  # the batch's registers, None too
        reg = np.fromiter(map(ids.__getitem__, args[0] + args[2]), np.int64).reshape(2, -1).T.ravel()  # in call order
        base, size = np.array([self.qregs.get(r, (0, -1) if r else (0, 0)) for r in ids], np.int64)[reg].T
        index = args[1] + args[3]  # size -1: no such register, 0: no argument; index -1: the whole register
        index = np.fromiter(map({None: -1}.get, index, index), np.int64).reshape(2, -1).T.ravel()
        opcall = np.repeat(np.cumsum(heads) - 1, 2)
        length = np.maximum(np.where(index < 0, size, 1), 1)  # row r of a call takes qubit r of a whole register
        rows = np.maximum.reduceat(length, 2 * head)
        a, b = (order := np.lexsort((index, reg, opcall)))[:-1], order[1:]  # by call, register, index (-1 first)
        dup = (opcall[a] == opcall[b]) & (reg[a] == reg[b]) & ((index[a] < 0) | (index[a] == index[b]))
        total = self.lowered + np.cumsum(count := nevals[tid] + rows * nrows[tid])
        bad = (nang != params[tid]) | (np.bincount(opcall, size != 0) != width[tid]) | (total > MAX_NATIVE_GATES)
        bad[opcall[(size < 0) | (index >= size) | ((length != 1) & (length != rows[opcall]))]] = True
        bad[np.concatenate((np.repeat(np.arange(len(head)), nang)[~np.isfinite(values)], opcall[b[dup]]))] = True
        first = int(next(iter(np.flatnonzero(bad | fail[tid])), len(head)))
        aoff, evals = _starts(nang), []
        # expressions of the calls before the first flagged one, and its own if only its template fails
        for i in np.flatnonzero(nevals[tid[: first + (first < len(head) and not bad[first])]]):
            slots = [0.0, *values[aoff[i] : aoff[i] + nang[i]]]
            for node, reads, pos in temps[tid[i]].evals:
                slots.append(self._eval_angle(node, [slots[k] for k in reads], offsets[head[i]] if pos is None else pos))
            evals += slots[1 + nang[i] :]
        if first < len(head):
            self.lowered = int(total[first] - count[first])
            self._check_call(offsets[head[first]])
        self.lowered = int(total[-1])
        # template row k of row r of call c, on the qubits of its arguments in that row
        rcall = np.repeat(np.arange(len(head)), rows)
        grow = np.repeat(np.arange(len(rcall)), nrows[tid[rcall]])
        c, r = rcall[grow], (np.arange(len(rcall)) - _starts(rows)[rcall])[grow]
        k = _starts(nrows)[tid[c]] + np.arange(len(grow)) - _starts(nrows[tid[rcall]])[grow]
        opcode, target, control, slot = (np.fromiter(chain.from_iterable(getattr(t, f) for t in temps), np.int64)[k]
                                         for f in ("opcodes", "targets", "controls", "angles"))
        target, control = (base[o] + np.where(length[o] > 1, r, np.maximum(index[o], 0)) for o in (2 * head[c] + target,
                                                                                           2 * head[c] + control))
        p, eoff = params[tid[c]], _starts(nevals[tid])[c]  # slots: 0.0, angle values, expression values
        slot = np.where(slot == 0, 0, np.where(slot <= p, aoff[c] + slot, len(values) + eoff + slot - p))
        self.columns.append((opcode, target, control, np.array([0.0, *values, *evals])[slot]))


# Statement keyword -> the method that reads the statement, or the message of
# one that is not supported.  No gate call may be named by a keyword.
_STATEMENTS = {
    "include": _Parser._parse_include,
    "qreg": _Parser._parse_register,
    "creg": _Parser._parse_register,
    "gate": _Parser._parse_gate_definition,
    "measure": _Parser._parse_measure,
    "barrier": _Parser._parse_barrier,
    "opaque": "opaque gates are not supported (no semantics to emulate)",
    "if": "unsupported: conditional execution",
    "reset": "unsupported: reset",
}


def _read_prelude() -> dict[str, _Template]:
    """The primitives and the gates of ``_PRELUDE``, whose expressions fail at the call that evaluates them."""
    parser = _Parser(_PRELUDE, "qelib1.inc")
    parser.parse()
    for t in parser.templates.values():
        t.evals = [(node, reads, None) for node, reads, _ in t.evals]
    return parser.templates


_BUILTINS = _read_prelude()


def parse(source_text: str, filename: str = "<input>") -> SourceCircuit:
    """Parse OpenQASM 2.0 text into a flat native-gate circuit."""
    return _Parser(source_text, filename).parse()


def parse_file(path) -> SourceCircuit:
    """Parse a UTF-8 OpenQASM 2.0 file with any line endings; a byte that is
    not UTF-8 is a positioned error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raise QasmError(f"byte {data[exc.start]:#04x} is not UTF-8", str(path), *_line_col(good, len(good))) from None
    return parse(text.replace("\r\n", "\n").replace("\r", "\n"), filename=str(path))
