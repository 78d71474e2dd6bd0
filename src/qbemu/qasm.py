"""OpenQASM 2.0 frontend for the native gate set.

Parses a supported subset of OpenQASM 2.0 into native gate columns (see
:mod:`qbemu.columns`).  Every gate of qelib1.inc is built in, and every gate
name has a template of the native rows a call lowers to.  The native twelve
(``p`` is ``u1``) and ``CX cx ch crx cry crz cu1 cp`` are primitives; ``U u3 u
u2 id u0 sx sxdg cz cy swap ccx cswap cu3 csx cu rxx rzz rccx rc3x c3x c3sqrtx
c4x`` are ``gate`` lines in ``_PRELUDE``, read once as a user's are: a gate's
template splices together its body's templates when it is defined, and the
definition is checked whole there, called or not: a name is neither defined
twice nor a statement keyword, and a body's angle expression that reads no
argument is evaluated.  ``U`` is RZ(phi) RY(theta) RZ(lambda), qelib1's U
times exp(-i(phi+lambda)/2).  One check, where a call is read (by the call
pattern or the tokens), checks it whole and raises if it fails: its argument
text checked and broadcast once per parse, expressions reading its angles
evaluated.  It is lowered there: its block of native rows, kept per gate
and argument text, and its angles join the output arrays.

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
from array import array
from dataclasses import dataclass
from functools import cached_property

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
# parentheses, one or two ``reg[i]`` of at most five index digits (``args``),
# and ``;``, with no comment inside.  What may follow each part cannot continue
# it, so a part only matches as the whole token the tokenizer reads there.  A
# literal matches only if its digit counts make it finite (below 10**299 with at
# most 200 digits before the point and 2 in the exponent, or 300 in an int);
# a longer one is left to the tokens, which raise if it is not finite.
_S = r"[ \t\r\n]*"  # never two in a row: a failing match backtracks through whitespace once
_NUMBER = rf"{_S}-?(?:(?:[0-9]{{1,200}}\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]{{1,2}})?|[0-9]{{1,300}}){_S}"
_CALL_RE = re.compile(
    rf"{_SKIP}*(?P<name>{_ID})(?=[( \t\r\n]){_S}"
    rf"(?:\((?P<angles>{_NUMBER}(?:,{_NUMBER})*)\){_S})?"
    rf"(?P<args>(?P<reg1>{_ID}){_S}\[{_S}(?P<idx1>[0-9]{{1,5}}){_S}\]{_S}"
    rf"(?:,{_S}(?P<reg2>{_ID}){_S}\[{_S}(?P<idx2>[0-9]{{1,5}}){_S}\]{_S})?);"
)


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
    arguments, and each later slot the value of one expression of the body:
    ``known[slot]`` if the definition fixes it, else (None) one of ``evals``, an
    ``(expression, reads, pos)`` evaluated in order at every call, where slot
    ``k`` of the parsed expression reads our slot ``reads[k]``: a splice shares
    the expression tree and maps only its slots; a built-in's ``pos`` is None,
    the call's.  Each of ``rows`` is an ``(opcode, target, control, slot)``
    tuple: native ``opcode`` on the call's qubit arguments ``target`` and
    ``control`` (equal when uncontrolled), with the angle in ``slot``.
    """

    def __init__(self, params: int, qubits: int, rows=()):
        self.params, self.qubits = params, qubits
        self.known = [0.0, *[None] * params]
        self.evals = []
        self.rows = [tuple(map(int, row)) for row in rows]

    def eval(self, node, pos: int, evaluate) -> int:
        """Slot of the value of ``node``, read in our body at ``pos``: a bare slot, else a new one, known as
        ``evaluate(node, known, pos)`` gives it (or raises) unless it reads an argument (its None raises TypeError)."""
        if node[0] == "slot":
            return node[1]
        try:
            value = evaluate(node, self.known, pos)
        except TypeError:
            value = None
            self.evals.append((node, range(self.params + 1), pos))
        self.known.append(value)
        return len(self.known) - 1

    def splice(self, sub: "_Template", args: list[int], qubits: list[int], pos: int) -> None:
        """Append a call of ``sub`` at ``pos``: ``args`` are the slots of its angle
        arguments and ``qubits`` the indices of its qubits among ours."""
        slots = [0, *args, *range(len(self.known), len(self.known) + len(sub.known) - sub.params - 1)]
        self.known += sub.known[sub.params + 1 :]
        self.evals += [(node, [slots[k] for k in reads], pos if at is None else at) for node, reads, at in sub.evals]
        self.rows += [(op, qubits[a], qubits[b], slots[k]) for op, a, b, k in sub.rows]

    @cached_property
    def lowering(self) -> tuple:
        """A call's angles, built once the template is whole: per row in an ``array('d')`` with NaN where the
        call supplies one, the slots of the NaNs in row order, and whether they are the call's angles in order
        with nothing else to check."""
        angle = array("d", [math.nan if self.known[s] is None else self.known[s] for *_, s in self.rows])
        slots = [s for *_, s in self.rows if self.known[s] is None]
        plain = slots == [*range(1, self.params + 1)] and not self.evals
        return angle, slots, plain


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
_ANGLE_TEXTS = 1 << 10  # angle texts one parse keeps as floats; then it starts again, so memory stays flat
# Largest register size; integer tokens with more digits are never converted.
MAX_REGISTER_SIZE = 1 << 16
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


def _evaluate(node, slots: list) -> float:
    """Value of a parsed angle expression over angle ``slots``; ``^`` is :func:`math.pow`."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "slot":
        return slots[node[1]]
    if tag == "neg":
        return -_evaluate(node[1], slots)
    if tag == "fun":
        return _UNARY_FUNCS[node[1]](_evaluate(node[2], slots))
    if tag == "chain":
        value = _evaluate(node[1], slots)
        for op, rhs in node[2]:
            value = _BINARY_OPS[op](value, _evaluate(rhs, slots))
        return value
    return math.pow(_evaluate(node[1], slots), _evaluate(node[2], slots))


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
        self.lowered = 0  # native gates and angle expressions of the templates and the calls read so far
        self.templates = dict(_BUILTINS)  # gate name -> template, user gates added when defined
        self.resolved: dict[tuple, tuple] = {}  # (gate name, arguments) -> call, see _resolve
        self.qubit_rows: dict = {}  # call pattern's argument text, or (register, index) list -> its qubit rows

    # -- token helpers ----------------------------------------------------

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
        """Read the text statement by statement: a call the call pattern matches from its offset, else the statement
        from the tokens.  Either reader hands on a call's key, resolved call (see :meth:`_resolve`), angle values and
        offset, and the loop lowers it once the rest passes: angle count (unchecked on a memo hit), budget, its
        template's expressions.  The NaN angles are filled at the end."""
        self._parse_header()
        start = self.tok[2]  # offset of the statement being read
        match, text, resolved, floats = _CALL_RE.match, self.text, self.resolved, {None: array("d")}
        # each native gate's (opcode, target, control) and angle, NaN where a call supplies it; the NaNs' values
        rows, angle, values, lowered = array("q"), array("d"), array("d"), self.lowered
        while True:
            if m := match(text, start):  # groups: 1 name, 2 angles, 3 args, 4-7 its registers and indices
                key, angles = m.group(1, 3), m[2]
                if (vals := floats.get(angles)) is None:
                    if len(floats) > _ANGLE_TEXTS:
                        floats = {None: array("d")}
                    vals = floats[angles] = array("d", map(float, angles.split(",")))
                call = resolved.get(key) or self._resolve(key, m.start(1), len(vals),
                                                          ((m[4], m[5], m.start(4)), (m[6], m[7], m.start(6))))
            if m and call:
                pos, start = m.start(1), m.end()
            else:
                self.stream = _tokens(text, start)
                kind, name, _ = self.tok = next(self.stream)
                if kind == "eof":
                    break
                if kind != "id":
                    self._error(f"expected a statement, found {quote(name)}")
                if isinstance(handler := _STATEMENTS.get(name, _Parser._parse_gate_application), str):
                    self._error(handler)
                self.lowered = lowered  # gate definitions count against the same budget
                read = handler(self)
                lowered, start = self.lowered, self.tok[2]
                if read is None:
                    continue
                key, call, vals, pos = read
            params, count, block, call_angle, slots, t = call
            if len(vals) != params:
                self._check_arity(key[0], len(vals), t.qubits, pos)
            if (lowered := lowered + count) > MAX_NATIVE_GATES:
                self._budget(lowered, pos)
            if slots is None:
                values += vals
            else:  # the NaNs' values picked from the call's slot vector
                vec = [0.0, *vals, *t.known[params + 1 :]]
                for s, (node, reads, at) in zip([s for s, v in enumerate(vec) if v is None], t.evals):
                    vec[s] = self._eval_angle(node, [vec[k] for k in reads], pos if at is None else at)
                values.extend([vec[s] for s in slots])
            rows += block
            angle += call_angle
        angle = np.frombuffer(angle)
        angle[np.isnan(angle)] = values
        return SourceCircuit(self.qubit_count, gate_columns([*np.frombuffer(rows, np.int64).reshape(-1, 3).T, angle]))

    def _parse_header(self) -> None:
        kind, text, _ = self.tok
        if kind != "id" or text != "OPENQASM":
            self._error("expected 'OPENQASM 2.0;' header")
        self._next()
        _, version, pos = self._expect("real", "version number")
        if version != "2.0":
            self._error(f"unsupported OpenQASM version {version}", pos)
        self._expect(";")

    def _parse_include(self) -> None:
        self._next()
        _, text, pos = self._expect("string", "include file name")
        if text.strip('"') != "qelib1.inc":
            self._error(f"unsupported include {text}; only \"qelib1.inc\" is built in", pos)
        self._expect(";")

    def _parse_register(self) -> None:
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
        self._next()
        _, name, name_pos = self._expect("id", "gate name")
        if name in _STATEMENTS:  # a call of it would be read as the statement
            self._error(f"gate name {quote(name)} is a statement keyword", name_pos)
        if name in self.templates:
            self._error(f"gate {quote(name)} already defined", name_pos)
        params: list[str] = []
        if self._accept("("):
            if self.tok[0] != ")":
                params = self._parse_ids("parameter name")
            self._expect(")")
        qargs = self._parse_ids("qubit argument")
        if len(set(params)) != len(params) or len(set(qargs)) != len(qargs):
            self._error(f"duplicate formal argument in gate {quote(name)}", name_pos)
        self._expect("{")
        t = _Template(len(params), len(qargs))
        self.params = {p: k for k, p in enumerate(params, start=1)}
        while self.tok[0] != "}":
            kind, op_name, op_pos = self.tok
            if kind != "id":
                self._error("expected a gate name in gate body")
            self._next()
            barrier = op_name == "barrier"  # dropped once its operands are checked, as at top level
            if op_name == name and not barrier:
                self._error(f"recursive gate definition: {quote(name)} references itself", op_pos)
            if op_name not in self.templates and not barrier:
                self._error(f"unknown gate {quote(op_name)} in body of {quote(name)}", op_pos)
            angle_exprs = [] if barrier else list(self._parse_angle_args())
            op_qargs = self._parse_ids("qubit argument")
            self._expect(";")
            for q in op_qargs:
                if q not in qargs:
                    self._error(f"unknown qubit argument {quote(q)} in body of {quote(name)}", op_pos)
            if barrier:
                continue
            sub = self._check_arity(op_name, len(angle_exprs), len(op_qargs), op_pos)
            args = [t.eval(node, op_pos, self._eval_angle) for node in angle_exprs]
            qubits = [qargs.index(q) for q in op_qargs]
            if len(set(qubits)) != len(qubits):
                self._error(f"duplicate qubit in expansion of {quote(name)}", op_pos)
            self.lowered = self._budget(self.lowered + len(sub.rows) + len(sub.known) - sub.params - 1, op_pos)
            t.splice(sub, args, qubits, op_pos)
        self._expect("}")
        self.params = {}
        self.templates[name] = t

    def _parse_angle_args(self):
        """Parenthesized angle arguments, if any; each is parsed when asked for."""
        if self._accept("("):
            if self.tok[0] != ")":
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

    def _parse_expr(self, level: int = 0):
        """A left-associative run of ``+ -`` (level 0) over runs of ``* /`` (level 1) over factors.  A run is one
        flat ("chain", first, ((op, operand), ...)) node, so no run length deepens the tree."""
        first = self._parse_factor() if level else self._parse_expr(1)
        rest = []
        while (op := self.tok[0]) in (("*", "/") if level else ("+", "-")):
            self._next()
            rest.append((op, self._parse_factor() if level else self._parse_expr(1)))
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
            self._error(f"undefined parameter {quote(text)}", pos)
        self._error(f"expected an expression, found {quote(text)}", pos)

    def _eval_angle(self, node, slots: list[float], pos: int) -> float:
        """Value of an angle expression over angle ``slots``; failures are positioned at ``pos``."""
        try:
            value = _evaluate(node, slots)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            self._error(f"cannot evaluate expression: {exc}", pos)
        if not math.isfinite(value):
            self._error(f"cannot evaluate expression: result is {value}", pos)
        return value

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

    def _budget(self, lowered: int, pos: int) -> int:
        """``lowered``, the native gates and angle expressions so far, if it is within the budget."""
        if lowered > MAX_NATIVE_GATES:
            self._error(f"gate expansion exceeds the limit of {MAX_NATIVE_GATES} native gates", pos)
        return lowered

    def _parse_gate_application(self) -> tuple:
        """A call read from the tokens, as ``(key, call, angle values, offset)`` for :meth:`parse` to lower.  The
        name, then each angle and argument, is checked before the next is read, and then the call as a whole."""
        _, name, pos = self._next()
        if name not in self.templates:
            self._error(f"unknown gate {quote(name)}", pos)
        values = array("d", [self._eval_angle(node, [], pos) for node in self._parse_angle_args()])
        args = [arg for arg in self._parse_arguments() if self._resolve_qubit_arg(*arg)]  # each before the next is read
        call = self.resolved.get(key := (name, tuple(arg[:2] for arg in args))) or self._resolve(key, pos, len(values), args)
        return key, call, values, pos

    def _resolve(self, key: tuple, pos: int, n_angles: int, args) -> tuple | None:
        """The call at ``pos`` of gate ``key[0]`` with ``n_angles`` angles on arguments ``key[1]``, read as ``args``
        of ``(register or None, index or None, offset)``: ``(params, lowered count, rows, angles, slots, template)``,
        kept for the key, with its template's rows on every qubit row and their angles as :meth:`_Template.lowering`
        has them on one, and the slots of the NaNs, or None if they are plainly the call's angles; None for a statement keyword.  A
        failing call raises its first failing check: unknown gate, each argument, angle and qubit counts, broadcast."""
        if key[0] in _STATEMENTS:
            return None
        if key[0] not in self.templates:
            self._error(f"unknown gate {quote(key[0])}", pos)
        if (rows := self.qubit_rows.get(key[1])) is None:
            operands = [self._resolve_qubit_arg(reg, None if i is None else int(i), at) for reg, i, at in args if reg]
            self._check_arity(key[0], n_angles, len(operands), pos)
            n = max(map(len, operands))
            if any(len(ops) not in (1, n) for ops in operands):
                self._error("mismatched register sizes in broadcast", pos)
            rows = list(zip(*(ops * n if len(ops) == 1 else ops for ops in operands)))
            if any(len(set(row)) != len(row) for row in rows):
                self._error("duplicate qubit in gate arguments", pos)
            self.qubit_rows[key[1]] = rows
        t = self._check_arity(key[0], n_angles, len(rows[0]), pos)
        angle, slots, plain = t.lowering
        n, block = len(rows), array("q", [x for row in rows for op, a, b, _ in t.rows for x in (op, row[a], row[b])])
        count = len(t.known) - t.params - 1 + n * len(t.rows)  # its native gates and expressions
        self.resolved[key] = call = (t.params, count, block,
                                     *((angle, None) if plain and n == 1 else (angle * n, slots * n)), t)
        return call


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
