"""OpenQASM 2.0 frontend for the native gate set.

Parses a supported subset of OpenQASM 2.0 into a flat list of native gate
applications.  User-defined gates are expanded by macro substitution, and
the usual qelib1 gates outside the native twelve are lowered through fixed
equivalences (cx/ch/cr*/cu1 become a native opcode with the control field
set; cz, cy, swap, ccx, u2, u3 expand to short native sequences).

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

from .gates import ROTATIONAL, GateApplication, GateKind


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
    """Parsed circuit: flat native gate list over the declared qubits."""

    qubit_count: int
    qubit_names: dict[tuple[str, int], int]
    gates: list[GateApplication]
    classical_registers: dict[str, int]


@dataclass(frozen=True)
class _BodyOp:
    name: str
    angle_exprs: tuple
    qubit_args: tuple[str, ...]
    pos: int  # character offset of the op's name in the source


@dataclass(frozen=True)
class GateDefinition:
    """User-defined gate macro: formal angle/qubit parameters and a body."""

    name: str
    params: tuple[str, ...]
    qargs: tuple[str, ...]
    body: tuple[_BodyOp, ...]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Whitespace and comments are one skipped alternative with no named group; it
# comes before the punctuation so that ``//`` never reads as two slashes.  The
# final catch-all makes every character part of some match.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*)+
  | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<int>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<punct>->|==|[;,(){}\[\]+\-*/^])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of character offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str, filename: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` per token, ending with an ``eof`` token.

    Punctuation tokens use their own text as the kind.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = m.group()
        if kind == "punct":
            kind = tok
        elif kind == "bad":
            raise QasmError(f"unexpected character {tok!r}", filename, *_line_col(text, m.start()))
        append((kind, tok, m.start()))
    append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Supported gate surface
# ---------------------------------------------------------------------------

_NATIVE_1Q = {
    "x": GateKind.X,
    "y": GateKind.Y,
    "z": GateKind.Z,
    "h": GateKind.H,
    "s": GateKind.S,
    "sdg": GateKind.SDG,
    "t": GateKind.T,
    "tdg": GateKind.TDG,
    "rx": GateKind.RX,
    "ry": GateKind.RY,
    "rz": GateKind.RZ,
    "u1": GateKind.U1,
    "p": GateKind.U1,
}

# Controlled gates realised directly: the opcode with the control field set.
_CONTROLLED_NATIVE = {
    "cx": GateKind.X,
    "CX": GateKind.X,
    "ch": GateKind.H,
    "crx": GateKind.RX,
    "cry": GateKind.RY,
    "crz": GateKind.RZ,
    "cu1": GateKind.U1,
    "cp": GateKind.U1,
}

# name -> (n_angles, n_qubits) over the whole built-in surface
_BUILTIN_SIGNATURES = {
    **{name: (1 if kind in ROTATIONAL else 0, 1) for name, kind in _NATIVE_1Q.items()},
    **{name: (1 if kind in ROTATIONAL else 0, 2) for name, kind in _CONTROLLED_NATIVE.items()},
    "cz": (0, 2),
    "cy": (0, 2),
    "swap": (0, 2),
    "ccx": (0, 3),
    "u2": (2, 1),
    "u3": (3, 1),
    "u": (3, 1),
    "U": (3, 1),
    "id": (0, 1),
}


def _lower_builtin(name: str, angles: list[float], qubits: list[int], out: list[GateApplication]) -> None:
    ga = GateApplication
    if name in _NATIVE_1Q:
        kind = _NATIVE_1Q[name]
        out.append(ga(kind, qubits[0], angle=angles[0] if kind in ROTATIONAL else None))
        return
    if name in _CONTROLLED_NATIVE:
        kind = _CONTROLLED_NATIVE[name]
        c, t = qubits
        out.append(ga(kind, t, control=c, angle=angles[0] if kind in ROTATIONAL else None))
        return
    if name == "cz":
        c, t = qubits
        out += [ga(GateKind.H, t), ga(GateKind.X, t, control=c), ga(GateKind.H, t)]
        return
    if name == "cy":
        c, t = qubits
        out += [ga(GateKind.SDG, t), ga(GateKind.X, t, control=c), ga(GateKind.S, t)]
        return
    if name == "swap":
        a, b = qubits
        out += [
            ga(GateKind.X, b, control=a),
            ga(GateKind.X, a, control=b),
            ga(GateKind.X, b, control=a),
        ]
        return
    if name == "ccx":
        a, b, c = qubits
        cx = lambda ctl, tgt: ga(GateKind.X, tgt, control=ctl)
        out += [
            ga(GateKind.H, c),
            cx(b, c),
            ga(GateKind.TDG, c),
            cx(a, c),
            ga(GateKind.T, c),
            cx(b, c),
            ga(GateKind.TDG, c),
            cx(a, c),
            ga(GateKind.T, b),
            ga(GateKind.T, c),
            ga(GateKind.H, c),
            cx(a, b),
            ga(GateKind.T, a),
            ga(GateKind.TDG, b),
            cx(a, b),
        ]
        return
    if name in ("u3", "u", "U"):
        theta, phi, lam = angles
        t = qubits[0]
        out += [
            ga(GateKind.RZ, t, angle=lam),
            ga(GateKind.RY, t, angle=theta),
            ga(GateKind.RZ, t, angle=phi),
        ]
        return
    if name == "u2":
        phi, lam = angles
        _lower_builtin("u3", [math.pi / 2.0, phi, lam], qubits, out)
        return
    if name == "id":
        return
    raise AssertionError(f"no lowering rule for {name}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Parser recursion is bounded far below Python's recursion limit: angle
# expressions nest at most MAX_EXPR_DEPTH levels (parentheses, unary minus,
# powers, function calls) and gate definitions at most MAX_GATE_DEPTH.
MAX_EXPR_DEPTH = 100
MAX_GATE_DEPTH = 100
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


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (base, size)
        self.cregs: dict[str, int] = {}
        self.defs: dict[str, GateDefinition] = {}
        self.gate_depth: dict[str, int] = {}  # definition name -> macro nesting depth
        self.expr_depth = 0
        self.qubit_count = 0
        self.gates: list[GateApplication] = []

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def _error(self, message: str, pos: int | None = None):
        """Raise at source offset ``pos``, by default the next token's."""
        if pos is None:
            pos = self.tokens[self.pos][2]
        raise QasmError(message, self.filename, *_line_col(self.text, pos))

    def _expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            text = tok[1]
            self._error(f"expected {what or kind}, found {text!r}" if text else f"expected {what or kind}", tok[2])
        self.pos += 1
        return tok

    # -- top level ---------------------------------------------------------

    def parse(self) -> SourceCircuit:
        self._parse_header()
        while not self._at("eof"):
            self._parse_statement()
        names = {}
        for reg, (base, size) in self.qregs.items():
            for k in range(size):
                names[(reg, k)] = base + k
        return SourceCircuit(self.qubit_count, names, self.gates, dict(self.cregs))

    def _parse_header(self) -> None:
        kind, text, _ = self._peek()
        if kind != "id" or text != "OPENQASM":
            self._error("expected 'OPENQASM 2.0;' header")
        self._next()
        _, version, pos = self._expect("real", "version number")
        if version != "2.0":
            self._error(f"unsupported OpenQASM version {version}", pos)
        self._expect(";")

    def _parse_statement(self) -> None:
        kind, name, _ = self._peek()
        if kind != "id":
            self._error(f"expected a statement, found {name!r}")
        if name == "include":
            self._parse_include()
        elif name in ("qreg", "creg"):
            self._parse_register(name)
        elif name == "gate":
            self._parse_gate_definition()
        elif name == "opaque":
            self._error("opaque gates are not supported (no semantics to emulate)")
        elif name == "if":
            self._error("unsupported: conditional execution")
        elif name == "reset":
            self._error("unsupported: reset")
        elif name == "measure":
            self._parse_measure()
        elif name == "barrier":
            self._parse_barrier()
        else:
            self._parse_gate_application()

    def _parse_include(self) -> None:
        self._next()
        _, text, pos = self._expect("string", "include file name")
        if text.strip('"') != "qelib1.inc":
            self._error(f"unsupported include {text}; only \"qelib1.inc\" is built in", pos)
        self._expect(";")

    def _parse_register(self, which: str) -> None:
        self._next()
        _, name, name_pos = self._expect("id", "register name")
        if name in self.qregs or name in self.cregs:
            self._error(f"register {name!r} already declared", name_pos)
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
        if name in _BUILTIN_SIGNATURES or name in self.defs:
            self._error(f"gate {name!r} already defined", name_pos)
        params: list[str] = []
        if self._accept("("):
            if not self._at(")"):
                params = self._parse_ids("parameter name")
            self._expect(")")
        qargs = self._parse_ids("qubit argument")
        if len(set(params)) != len(params) or len(set(qargs)) != len(qargs):
            self._error(f"duplicate formal argument in gate {name!r}", name_pos)
        self._expect("{")
        body: list[_BodyOp] = []
        depth = 1
        while not self._at("}"):
            kind, op_name, op_pos = self._peek()
            if kind != "id":
                self._error("expected a gate name in gate body")
            if op_name == "barrier":
                self._next()
                while self._peek()[0] not in (";", "eof"):
                    self._next()
                self._expect(";")
                continue
            self._next()
            if op_name == name:
                self._error(f"recursive gate definition: {name!r} references itself", op_pos)
            if op_name not in _BUILTIN_SIGNATURES and op_name not in self.defs:
                self._error(f"unknown gate {op_name!r} in body of {name!r}", op_pos)
            depth = max(depth, self.gate_depth.get(op_name, 0) + 1)
            if depth > MAX_GATE_DEPTH:
                self._error(f"gate {name!r} nests gate definitions deeper than {MAX_GATE_DEPTH} levels", op_pos)
            angle_exprs: list = []
            if self._accept("("):
                if not self._at(")"):
                    angle_exprs.append(self._parse_expr())
                    while self._accept(","):
                        angle_exprs.append(self._parse_expr())
                self._expect(")")
            op_qargs = self._parse_ids("qubit argument")
            self._expect(";")
            for q in op_qargs:
                if q not in qargs:
                    self._error(f"unknown qubit argument {q!r} in body of {name!r}", op_pos)
            self._check_arity(op_name, len(angle_exprs), len(op_qargs), op_pos)
            body.append(_BodyOp(op_name, tuple(angle_exprs), tuple(op_qargs), op_pos))
        self._expect("}")
        self.defs[name] = GateDefinition(name, tuple(params), tuple(qargs), tuple(body))
        self.gate_depth[name] = depth

    def _check_arity(self, name: str, n_angles: int, n_qubits: int, pos: int) -> None:
        if name in _BUILTIN_SIGNATURES:
            want_a, want_q = _BUILTIN_SIGNATURES[name]
        else:
            d = self.defs[name]
            want_a, want_q = len(d.params), len(d.qargs)
        if n_angles != want_a:
            self._error(f"gate {name!r} takes {want_a} parameter(s), got {n_angles}", pos)
        if n_qubits != want_q:
            self._error(f"gate {name!r} takes {want_q} qubit argument(s), got {n_qubits}", pos)

    # -- expressions -------------------------------------------------------

    # Left-associative runs of + - or * / become one flat ("chain", first,
    # ((op, operand), ...)) node, so no run length deepens the tree.

    def _parse_expr(self):
        first = self._parse_term()
        rest = []
        while self._peek()[0] in ("+", "-"):
            rest.append((self._next()[0], self._parse_term()))
        return ("chain", first, tuple(rest)) if rest else first

    def _parse_term(self):
        first = self._parse_factor()
        rest = []
        while self._peek()[0] in ("*", "/"):
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
        kind, text, pos = self._peek()
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
            return ("param", text, pos)
        self._error(f"expected an expression, found {text!r}", pos)

    def _eval_angle(self, node, env: dict[str, float], pos: int) -> float:
        """Value of an angle expression; failures are positioned at ``pos``."""
        try:
            value = self._eval_expr(node, env)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            self._error(f"cannot evaluate expression: {exc}", pos)
        if not math.isfinite(value):
            self._error(f"cannot evaluate expression: result is {value}", pos)
        return value

    def _eval_expr(self, node, env: dict[str, float]) -> float:
        tag = node[0]
        if tag == "num":
            return node[1]
        if tag == "neg":
            return -self._eval_expr(node[1], env)
        if tag == "fun":
            return _UNARY_FUNCS[node[1]](self._eval_expr(node[2], env))
        if tag == "param":
            _, name, pos = node
            if name not in env:
                self._error(f"undefined parameter {name!r}", pos)
            return env[name]
        if tag == "chain":
            value = self._eval_expr(node[1], env)
            for op, rhs in node[2]:
                value = _BINARY_OPS[op](value, self._eval_expr(rhs, env))
            return value
        power = self._eval_expr(node[1], env) ** self._eval_expr(node[2], env)
        if isinstance(power, complex):  # negative base, fractional exponent
            raise ValueError("math domain error")
        return power

    # -- arguments and broadcast --------------------------------------------

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
            self._error(f"unknown quantum register {name!r}", pos)
        base, size = self.qregs[name]
        if idx is None:
            return [base + k for k in range(size)]
        if not 0 <= idx < size:
            self._error(f"qubit index {name}[{idx}] out of range (size {size})", pos)
        return [base + idx]

    def _broadcast(self, operands: list[list[int]], pos: int) -> list[list[int]]:
        lengths = {len(ops) for ops in operands if len(ops) > 1}
        if len(lengths) > 1:
            self._error("mismatched register sizes in broadcast", pos)
        n = lengths.pop() if lengths else 1
        rows = []
        for k in range(n):
            row = [ops[k] if len(ops) > 1 else ops[0] for ops in operands]
            if len(set(row)) != len(row):
                self._error("duplicate qubit in gate arguments", pos)
            rows.append(row)
        return rows

    # -- statements that emit or drop gates -----------------------------------

    def _parse_measure(self) -> None:
        self._next()
        qname, qidx, qpos = self._parse_argument()
        self._expect("->")
        cname, cidx, cpos = self._parse_argument()
        self._expect(";")
        qubits = self._resolve_qubit_arg(qname, qidx, qpos)
        if cname not in self.cregs:
            self._error(f"unknown classical register {cname!r}", cpos)
        csize = self.cregs[cname]
        if cidx is None:
            if qidx is None and len(qubits) != csize:
                self._error("measure register size mismatch", cpos)
        elif not 0 <= cidx < csize:
            self._error(f"bit index {cname}[{cidx}] out of range (size {csize})", cpos)
        # measurement happens off-device; nothing is emitted

    def _parse_barrier(self) -> None:
        self._next()
        self._resolve_qubit_arg(*self._parse_argument())
        while self._accept(","):
            self._resolve_qubit_arg(*self._parse_argument())
        self._expect(";")

    def _parse_gate_application(self) -> None:
        _, name, name_pos = self._next()
        if name not in _BUILTIN_SIGNATURES and name not in self.defs:
            self._error(f"unknown gate {name!r}", name_pos)
        angles: list[float] = []
        if self._accept("("):
            if not self._at(")"):
                angles.append(self._eval_angle(self._parse_expr(), {}, name_pos))
                while self._accept(","):
                    angles.append(self._eval_angle(self._parse_expr(), {}, name_pos))
            self._expect(")")
        operands = [self._resolve_qubit_arg(*self._parse_argument())]
        while self._accept(","):
            operands.append(self._resolve_qubit_arg(*self._parse_argument()))
        self._expect(";")
        self._check_arity(name, len(angles), len(operands), name_pos)
        for row in self._broadcast(operands, name_pos):
            self._emit(name, angles, row, name_pos)

    def _emit(self, name: str, angles: list[float], qubits: list[int], pos: int) -> None:
        if name in _BUILTIN_SIGNATURES:
            try:
                _lower_builtin(name, angles, qubits, self.gates)
            except ValueError as exc:
                self._error(str(exc), pos)
            return
        d = self.defs[name]
        env = dict(zip(d.params, angles))
        qmap = dict(zip(d.qargs, qubits))
        for op in d.body:
            sub_angles = [self._eval_angle(e, env, op.pos) for e in op.angle_exprs]
            sub_qubits = [qmap[q] for q in op.qubit_args]
            if len(set(sub_qubits)) != len(sub_qubits):
                self._error(f"duplicate qubit in expansion of {name!r}", op.pos)
            self._emit(op.name, sub_angles, sub_qubits, pos)


def parse(source_text: str, filename: str = "<input>") -> SourceCircuit:
    """Parse OpenQASM 2.0 text into a flat native-gate circuit."""
    return _Parser(source_text, filename).parse()


def parse_file(path) -> SourceCircuit:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse(text, filename=str(path))


# ---------------------------------------------------------------------------
# Source emission (normalized form over the supported subset)
# ---------------------------------------------------------------------------

_NATIVE_NAMES = {kind: name for name, kind in _NATIVE_1Q.items() if name != "p"}
_CONTROLLED_NAMES = {
    GateKind.X: "cx",
    GateKind.H: "ch",
    GateKind.RX: "crx",
    GateKind.RY: "cry",
    GateKind.RZ: "crz",
    GateKind.U1: "cu1",
}


def emit(circuit: SourceCircuit) -> str:
    """Write a circuit back as OpenQASM 2.0.

    Output re-parses to an identical circuit: gates are already native, so
    emission is a plain rendering with full-precision angles.
    """
    flat_to_name = {flat: (reg, k) for (reg, k), flat in circuit.qubit_names.items()}
    if len(flat_to_name) != circuit.qubit_count:
        raise ValueError("qubit name map does not cover the register")
    regs: list[tuple[str, int]] = []
    for flat in range(circuit.qubit_count):
        reg, k = flat_to_name[flat]
        if not regs or regs[-1][0] != reg:
            regs.append((reg, 0))
        regs[-1] = (reg, regs[-1][1] + 1)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    for reg, size in regs:
        lines.append(f"qreg {reg}[{size}];")
    for creg, size in circuit.classical_registers.items():
        lines.append(f"creg {creg}[{size}];")

    def ref(flat: int) -> str:
        reg, k = flat_to_name[flat]
        return f"{reg}[{k}]"

    for g in circuit.gates:
        arg = f"({g.angle!r})" if g.angle is not None else ""
        if g.control is None:
            lines.append(f"{_NATIVE_NAMES[g.kind]}{arg} {ref(g.target)};")
        else:
            name = _CONTROLLED_NAMES.get(g.kind)
            if name is None:
                raise ValueError(f"no source form for controlled {g.kind.name}")
            lines.append(f"{name}{arg} {ref(g.control)},{ref(g.target)};")
    return "\n".join(lines) + "\n"
