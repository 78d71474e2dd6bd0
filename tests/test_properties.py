"""Property tests: parser robustness, angle-table interning, the rounding core
and the fixed-point array kernels against oracles, the columnar compile
against the per-gate loop, round trips of wire framing, program files and
readback, and the strict grammars of the text readers."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbemu import engine
from qbemu.compiler import (
    AngleTable,
    CompiledProgram,
    CompileError,
    DecodeError,
    Instruction,
    compile_circuit,
    load_program_files,
    write_program_files,
)
from qbemu.config import MAX_QUBITS, ExecConfig
from qbemu.engine import FixedState, apply_gate
from qbemu.fixedpoint import FixedPointFormat, Rounding, from_real, round_shift
from qbemu.gates import INV_SQRT2, ROTATIONAL, GateApplication, GateKind
from qbemu.hostlink import (
    _FRAME_RUN,
    _PARTIAL,
    MAX_PAYLOAD_DIGITS,
    FramingError,
    HostMessage,
    MessageKind,
    ProtocolError,
    StreamDecoder,
    decode_readback,
    _malformed,
    decode_stream,
    encode_message,
    encode_readback,
)
from qbemu.qasm import QasmError, parse

from _helpers import (
    OracleAlu,
    couple_pairs,
    edge_fixed_state,
    format_program,
    gates_as_circuit,
    oracle_compile,
    oracle_quantize,
    oracle_round,
    random_gates,
    scalar_fixed_kernel,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'

# ---------------------------------------------------------------------------
# Parser fuzz
# ---------------------------------------------------------------------------

_VOCABULARY = [
    "OPENQASM", "2.0", "3.0", "include", '"qelib1.inc"', '"x', "qreg", "creg", "gate", "opaque",
    "if", "reset", "measure", "barrier", "q", "c", "a", "b", "t", "g",
    "h", "x", "cx", "rx", "crz", "u2", "u3", "ccx", "swap", "id",
    "pi", "sin", "sqrt", "ln", "exp", "tan",
    "0", "1", "2", "7", "1.5", ".5e1", "1e308", "1e400",
    "[", "]", "(", ")", "{", "}", ";", ",", "->", "==", "+", "-", "*", "/", "^", "=", ".", "@",
    " ", "\t", "\n", "\r\n", "// c/.(\n", "//",
]

_STATEMENTS = [
    "h q[0];", "cx q[0],q[1];", "rx(pi/3) q[2];", "u3(1,2,3) q;", "measure q -> c;", "barrier q;",
    "gate g(t) a,b { rz(t/2) a; cx a,b; }", "g(0.3) q[0],q[1];", "ccx q[0],q[1],q[2];",
]

fragments = st.lists(st.sampled_from(_VOCABULARY), max_size=40).map("".join)


@st.composite
def mutated_programs(draw):
    """A valid program with one statement cut and spliced with fragments."""
    statements = draw(st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=6))
    k = draw(st.integers(0, len(statements) - 1))
    text = statements[k]
    cut = draw(st.integers(0, len(text)))
    drop = draw(st.integers(0, 3))
    statements[k] = text[:cut] + draw(fragments) + text[cut + drop :]
    return HEADER + "\n".join(statements)


NUMBERS = ["0", "1", "-1", "2.5", "1e308", "pi", "-0.0"]


def expressions(atoms, depth: int = 3):
    if depth == 0:
        return atoms
    sub = expressions(atoms, depth - 1)
    return st.one_of(
        atoms,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "^"]), sub).map(lambda p: f"({p[0]}{p[1]}{p[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt", "-"]), sub).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
    )


def _parses_or_raises_qasm_error(text: str) -> None:
    try:
        circuit = parse(text)
    except QasmError:
        return
    for gate in circuit.gates:
        assert gate.angle is None or (type(gate.angle) is float and math.isfinite(gate.angle))


@settings(max_examples=300, deadline=None)
@given(st.one_of(fragments, fragments.map(lambda s: HEADER + s), mutated_programs()))
def test_parser_fuzz_raises_only_qasm_error(text):
    _parses_or_raises_qasm_error(text)


# Statements shaped like a gate call on literals, which the call pattern may
# read, and near misses of it, which it must leave to the tokens.
_CALLS = [
    "h q[0];", "cx q[0],q[1];", "cx q[0] , q[1] ;", "rx(0.5) q[2];", "rx( .5 )\tq[2];", "ry(5.) q[1];",
    "rz(1.0e-3) q[0];", "u1(007) q[1];", "rx(1e5) q[0];", "rx(1.0e999) q[0];", "u3(-1, 2.5,3) q[1];",
    "u2(0.1,0.2) q[2];", "crz(-.25) q[0],q[2];", "h q // c\n[0];", "h q[0]; // x q[1];\n", "rx(pi/2) q[0];",
    "barrier q[0];", "qreg s[1];", "measure q[0] -> c[0];", "h q[123456];", "h q[0000002];", "h q[3];", "h z[0];",
    "cx q[1],q[1];", "h q;", "cx q,q[0];", "g(0.3) q[0],q[1];", "f(0) q[0];", "f(2) q[1];",
    "ccx q[0],q[1],q[2];", "hq[0];", "é q[0];", "h q[٣];",
    # a register declared mid-text, calls on it and whole-register broadcasts, and a gate defined late
    "qreg r[2];", "h r[1];", "cx r[0],q[2];", "h r;", "crz(0.5) r,q[1];", "cx q[0],r;", "ccx r[0],q,r[1];",
    "gate late(t) a,b { rx(t) b; cx a,b; }", "late(1.5) q[1],r[0];", "late(.5) r,q[2];",
    # literals at and past the digit counts the pattern reads as finite: 200 digits before the point,
    # 2 exponent digits and 300 integer digits; a 400-digit real overflows, and 1.0e-400 underflows to 0
    f"rx({'9' * 200}.5) q[0];", f"rx({'9' * 201}.5) q[0];", f"ry(-{'9' * 200}.9e99) q[1];", "ry(1.5e100) q[1];",
    f"rz({'9' * 300}) q[2];", f"rz(-{'9' * 301}) q[2];", f"rx({'9' * 400}.0) q[0];", "rx(1.0e-400) q[0];",
    # wrong arity: both counts are wrong in the last, and the angle count is reported
    "h(0.5) q[0];", "rx q[0];", "cx q[0];", "rx(0.5) q[0],q[1];", "h(0.5) q[0],q[1];",
]
_MACROS = "gate g(t) a,b { rz(t/2) a; cx a,b; }\ngate f(t) a { rx(1/t) a; }\n"
_EDITS = list(" \t\n;,()[]-.e0123456789qhc/@") + ["//", "é", "٣"]


@st.composite
def call_programs(draw):
    """Calls after the header and macros, with up to two single-character deletions or insertions."""
    calls = draw(st.lists(st.sampled_from(_CALLS), min_size=1, max_size=40))
    text = HEADER + _MACROS + draw(st.sampled_from(["\n", " ", "\t", ""])).join(calls)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + draw(st.sampled_from(_EDITS)) + text[k:]
    return text


def _parse_outcome(text: str):
    try:
        circuit = parse(text, "f.qasm")
    except QasmError as exc:
        return str(exc)
    gates = circuit.gates
    return circuit.qubit_count, [col.tobytes() for col in (gates.opcode, gates.target, gates.control, gates.angle)]


@settings(max_examples=400, deadline=None)
@given(call_programs())
def test_call_pattern_reads_as_the_tokens_do(text):
    # the macros parse, so a program's outcome is that of its calls, not one error every program shares
    assert isinstance(_parse_outcome(HEADER + _MACROS), tuple)
    # a pattern that never matches leaves every statement to the tokens
    with mock.patch("qbemu.qasm._CALL_RE", re.compile("(?!)")):
        expected = _parse_outcome(text)
    assert _parse_outcome(text) == expected


@settings(max_examples=300, deadline=None)
@given(expressions(st.sampled_from(NUMBERS)), expressions(st.sampled_from(NUMBERS + ["t"])))
def test_angle_expressions_evaluate_finite_or_raise_qasm_error(direct, body):
    # ``body`` runs inside a macro with t = ``direct``, so both the top-level
    # and the expansion-time evaluation paths are exercised
    text = HEADER + f"gate g(t) a {{ rz({body}) a; }}\nrx({direct}) q[0];\ng({direct}) q[1];\n"
    _parses_or_raises_qasm_error(text)


# ---------------------------------------------------------------------------
# Nested gate macros against a test-side expander
# ---------------------------------------------------------------------------

# name -> (angle parameters, qubits, native rows as (kind, target, control,
# angle)): target/control index the call's qubits, angle its angle values
# (None: no angle).  Written from qelib1, not from the parser's templates.
_LEAVES = {
    "h": (0, 1, [(GateKind.H, 0, 0, None)]),
    "x": (0, 1, [(GateKind.X, 0, 0, None)]),
    "t": (0, 1, [(GateKind.T, 0, 0, None)]),
    "rz": (1, 1, [(GateKind.RZ, 0, 0, 0)]),
    "ry": (1, 1, [(GateKind.RY, 0, 0, 0)]),
    "u1": (1, 1, [(GateKind.U1, 0, 0, 0)]),
    "cx": (0, 2, [(GateKind.X, 1, 0, None)]),
    "crz": (1, 2, [(GateKind.RZ, 1, 0, 0)]),
    "cz": (0, 2, [(GateKind.H, 1, 1, None), (GateKind.X, 1, 0, None), (GateKind.H, 1, 1, None)]),
    "u3": (3, 1, [(GateKind.RZ, 0, 0, 2), (GateKind.RY, 0, 0, 0), (GateKind.RZ, 0, 0, 1)]),
}
_CONSTANTS = [("0.5", 0.5), ("2", 2.0), ("pi", math.pi), ("1.25", 1.25), ("0.0", 0.0)]
_REGISTERS = ("a", "b", "c")  # two qubits each; a call's i-th qubit argument is in the i-th register


def macro_expressions(params):
    """(source text, evaluate(env)) of small expressions over ``params``."""
    leaves = [st.sampled_from(_CONSTANTS).map(lambda c: (c[0], lambda env, v=c[1]: v))]
    if params:
        leaves.append(st.sampled_from(params).map(lambda p: (p, lambda env: env[p])))
    leaf = st.one_of(leaves)
    ops = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from(sorted(ops)), sub).map(
                lambda t: (f"({t[0][0]}{t[1]}{t[2][0]})", lambda env: ops[t[1]](t[0][1](env), t[2][1](env)))
            ),
            st.tuples(st.sampled_from(["sin", "cos"]), sub).map(
                lambda t: (f"{t[0]}({t[1][0]})", lambda env: getattr(math, t[0])(t[1][1](env)))
            ),
            sub.map(lambda e: (f"-({e[0]})", lambda env: -e[1](env))),
        )

    return st.recursive(leaf, extend, max_leaves=4)


@st.composite
def macro_programs(draw):
    """(source, expected native rows) of 2-4 levels of gate macros and calls to the last one."""
    arity = {name: (params, qubits) for name, (params, qubits, _) in _LEAVES.items()}
    bodies = {}  # macro name -> (parameter names, [(callee, [(text, evaluate)], qubit indices)])
    lines = ['OPENQASM 2.0;\ninclude "qelib1.inc";']
    for level in range(draw(st.integers(2, 4))):
        name = f"m{level}"
        params = [f"p{k}" for k in range(draw(st.integers(0, 2)))]
        qubits = draw(st.integers(arity[f"m{level - 1}"][1] if level else 1, 3))
        callees = [c for c, (_, q) in arity.items() if q <= qubits]
        body, rendered = [], []
        for k in range(draw(st.integers(1, 4))):
            callee = f"m{level - 1}" if level and k == 0 else draw(st.sampled_from(callees))  # nest every level
            n_args, n_qubits = arity[callee]
            args = [draw(macro_expressions(params)) for _ in range(n_args)]
            idx = draw(st.permutations(range(qubits)))[:n_qubits]  # formal qubits permuted, reused across ops
            body.append((callee, args, idx))
            angle_text = f"({','.join(text for text, _ in args)})" if args else ""
            rendered.append(f"{callee}{angle_text} {','.join(f'q{i}' for i in idx)};")
        formal = f"({','.join(params)})" if params else ""
        lines.append(f"gate {name}{formal} {','.join(f'q{i}' for i in range(qubits))} {{ {' '.join(rendered)} }}")
        bodies[name] = (params, body)
        arity[name] = (len(params), qubits)

    def expand(callee, values, qubits):
        if callee in _LEAVES:
            return [(k, qubits[t], qubits[c], 0.0 if a is None else values[a]) for k, t, c, a in _LEAVES[callee][2]]
        params, body = bodies[callee]
        env = dict(zip(params, values))
        return [row for sub, args, idx in body for row in expand(sub, [f(env) for _, f in args], [qubits[i] for i in idx])]

    lines += [f"qreg {reg}[2];" for reg in _REGISTERS]
    top = f"m{len(bodies) - 1}"
    n_args, n_qubits = arity[top]
    rows = []
    for _ in range(draw(st.integers(1, 8))):  # calls, lowered together in one batch
        values = [draw(st.sampled_from([0.0, -0.75, 1.5, math.pi / 3, -2.0])) for _ in range(n_args)]
        picks = [draw(st.sampled_from([None, 0, 1])) for _ in range(n_qubits)]  # None: the whole register
        angle_text = f"({','.join(repr(v) for v in values)})" if values else ""
        operands = ",".join(reg if j is None else f"{reg}[{j}]" for reg, j in zip(_REGISTERS, picks))
        lines.append(f"{top}{angle_text} {operands};")
        for k in range(2 if None in picks else 1):  # register broadcast
            qubits = [2 * i + (k if j is None else j) for i, j in enumerate(picks)]
            rows += expand(top, values, qubits)
    return "\n".join(lines) + "\n", rows


@settings(max_examples=150, deadline=None)
@given(macro_programs())
def test_nested_macros_lower_as_recursive_expansion(case):
    text, rows = case
    gates = parse(text).gates
    expected = list(zip(*rows)) if rows else [(), (), (), ()]
    assert gates.opcode.tolist() == [int(k) for k in expected[0]]
    assert gates.target.tolist() == list(expected[1])
    assert gates.control.tolist() == list(expected[2])
    assert gates.angle.tolist() == list(expected[3])


# ---------------------------------------------------------------------------
# Angle-table interning against fresh quantization
# ---------------------------------------------------------------------------

finite_angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e-300, -1e-300]),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def angle_lists(draw):
    """Angles drawn with repeats from a small pool."""
    pool = draw(st.lists(finite_angles, min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), max_size=60))


def fresh_table(angles, fmt):
    """Entries and per-angle indices, quantizing every angle anew with the oracle."""
    entries, indices = [], []
    for angle in angles:
        if fmt is None:
            pair = (math.sin(angle), math.cos(angle))
        else:
            pair = (oracle_quantize(math.sin(angle), fmt), oracle_quantize(math.cos(angle), fmt))
        if pair not in entries:
            entries.append(pair)
        indices.append(entries.index(pair))
    return entries, indices


@pytest.mark.parametrize(
    "fmt",
    [None, FixedPointFormat(8, "truncation"), FixedPointFormat(20, "nearest"), FixedPointFormat(32, "nearest_even")],
    ids=["float_reference", "8-bit", "20-bit", "32-bit"],
)
@settings(max_examples=150, deadline=None)
@given(angles=angle_lists())
def test_memoized_interning_equals_fresh_quantization(fmt, angles):
    table = AngleTable(fmt)
    indices = [table.intern(a) for a in angles]
    want_entries, want_indices = fresh_table(angles, fmt)
    assert indices == want_indices
    assert len(table) == len(want_entries)
    # repr keeps the sign of a float-reference zero visible
    assert [tuple(map(repr, p)) for p in table.entries] == [tuple(map(repr, p)) for p in want_entries]


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 32), st.sampled_from(list(Rounding)), angle_lists())
def test_compiled_constants_lie_in_minus_one_to_one(bits, mode, angles):
    # the ALU skips the range check of a product by a word in (-one, one], so of the constants
    # a compiled program multiplies by, only -one, a sine or cosine of -1.0, keeps its check
    fmt = FixedPointFormat(bits, mode)
    one, table = 1 << fmt.fractional_bits, AngleTable(fmt)
    for angle in angles:
        table.intern(angle)
    words = [w for pair in table.entries for w in pair] + [from_real(INV_SQRT2, fmt)]
    assert all(-one <= w <= one for w in words)
    safe = engine._FixedAlu([fmt])._all_safe
    assert {w for w in words if not safe((w,))} <= {-one}
    assert safe((from_real(INV_SQRT2, fmt),))


# ---------------------------------------------------------------------------
# The rounding core and the fixed-point array kernels against the exact-Fraction oracle
# ---------------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(st.integers(-(1 << 62) + 1, (1 << 62) - 1), st.integers(1, 30), st.sampled_from(list(Rounding)))
def test_rounding_core_on_ints_and_arrays_matches_oracle(wide, shift, mode):
    expected = oracle_round(Fraction(wide, 1 << shift), mode)
    assert round_shift(wide, shift, mode) == expected
    arr = np.array([wide], dtype=np.int64)
    assert round_shift(arr, shift, mode) is arr and arr[0] == expected


@st.composite
def kernel_cases(draw):
    """A random gate on a random state of at most 3 qubits, with words biased
    to the range edges, an arbitrary raw table pair and a block size that
    sometimes splits the couple tensor."""
    fmt = FixedPointFormat(draw(st.integers(8, 32)), draw(st.sampled_from(["truncation", "nearest", "nearest_even"])))
    lo, hi = fmt.min_raw, fmt.max_raw
    words = st.one_of(st.sampled_from([lo, lo + 1, -1, 0, 1, hi - 1, hi]), st.integers(lo, hi))
    n = draw(st.integers(1, 3))
    planes = [draw(st.lists(words, min_size=1 << n, max_size=1 << n)) for _ in range(2)]
    kind = draw(st.sampled_from(list(GateKind)))
    target = draw(st.integers(0, n - 1))
    control = draw(st.sampled_from([None] + [c for c in range(n) if c != target]))
    pair = (draw(words), draw(words))
    block = draw(st.sampled_from([2, 4, engine._BLOCK]))
    return fmt, n, planes, kind, target, control, pair, block


def assert_oracle_kernel(state: FixedState, case) -> None:
    """``state`` is ``case``'s gate applied to its planes, couple by couple, by the Fraction oracle."""
    fmt, n, (re, im), kind, target, control, pair, _ = case
    alu = OracleAlu(fmt)
    k = oracle_quantize(INV_SQRT2, fmt)
    expect_re, expect_im = list(re), list(im)
    for i, j in couple_pairs(n, target, control):
        sincos = pair if kind in ROTATIONAL else None
        (expect_re[i], expect_im[i]), (expect_re[j], expect_im[j]) = scalar_fixed_kernel(
            kind, (re[i], im[i]), (re[j], im[j]), k, sincos, alu
        )
    assert state.re.tolist() == expect_re
    assert state.im.tolist() == expect_im
    assert state.overflow == alu.overflow


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_array_kernels_match_fraction_oracle(case):
    fmt, n, (re, im), kind, target, control, pair, block = case
    table = AngleTable(fmt)
    table.entries.append(pair)
    state = FixedState(n, fmt, re, im)
    with mock.patch.object(engine, "_BLOCK", block):
        apply_gate(state, Instruction(kind, target, target if control is None else control, 0), table)
    assert_oracle_kernel(state, case)


@st.composite
def ladder_kernel_cases(draw):
    """A kernel case as row 1 of a three-row ladder, whose rows 0 and 2 hold
    random words and table pairs of widths from 3 to 32 bits in its mode."""
    case = draw(kernel_cases())
    fmt, n = case[0], case[1]
    others = []
    for _ in range(2):
        other = FixedPointFormat(draw(st.integers(3, 32) | st.sampled_from([3, 32])), fmt.rounding)
        words = st.integers(other.min_raw, other.max_raw)
        planes = [draw(st.lists(words, min_size=1 << n, max_size=1 << n)) for _ in range(2)]
        others.append((other, planes, (draw(words), draw(words))))
    return case, others


@settings(max_examples=300, deadline=None)
@given(ladder_kernel_cases())
def test_ladder_row_kernels_match_fraction_oracle(ladder_case):
    # row 1's constants are scaled to the widest row's fraction, and still round as its own format
    case, others = ladder_case
    fmt, n, planes, kind, target, control, pair, block = case
    rows = [others[0], (fmt, planes, pair), others[1]]
    states = [FixedState(n, f, *p) for f, p, _ in rows]
    tables = [AngleTable(f, [p]) for f, _, p in rows]
    op = (kind, target, target if control is None else control, (0, 0, 0))
    with mock.patch.object(engine, "_BLOCK", block):
        engine._execute(states, [op], tables)
    assert_oracle_kernel(states[1], case)


@st.composite
def ladders(draw):
    """Rows of mixed widths from 3 to 32 bits in one rounding mode, each from
    an edge state, and a seeded random circuit with controls."""
    mode = draw(st.sampled_from(list(Rounding)))
    widths = draw(st.lists(st.integers(3, 32) | st.sampled_from([3, 32]), min_size=2, max_size=5))
    n, n_gates, seed = draw(st.integers(1, 4)), draw(st.integers(1, 30)), draw(st.integers(0, 2**32 - 1))
    return mode, widths, n, n_gates, seed, draw(st.sampled_from([2, 4, engine._BLOCK]))


@settings(max_examples=150, deadline=None)
@given(ladders())
def test_ladder_rows_equal_their_own_runs(case):
    # edge words make some rows saturate while others do not; each row keeps its own flag
    mode, widths, n, n_gates, seed, block = case
    rng = np.random.default_rng(seed)
    gates = random_gates(rng, n, n_gates)
    fmts = [FixedPointFormat(w, mode) for w in widths]
    programs = [format_program(gates, fmt) for fmt in fmts]
    states = [edge_fixed_state(rng, n, fmt) for fmt in fmts]
    alone = [state.copy() for state in states]
    ops = [(i.opcode, i.target, i.control) for i in programs[0][0]]
    imms = zip(*([i.imm for i in instructions] for instructions, _ in programs))
    with mock.patch.object(engine, "_BLOCK", block):
        engine._execute(states, [(*op, imm) for op, imm in zip(ops, imms)], [table for _, table in programs])
        for state, (instructions, table) in zip(alone, programs):
            for instr in instructions:
                apply_gate(state, instr, table)
    for row, own in zip(states, alone):
        assert row.fmt == own.fmt
        assert np.array_equal(row.raw, own.raw) and row.overflow == own.overflow


# ---------------------------------------------------------------------------
# The columnar compile against the per-gate loop
# ---------------------------------------------------------------------------


@st.composite
def circuits(draw):
    """Random native gates on up to 4 qubits whose angles come from a small
    pool holding both zeros, and angles a step apart that quantize alike."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(finite_angles, min_size=1, max_size=6))
    pool += [0.0, -0.0, pool[0] + 1e-12, 2 * pool[0]]
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(list(GateKind)))
        target = draw(st.integers(0, n - 1))
        control = draw(st.sampled_from([None] + [c for c in range(n) if c != target]))
        angle = draw(st.sampled_from(pool)) if kind in ROTATIONAL else None
        gates.append(GateApplication(kind, target, control, angle))
    return gates_as_circuit(gates, n)


@pytest.mark.parametrize("rounding, bits", [("float_reference", 20), ("truncation", 8), ("nearest", 20), ("nearest_even", 32)])
@settings(max_examples=150, deadline=None)
@given(circuit=circuits(), imm_bits=st.integers(1, 4))
def test_columnar_compile_equals_per_gate_loop(rounding, bits, circuit, imm_bits):
    config = ExecConfig(n_qubits=4, imm_bits=imm_bits, data_bits=bits, rounding=rounding)
    try:
        want_instructions, want_table = oracle_compile(circuit, config)
    except CompileError as exc:
        with pytest.raises(CompileError, match=f"^{re.escape(str(exc))}$"):
            compile_circuit(circuit, config)
        return
    program = compile_circuit(circuit, config)
    assert program.instructions == want_instructions
    # repr keeps the sign of a float-reference zero visible
    assert [tuple(map(repr, p)) for p in program.table.entries] == [tuple(map(repr, p)) for p in want_table.entries]


# ---------------------------------------------------------------------------
# Wire framing: round trip and chunking invariance
# ---------------------------------------------------------------------------

_WORDS = st.one_of(st.integers(0, 1 << 20), st.integers(0, (1 << 63) - 1), st.integers(1 << 63, 16**MAX_PAYLOAD_DIGITS - 1))


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(list(MessageKind)))
    if kind is MessageKind.END_OF_EMULATION:
        return HostMessage(kind)
    value = draw(_WORDS)
    if kind is MessageKind.ANGLE_VALUE and draw(st.booleans()):
        value = -value
    return HostMessage(kind, value)


@settings(max_examples=200, deadline=None)
@given(st.lists(messages(), max_size=30))
def test_framing_round_trip(msgs):
    assert decode_stream(b"".join(encode_message(m) for m in msgs)) == msgs


def _decode_in_chunks(stream: bytes, cuts: list[int]):
    """Messages, or the FramingError text, of ``stream`` fed split at ``cuts``."""
    decoder, got = StreamDecoder(), []
    bounds = [0, *sorted(set(cuts)), len(stream)]
    try:
        for start, stop in zip(bounds, bounds[1:]):
            got.extend(decoder.feed(stream[start:stop]))
    except FramingError as exc:
        return "error", str(exc), exc.offset
    return got, decoder.pending


# frames one digit past the payload limit, unsigned and signed
_LONG_FRAMES = [b">" + b"F" * (MAX_PAYLOAD_DIGITS + 1) + b"#", b"<" + b"1" * (MAX_PAYLOAD_DIGITS + 1) + b"-#"]


@st.composite
def streams(draw):
    """A framed message stream, maybe with a payload past the limit, sometimes corrupted by a few byte edits of
    any value: the protocol's own bytes (a stray ``!`` among them), lowercase hex, NUL and non-ASCII bytes."""
    frames = draw(st.lists(st.one_of(messages().map(encode_message), st.sampled_from(_LONG_FRAMES)), max_size=12))
    stream = bytearray(b"".join(frames))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(stream)))
        byte = draw(st.one_of(st.sampled_from(b"?*<>!#-09AFaz \n\0\x80\xff"), st.integers(0, 255)))
        if draw(st.booleans()) or pos == len(stream):
            stream[pos:pos] = bytes([byte])
        else:
            stream[pos] = byte
    return bytes(stream)


@settings(max_examples=300, deadline=None)
@given(streams(), st.lists(st.integers(0, 200), max_size=8))
def test_stream_decoder_is_chunking_invariant(stream, cuts):
    cuts = [c for c in cuts if c <= len(stream)]
    assert _decode_in_chunks(stream, cuts) == _decode_in_chunks(stream, [])


class _RunReference:
    """A stream decoder that finds each feed's run of complete frames with one ``_FRAME_RUN`` match over
    the held and new bytes, and reads each frame's value with ``int``: the reference for StreamDecoder."""

    def __init__(self):
        self.held, self.offset = b"", 0

    def feed(self, data: bytes) -> list[tuple]:
        data, base = self.held + data, self.offset - len(self.held)
        stop = _FRAME_RUN.match(data).end()
        if not _PARTIAL.fullmatch(data, stop):
            raise _malformed(data, stop, base)
        self.held, self.offset = data[stop:], base + len(data)
        return [(m[0][:1].decode(), (-1 if m[2] else 1) * int(m[1] or b"0", 16), base + m.start())
                for m in re.finditer(rb"[?*<>]([0-9A-F]+)(-?)#|!", data[:stop])]


def _feeds(decoder, stream: bytes, cuts: list[int]) -> list:
    """What each feed of ``stream`` split at ``cuts`` gives: its ``(kind, value, offset)`` messages, or the
    FramingError text and offset (the decoder takes the next chunk as it was), and then ``pending``.  Any
    other exception escapes."""
    outcomes = []
    bounds = [0, *sorted(set(cuts)), len(stream)]
    for start, stop in zip(bounds, bounds[1:]):
        try:
            got = decoder.feed(stream[start:stop])
        except FramingError as exc:
            outcomes.append((str(exc), exc.offset))
        else:
            if isinstance(decoder, StreamDecoder):
                got = [(m.kind.value, m.value, offset) for m, offset in zip(got, got.offset.tolist())]
            outcomes.append(got)
        outcomes.append(decoder.pending if isinstance(decoder, StreamDecoder) else bool(decoder.held))
    return outcomes


@settings(max_examples=500, deadline=None)
@given(streams(), st.lists(st.integers(0, 200), max_size=8))
def test_stream_decoder_equals_one_pattern_match_per_feed(stream, cuts):
    # the frames' shapes are checked in arrays; a reference that takes the run with the frame pattern alone
    # gives the same messages, pending state and FramingError text and offset, in any chunking
    cuts = [c for c in cuts if c <= len(stream)]
    assert _feeds(StreamDecoder(), stream, cuts) == _feeds(_RunReference(), stream, cuts)


def _read_frames(stream: bytes) -> list[HostMessage]:
    """The messages of a well-framed stream, each payload converted on its own by ``int(digits, 16)``."""
    messages = []
    for m in re.finditer(rb"([?*<>])([0-9A-F]+)(-?)#|!", stream):
        if m[1] is None:
            messages.append(HostMessage(MessageKind.END_OF_EMULATION))
        else:
            messages.append(HostMessage(MessageKind(m[1].decode()), (-1 if m[3] else 1) * int(m[2], 16)))
    return messages


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("?*<>!"), st.text("0123456789ABCDEF", min_size=1, max_size=MAX_PAYLOAD_DIGITS),
                       st.booleans()), max_size=16),
    st.lists(st.integers(0, 1200), max_size=8),
)
def test_decoded_values_equal_a_per_frame_reader(frames, cuts):
    # digits as written, leading zeros too, so a payload may be any width up to the limit
    stream = b"".join(b"!" if k == "!" else f"{k}{d}{'-' if neg and k == '<' else ''}#".encode() for k, d, neg in frames)
    assert _decode_in_chunks(stream, [c for c in cuts if c <= len(stream)]) == (_read_frames(stream), False)


# ---------------------------------------------------------------------------
# Program files and readback: round trips with edge fields
# ---------------------------------------------------------------------------


@st.composite
def programs(draw):
    """A configuration and a program that loads, with fields at their extremes:
    the highest opcode; target and control ``n - 1``, which is ``2**fbits - 1``
    when ``n`` is a power of two; ``imm = 2**Q - 1`` on a gate without an angle
    and the last table entry on a rotation, with at most ``2**Q`` entries.  The
    loader rejects a field past the qubit count or the table, and a table longer
    than ``2**Q``."""
    n = draw(st.sampled_from([2, 4, 8, 16]) | st.integers(1, MAX_QUBITS))
    fbits = (n - 1).bit_length()
    imm_bits = draw(st.integers(1, 59 - 2 * fbits))
    rounding = draw(st.sampled_from(["float_reference", "truncation", "nearest", "nearest_even"]))
    config = ExecConfig(n_qubits=n, imm_bits=imm_bits, data_bits=draw(st.integers(8, 32)), rounding=rounding)
    if config.is_float_reference:
        values = st.sampled_from([-1.0, -0.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)
        fmt = None
    else:
        fmt = config.fixed_format
        values = st.sampled_from([fmt.min_raw, -1, 0, fmt.max_raw]) | st.integers(fmt.min_raw, fmt.max_raw)
    entries = draw(st.lists(st.tuples(values, values), max_size=min(6, 1 << imm_bits)))
    qubit = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
    plain = sorted(set(GateKind) - ROTATIONAL)
    imm = st.sampled_from([0, (1 << imm_bits) - 1]) | st.integers(0, (1 << imm_bits) - 1)
    rows = st.tuples(st.sampled_from([plain[0], plain[-1]]) | st.sampled_from(plain), qubit, qubit, imm)
    if entries:  # U1 is the highest opcode
        angle = st.sampled_from([0, len(entries) - 1]) | st.integers(0, len(entries) - 1)
        rows |= st.tuples(st.sampled_from([GateKind.U1]) | st.sampled_from(sorted(ROTATIONAL)), qubit, qubit, angle)
    instructions = [Instruction(*row) for row in draw(st.lists(rows, max_size=20))]
    return config, CompiledProgram(instructions, AngleTable(fmt, entries), n)


# A draw that once overran the table: Q = 1 with three entries, so U1's
# immediate 2 did not fit its field.  Pinned at the ``2**Q`` entries it may have.
_FULL_TABLE = (
    ExecConfig(n_qubits=2, imm_bits=1, data_bits=8, rounding="float_reference"),
    CompiledProgram(
        [Instruction(GateKind.X, 0, 0, 0)] * 4 + [Instruction(GateKind.U1, 0, 0, 1)],
        AngleTable(None, [(-1.0, -1.0)] * 2),
        2,
    ),
)


@pytest.mark.parametrize("file_format", ["integer_text", "binary"])
@settings(max_examples=100, deadline=None)
@given(case=programs())
@example(case=_FULL_TABLE)
def test_program_files_round_trip(tmp_path_factory, file_format, case):
    config, program = case
    where = tmp_path_factory.mktemp("files")
    write_program_files(program, config, where / "p", where / "t", file_format)
    loaded = load_program_files(where / "p", where / "t", config, file_format)
    assert loaded.instructions == program.instructions
    assert loaded.used_qubits == program.used_qubits
    assert [tuple(map(repr, p)) for p in loaded.table.entries] == [tuple(map(repr, p)) for p in program.table.entries]


@st.composite
def fixed_states(draw):
    fmt = FixedPointFormat(draw(st.integers(8, 32)), draw(st.sampled_from(list(Rounding))))
    n = draw(st.integers(0, 4))
    words = st.sampled_from([fmt.min_raw, -1, 0, fmt.max_raw]) | st.integers(fmt.min_raw, fmt.max_raw)
    planes = [draw(st.lists(words, min_size=1 << n, max_size=1 << n)) for _ in range(2)]
    return FixedState(n, fmt, *planes)


@settings(max_examples=200, deadline=None)
@given(fixed_states())
def test_readback_round_trip(state):
    back = decode_readback(encode_readback(state), state.fmt, state.n_qubits)
    assert np.array_equal(back.raw, state.raw)


# ---------------------------------------------------------------------------
# Strict text readers: one lenient edit is refused at the edited line
# ---------------------------------------------------------------------------

# Each edit is text that int() or float() would take but the file grammars do not.
LENIENT_EDITS = {
    "underscore": lambda line: line[:1] + b"_" + line[1:],
    "leading_plus": lambda line: b"+" + line,
    "surrounding_space": lambda line: b" " + line + b" ",
    "lowercase_hex": bytes.lower,
    "0x_prefix": lambda line: b"0x" + line,
    "blank_line": lambda line: b"\n" + line,
    "crlf": lambda line: line + b"\r",
    "missing_final_newline": None,  # drops the newline that ends the last line
}


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(["program", "table", "readback"]), edit=st.sampled_from(sorted(LENIENT_EDITS)),
       data=st.data())
def test_text_readers_refuse_a_lenient_edit_at_its_line(tmp_path_factory, reader, edit, data):
    if reader == "readback":
        state = data.draw(fixed_states())
        text = encode_readback(state)
    else:
        config, program = data.draw(programs())
        where = tmp_path_factory.mktemp("files")
        write_program_files(program, config, where / "program", where / "table")
        path = where / reader
        text = path.read_bytes()
    lines = text.split(b"\n")[:-1]
    if edit == "missing_final_newline":
        edited, k = text[:-1], len(lines) - 1
    else:
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = LENIENT_EDITS[edit](lines[k])
        edited = b"".join(line + b"\n" for line in lines)
    assume(edited != text)  # lowercase leaves a line of decimal digits as it is
    if reader == "readback":
        with pytest.raises(ProtocolError) as raised:
            decode_readback(edited, state.fmt, state.n_qubits)
        at = f"readback line {k + 1}: "
    else:
        path.write_bytes(edited)
        with pytest.raises(DecodeError) as raised:
            load_program_files(where / "program", where / "table", config)
        at = f"{path}:{k + 1}: "
    assert str(raised.value).startswith(at)
    if edit == "missing_final_newline":
        assert str(raised.value) == at + "missing final newline"
