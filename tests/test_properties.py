"""Property tests: parser robustness, angle-table interning, the rounding core
and the fixed-point array kernels against oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qbemu import engine
from qbemu.compiler import AngleTable, Instruction
from qbemu.engine import FixedState, apply_gate
from qbemu.fixedpoint import FixedPointFormat, Rounding, round_shift
from qbemu.gates import INV_SQRT2, ROTATIONAL, GateKind
from qbemu.qasm import QasmError, parse

from _helpers import OracleAlu, couple_pairs, oracle_quantize, oracle_round, scalar_fixed_kernel

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


@settings(max_examples=300, deadline=None)
@given(expressions(st.sampled_from(NUMBERS)), expressions(st.sampled_from(NUMBERS + ["t"])))
def test_angle_expressions_evaluate_finite_or_raise_qasm_error(direct, body):
    # ``body`` runs inside a macro with t = ``direct``, so both the top-level
    # and the expansion-time evaluation paths are exercised
    text = HEADER + f"gate g(t) a {{ rz({body}) a; }}\nrx({direct}) q[0];\ng({direct}) q[1];\n"
    _parses_or_raises_qasm_error(text)


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


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_array_kernels_match_fraction_oracle(case):
    fmt, n, (re, im), kind, target, control, pair, block = case
    table = AngleTable(fmt)
    table.entries.append(pair)
    state = FixedState(n, fmt, re, im)
    with mock.patch.object(engine, "_BLOCK", block):
        apply_gate(state, Instruction(kind, target, target if control is None else control, 0), table)
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
