"""Frontend parsing, lowering soundness, and source round-tripping."""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from qbemu.gates import GateApplication, GateKind
from qbemu import qasm
from qbemu.qasm import MAX_EXPR_DEPTH, MAX_NATIVE_GATES, MAX_REGISTER_SIZE, QasmError, parse

from _helpers import dense_oracle, dense_unitary, max_dev_up_to_global_phase

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def parse_body(body: str, qubits: int = 3) -> list[GateApplication]:
    return parse(HEADER + f"qreg q[{qubits}];\n" + body).gates


@pytest.fixture(params=["cold", "warm"])
def builtin_lowerings(request, monkeypatch):
    """A built-in's lowering is built once for the process and its angles shared by every one-row call, so a
    test runs with none built yet, and with all of them built and used by an earlier parse of every built-in."""
    for t in qasm._BUILTINS.values():
        monkeypatch.delitem(vars(t), "lowering", raising=False)
    if request.param == "warm":
        calls = [f"{name}{'(' + ','.join(['0.5'] * t.params) + ')' if t.params else ''} "
                 + ",".join(f"q[{k}]" for k in range(t.qubits)) + ";\n" for name, t in qasm._BUILTINS.items()]
        assert len(parse(HEADER + "qreg q[5];\n" + "".join(calls)).gates) > len(calls)
        assert all("lowering" in vars(t) for t in qasm._BUILTINS.values())


class TestParseBasics:
    def test_native_mapping(self):
        gates = parse_body("h q[1];\ncx q[1],q[0];\n")
        assert gates == [
            GateApplication(GateKind.H, 1),
            GateApplication(GateKind.X, 0, control=1),
        ]

    def test_measure_emits_nothing(self):
        circuit = parse(HEADER + "qreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\n")
        assert circuit.qubit_count == 2
        assert circuit.gates == [GateApplication(GateKind.H, 0)]

    def test_barrier_dropped_without_changing_counts(self):
        with_barrier = parse_body("h q[0];\nbarrier q;\nx q[1];\n")
        without = parse_body("h q[0];\nx q[1];\n")
        assert with_barrier == without

    def test_measure_whole_register(self):
        circuit = parse(HEADER + "qreg q[3];\ncreg c[3];\nmeasure q -> c;\n")
        assert circuit.gates == []

    def test_cz_expansion_pinned(self):
        gates = parse_body("cz q[0],q[1];\n")
        assert gates == [
            GateApplication(GateKind.H, 1),
            GateApplication(GateKind.X, 1, control=0),
            GateApplication(GateKind.H, 1),
        ]

    def test_user_defined_gate(self):
        src = HEADER + "gate foo a,b { h a; cx a,b; }\nqreg q[2];\nfoo q[0],q[1];\n"
        assert parse(src).gates == [
            GateApplication(GateKind.H, 0),
            GateApplication(GateKind.X, 1, control=0),
        ]

    def test_sdg_native(self):
        assert parse_body("sdg q[0];\n") == [GateApplication(GateKind.SDG, 0)]

    def test_swap_is_three_cx(self):
        gates = parse_body("swap q[0],q[1];\n")
        assert gates == [
            GateApplication(GateKind.X, 1, control=0),
            GateApplication(GateKind.X, 0, control=1),
            GateApplication(GateKind.X, 1, control=0),
        ]

    def test_ccx_is_fifteen_gates(self):
        gates = parse_body("ccx q[0],q[1],q[2];\n")
        assert len(gates) == 15
        kinds = [g.kind for g in gates]
        assert kinds.count(GateKind.X) == 6
        assert kinds.count(GateKind.T) == 4
        assert kinds.count(GateKind.TDG) == 3
        assert kinds.count(GateKind.H) == 2

    def test_angle_expressions(self):
        gates = parse_body("rx(pi/2) q[0];\nrz(-pi/4) q[1];\nu1(2*pi) q[2];\nry(sin(1.0)) q[0];\n")
        assert gates[0].angle == pytest.approx(math.pi / 2)
        assert gates[1].angle == pytest.approx(-math.pi / 4)
        assert gates[2].angle == pytest.approx(2 * math.pi)
        assert gates[3].angle == pytest.approx(math.sin(1.0))

    def test_broadcast_single_qubit(self):
        gates = parse_body("h q;\n")
        assert gates == [GateApplication(GateKind.H, k) for k in range(3)]

    def test_broadcast_two_registers(self):
        src = HEADER + "qreg a[2];\nqreg b[2];\ncx a,b;\n"
        assert parse(src).gates == [
            GateApplication(GateKind.X, 2, control=0),
            GateApplication(GateKind.X, 3, control=1),
        ]

    def test_qubit_flattening_order(self):
        src = HEADER + "qreg a[2];\nqreg b[1];\nx b[0];\nx a[1];\nx a[0];\n"
        circuit = parse(src)
        assert circuit.qubit_count == 3
        assert circuit.gates == [GateApplication(GateKind.X, k) for k in (2, 1, 0)]

    def test_parameter_env_in_definition(self):
        src = HEADER + "gate tw(t) a { rz(t/2) a; u1(-t) a; }\nqreg q[1];\ntw(pi) q[0];\n"
        gates = parse(src).gates
        assert gates[0].angle == pytest.approx(math.pi / 2)
        assert gates[1].angle == pytest.approx(-math.pi)

    def test_barrier_in_a_gate_body_is_dropped(self):
        defs = "gate g a,b { h a; barrier a,b; cx a,b; barrier b; }\n"
        assert _column_bytes(HEADER + defs + "qreg q[2];\ng q[1],q[0];\n") == _column_bytes(
            HEADER + "qreg q[2];\nh q[1];\ncx q[1],q[0];\n")

    def test_id_gate_is_noop(self):
        assert parse_body("id q[0];\n") == []


class TestParseErrors:
    def assert_error(self, src: str, fragment: str):
        with pytest.raises(QasmError) as err:
            parse(src)
        assert fragment in str(err.value)

    def test_missing_header(self):
        self.assert_error("qreg q[1];\n", "OPENQASM 2.0")

    def test_wrong_version(self):
        self.assert_error("OPENQASM 3.0;\n", "unsupported OpenQASM version")

    def test_unknown_gate(self):
        self.assert_error(HEADER + "qreg q[1];\nfrobnicate q[0];\n", "unknown gate 'frobnicate'")

    def test_wrong_arity(self):
        self.assert_error(HEADER + "qreg q[2];\nh q[0],q[1];\n", "qubit argument")

    def test_wrong_parameter_count(self):
        self.assert_error(HEADER + "qreg q[1];\nrx q[0];\n", "parameter")

    def test_if_rejected(self):
        src = HEADER + "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];\n"
        self.assert_error(src, "unsupported: conditional execution")

    def test_reset_rejected(self):
        self.assert_error(HEADER + "qreg q[1];\nreset q[0];\n", "unsupported: reset")

    def test_opaque_rejected(self):
        self.assert_error(HEADER + "opaque magic a;\n", "opaque")

    @pytest.mark.parametrize(
        "keyword, message",
        [
            ("include", "5:9: expected include file name, found 'q'"),
            ("qreg", "5:6: register 'q' already declared"),
            ("creg", "5:6: register 'q' already declared"),
            ("gate", "5:7: expected qubit argument, found '['"),
            ("opaque", "5:1: opaque gates are not supported (no semantics to emulate)"),
            ("if", "5:1: unsupported: conditional execution"),
            ("reset", "5:1: unsupported: reset"),
            ("measure", "5:13: expected ->, found ';'"),
            ("barrier", None),  # a barrier on q[0]; a gate call would be an unknown gate
        ],
    )
    def test_keyword_written_like_a_call_reaches_its_statement_parser(self, keyword, message):
        src = HEADER + f"qreg q[1];\ncreg c[1];\n{keyword} q[0];\n"
        if message is None:
            assert parse(src).gates == []
            return
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        assert str(err.value) == f"f.qasm:{message}"

    def test_index_out_of_range(self):
        self.assert_error(HEADER + "qreg q[3];\nh q[5];\n", "out of range")

    def test_recursive_definition(self):
        src = HEADER + "gate rec a { rec a; }\nqreg q[1];\n"
        self.assert_error(src, "recursive gate definition")

    def test_duplicate_qubit_operands(self):
        self.assert_error(HEADER + "qreg q[2];\ncx q[0],q[0];\n", "duplicate qubit")

    def test_unknown_include(self):
        self.assert_error('OPENQASM 2.0;\ninclude "other.inc";\n', "unsupported include")

    def test_error_carries_position(self):
        with pytest.raises(QasmError) as err:
            parse(HEADER + "qreg q[1];\nbogus q[0];\n", filename="demo.qasm")
        assert err.value.filename == "demo.qasm"
        assert err.value.line == 4
        assert err.value.col == 1

    def test_undefined_parameter(self):
        self.assert_error(HEADER + "qreg q[1];\nrx(alpha) q[0];\n", "undefined parameter")

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("sqrt(-1)", "math domain error"),
            ("ln(0)", "math domain error"),
            ("(-1)^0.5", "math domain error"),
            ("1.0e308*10", "result is inf"),
            ("1.0e308*10-1.0e308*10", "result is nan"),
        ],
    )
    def test_bad_angle_is_positioned(self, expr, message):
        with pytest.raises(QasmError) as err:
            parse(HEADER + f"qreg q[1];\n  rx({expr}) q[0];\n", filename="f.qasm")
        assert str(err.value) == f"f.qasm:4:3: cannot evaluate expression: {message}"

    def test_bad_angle_inside_macro_is_positioned_at_body_op(self):
        src = HEADER + "gate g(t) a {\n  h a;\n  rz(sqrt(t)) a;\n}\nqreg q[1];\ng(-1) q[0];\n"
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        assert str(err.value) == "f.qasm:5:3: cannot evaluate expression: math domain error"

    def test_zero_size_register(self):
        self.assert_error(HEADER + "qreg q[0];\n", "positive")

    def test_duplicate_register(self):
        self.assert_error(HEADER + "qreg q[1];\nqreg q[2];\n", "already declared")


def doubling_chain(levels: int) -> str:
    """Gate definitions g0..g{levels-1}, each calling the one before twice: g{k} lowers to 2^k gates."""
    return "gate g0 a { h a; }\n" + "".join(f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}\n" for k in range(1, levels))


class TestMacroExpansion:
    """A definition's template is built once, when it is defined, and the
    definition's errors are raised there, whether or not the gate is called,
    positioned at the body op or name at fault."""

    def error(self, src: str) -> str:
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        return str(err.value)

    def test_duplicate_qubit_in_expansion_raised_at_the_definition(self):
        defs = "gate inner a,b {\n  cx a,b;\n  cx b,b;\n}\n"
        message = "f.qasm:5:3: duplicate qubit in expansion of 'inner'"
        assert self.error(HEADER + defs + "qreg q[2];\n") == message  # never called
        assert self.error(HEADER + defs + "gate outer a,b { h a; inner b,a; }\nqreg q[2];\nouter q[0],q[1];\n") == message

    def test_undefined_parameter_is_not_taken_from_the_caller(self):
        defs = "gate inner a {\n  rx(t) a;\n}\n"
        message = "f.qasm:4:6: undefined parameter 't'"
        assert self.error(HEADER + defs + "qreg q[1];\n") == message  # never called
        assert self.error(HEADER + defs + "gate outer(t) a { inner a; }\nqreg q[1];\nouter(0.5) q[0];\n") == message

    def test_splice_shares_the_parsed_expression_tree(self):
        # each splice maps the expression's slots to the caller's, never copying the tree
        src = HEADER + "gate inner(t) a { rx(t + 1) a; }\ngate outer(t) a { inner(2 * t) a; inner(t) a; }\n"
        parser = qasm._Parser(src + "qreg q[1];\nouter(0.5) q[0];\n", "f.qasm")
        circuit = parser.parse()
        ((node, _, _),) = parser.templates["inner"].evals
        (double, _, _), (first, first_reads, _), (second, second_reads, _) = parser.templates["outer"].evals
        assert first is node and second is node
        assert (list(first_reads), list(second_reads)) == ([0, 2], [0, 1])  # slot 2 holds 2 * t
        assert circuit.gates.angle.tolist() == [2.0, 1.5]

    def test_splice_remaps_the_rows_qubits_and_slots(self):
        # outer's qubits x, y, z are 0, 1, 2: inner's a is z and b is x; inner's t reads outer's slot 2, u * 2
        src = HEADER + "gate inner(t) a,b { cx a,b; rz(t) b; h a; }\ngate outer(u) x,y,z { h y; inner(u * 2) z,x; }\n"
        parser = qasm._Parser(src, "f.qasm")
        parser.parse()
        inner, outer = parser.templates["inner"].rows, parser.templates["outer"].rows
        assert inner == [(GateKind.X, 1, 0, 0), (GateKind.RZ, 1, 1, 1), (GateKind.H, 0, 0, 0)]
        qubits, slots = [2, 0], [0, 2]
        assert outer == [(GateKind.H, 1, 1, 0), *((op, qubits[a], qubits[b], slots[s]) for op, a, b, s in inner)]

    def test_budget_at_a_definition(self):
        # after g19 the templates hold 2^20 - 1 gates; g20's first op goes over
        src = HEADER + doubling_chain(40)
        line = 3 + 20
        assert self.error(src) == f"f.qasm:{line}:14: gate expansion exceeds the limit of {MAX_NATIVE_GATES} native gates"

    def test_budget_at_a_call(self):
        src = HEADER + doubling_chain(20) + "qreg q[2];\ng0 q[0];\n"
        assert len(parse(src).gates) == 1  # exactly at the limit
        line = 2 + 20 + 3
        assert self.error(src + "g0 q;\n") == f"f.qasm:{line}:1: gate expansion exceeds the limit of {MAX_NATIVE_GATES} native gates"

    def test_budget_counts_angle_expressions(self, monkeypatch):
        # the definition splices 1 + 3 rows and u2's pi/2; a call adds 4 rows
        # and evaluates two expressions, t+1 and that pi/2
        defs = "gate g(t) a { rx(t+1) a; u2(t,t) a; }\n"
        ok = HEADER + defs + "qreg q[1];\ng(1) q[0];\n"
        monkeypatch.setattr(qasm, "MAX_NATIVE_GATES", 10)
        assert self.error(ok) == "f.qasm:5:1: gate expansion exceeds the limit of 10 native gates"
        monkeypatch.setattr(qasm, "MAX_NATIVE_GATES", 11)
        assert len(parse(ok).gates) == 4
        assert self.error(ok + "rx(1) q[0];\n") == "f.qasm:6:1: gate expansion exceeds the limit of 11 native gates"


class TestParserLimits:
    """Inputs that would exhaust Python's recursion or integer conversion
    limits end in positioned errors; inputs within the limits still parse."""

    def error(self, src: str) -> str:
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        return str(err.value)

    def angle(self, expr: str) -> float:
        (gate,) = parse(HEADER + f"qreg q[1];\nu1({expr}) q[0];\n").gates
        return gate.angle

    def test_deep_parentheses_positioned_at_first_paren_over_the_limit(self):
        src = HEADER + "qreg q[1];\nrx(" + "(" * 2000 + "1" + ")" * 2000 + ") q[0];\n"
        assert self.error(src) == f"f.qasm:4:{4 + MAX_EXPR_DEPTH}: expression nested deeper than {MAX_EXPR_DEPTH} levels"

    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_EXPR_DEPTH - 1  # the outermost level is the argument itself
        assert self.angle("(" * depth + "0.5" + ")" * depth) == 0.5
        assert self.angle("-" * depth + "0.5") == 0.5 * (-1) ** depth

    @pytest.mark.parametrize("expr", ["-" * 500 + "1", "^".join(["1"] * 500), "sin(" * 500 + "1" + ")" * 500])
    def test_other_deep_nesting_positioned(self, expr):
        message = self.error(HEADER + f"qreg q[1];\nrx({expr}) q[0];\n")
        assert message.startswith("f.qasm:4:") and message.endswith(f"nested deeper than {MAX_EXPR_DEPTH} levels")

    def test_long_operator_runs_evaluate_left_to_right(self):
        # runs of + - and * / are flat, so their length is not a depth
        assert self.angle("+".join(["1"] * 5000)) == 5000.0
        assert self.angle("*".join(["1"] * 5000)) == 1.0
        assert self.angle("10-3-2") == 5.0
        assert self.angle("8/2/2") == 2.0
        assert self.angle("2^3^2") == 512.0
        assert self.angle("1-2*3+4/2") == -3.0
        body = "gate g(t) a { u1(" + "+".join(["t"] * 3000) + ") a; }\n"
        (gate,) = parse(HEADER + body + "qreg q[1];\ng(0.5) q[0];\n").gates
        assert gate.angle == 1500.0

    def test_gate_definitions_nest_without_a_depth_limit(self):
        # a definition splices flat lists, so nesting is no recursion
        levels = 10_000
        defs = "gate g0 a { x a; }\n" + "".join(f"gate g{i} a {{ g{i - 1} a; }}\n" for i in range(1, levels))
        gates = parse(HEADER + defs + f"qreg q[1];\ng{levels - 1} q[0];\n").gates
        assert gates == [GateApplication(GateKind.X, 0)]

    def test_deepest_expression_inside_a_deep_chain_fits_the_stack(self):
        depth = MAX_EXPR_DEPTH - 1  # the outermost level is the argument itself
        expr = "".join("(0+" if i % 2 else "(t*" for i in range(depth)) + "t" + ")" * depth
        levels = 1000
        defs = f"gate g0(t) a {{ u1({expr}) a; }}\n" + "".join(
            f"gate g{i}(t) a {{ g{i - 1}({expr}) a; }}\n" for i in range(1, levels)
        )
        (gate,) = parse(HEADER + defs + f"qreg q[1];\ng{levels - 1}(1.0) q[0];\n").gates
        assert gate.angle == 1.0

    @pytest.mark.parametrize(
        "body, col, what",
        [
            ("qreg r[" + "9" * 5000 + "];", 8, "register size"),
            ("creg d[" + "9" * 5000 + "];", 8, "register size"),
            (f"qreg r[{MAX_REGISTER_SIZE + 1}];", 8, "register size"),
            ("h q[" + "9" * 5000 + "];", 5, "index"),
            ("measure q[0] -> c[" + "1" * 5000 + "];", 19, "index"),
        ],
        ids=["qreg_digits", "creg_digits", "qreg_size", "index_digits", "creg_index_digits"],
    )
    def test_oversized_integers_positioned(self, body, col, what):
        src = HEADER + "qreg q[1];\ncreg c[1];\n" + body + "\n"
        assert self.error(src) == f"f.qasm:5:{col}: {what} exceeds the limit of {MAX_REGISTER_SIZE}"

    def test_long_token_is_quoted_bounded(self):
        # the found token is cut to 40 characters, as config.quote cuts every quoted input
        src = HEADER + "qreg q[1];\nh q[0] " + "9" * 5000 + ";\n"
        assert self.error(src) == f"f.qasm:4:8: expected ;, found {'9' * 40!r}..."

    @pytest.mark.parametrize(
        "call, col, message",
        [
            ("g" * 5000 + " q[0];", 1, "unknown gate " + repr("g" * 40) + "..."),
            ("h " + "r" * 5000 + "[0];", 3, "unknown quantum register " + repr("r" * 40) + "..."),
            ("g" * 40 + " q[0];", 1, "unknown gate " + repr("g" * 40)),
            ("h " + "r" * 40 + "[0];", 3, "unknown quantum register " + repr("r" * 40)),
        ],
        ids=["long_gate", "long_register", "gate_at_40", "register_at_40"],
    )
    def test_long_identifier_is_quoted_bounded(self, call, col, message):
        # identifiers are quoted as config.quote quotes them: whole up to 40 characters
        error = self.error(HEADER + "qreg q[1];\n" + call + "\n")
        assert error == f"f.qasm:4:{col}: {message}"
        assert len(error.encode()) < 100

    def test_integers_within_the_limit(self):
        circuit = parse(HEADER + f"qreg q[000002];\nqreg r[{MAX_REGISTER_SIZE}];\nx q[0001];\n")
        assert circuit.qubit_count == 2 + MAX_REGISTER_SIZE
        assert circuit.gates == [GateApplication(GateKind.X, 1)]


class TestErrorPositions:
    """Exact ``file:line:col: message`` text; columns count characters from 1,
    so a tab or a carriage return is one column."""

    CASES = {
        "character_after_tabs": (
            HEADER + "qreg q[1];\n\t\th q[0];\t@\n",
            "f.qasm:4:11: unexpected character '@'",
        ),
        "character_after_crlf": (
            'OPENQASM 2.0;\r\ninclude "qelib1.inc";\r\nqreg q[1];\r\nh q[0];\r\n  $ q[0];\r\n',
            "f.qasm:5:3: unexpected character '$'",
        ),
        "after_comment_with_punctuation": (
            HEADER + "qreg q[1];\n// see a/b. (c) / 2.0\nh q[0]; // x/y.(z\n  bogus q[0];\n",
            "f.qasm:6:3: unknown gate 'bogus'",
        ),
        "comment_without_newline_at_eof": (
            HEADER + "qreg q[1];\nh q[0] // trailing, no newline",
            "f.qasm:4:31: expected ;",
        ),
        "non_ascii_digit": (HEADER + "qreg q[\u0663];\n", "f.qasm:3:8: unexpected character '\u0663'"),
        "unterminated_string": (
            'OPENQASM 2.0;\ninclude "qelib1.inc;\nqreg q[1];\n',
            "f.qasm:2:9: unexpected character '\"'",
        ),
        "expected_at_eof": (HEADER + "qreg q[1];\nh q[0]", "f.qasm:4:7: expected ;"),
        "expected_at_eof_after_blank_lines": (HEADER + "qreg q[1];\nh q[0]\n\n", "f.qasm:6:1: expected ;"),
        "undefined_parameter_in_body": (
            HEADER + "gate g(t) a {\n  h a;\n  rx(t + u) a;\n}\nqreg q[1];\ng(1.0) q[0];\n",
            "f.qasm:5:10: undefined parameter 'u'",
        ),
        "unknown_qubit_argument_in_body": (
            HEADER + "gate g a {\n  h a;\n    cx a, b;\n}\n",
            "f.qasm:5:5: unknown qubit argument 'b' in body of 'g'",
        ),
        "recursion_in_macro": (
            HEADER + "gate rec a {\n  h a; rec a;\n}\n",
            "f.qasm:4:8: recursive gate definition: 'rec' references itself",
        ),
        "math_error_inside_nested_macro": (
            HEADER + "gate inv(t) a {\n  h a;\n  rz(1/t) a;\n}\ngate outer(t) a { inv(t) a; }\n"
            "qreg q[1];\nouter(0) q[0];\n",
            "f.qasm:5:3: cannot evaluate expression: float division by zero",
        ),
        "math_range_error": (
            HEADER + "qreg q[1];\nrx(exp(1000)) q[0];\n",
            "f.qasm:4:1: cannot evaluate expression: math range error",
        ),
        "bad_character_after_an_earlier_error": (HEADER + "qreg q[1];\nh q[9];\n@\n", "f.qasm:4:3: qubit index q[9] out of range (size 1)"),
        "unknown_gate_before_a_bad_character": (HEADER + "qreg q[1];\nfoo q[0], @;\n", "f.qasm:4:1: unknown gate 'foo'"),
        "duplicate_qubit_before_a_bad_character": (
            HEADER + "qreg q[1];\ncx q[0], q[0];\n$",
            "f.qasm:4:1: duplicate qubit in gate arguments",
        ),
        "arity_read_from_tokens_before_a_bad_character": (
            HEADER + "qreg q[1];\ncx q[0], q[0], q[0];@\n",
            "f.qasm:4:1: gate 'cx' takes 2 qubit argument(s), got 3",
        ),
        "bad_character_in_a_body_barrier": (HEADER + "gate g a { barrier @ a; }\n", "f.qasm:3:20: unexpected character '@'"),
        "expression_in_a_body_barrier": (
            HEADER + "gate g a { barrier 1+2*pi; h a; }\n",
            "f.qasm:3:20: expected qubit argument, found '1'",
        ),
        "undeclared_name_in_a_body_barrier": (
            HEADER + "gate g a { barrier zz; }\n",
            "f.qasm:3:12: unknown qubit argument 'zz' in body of 'g'",
        ),
        "name_run_into_register": (HEADER + "qreg q[1];\nhq[0];\n", "f.qasm:4:1: unknown gate 'hq'"),
        "barrier_on_undeclared_register": (HEADER + "qreg q[1];\nbarrier z[0];\n", "f.qasm:4:9: unknown quantum register 'z'"),
        "infinite_literal": (
            HEADER + "qreg q[1];\nrx(1.0e999) q[0];\n",
            "f.qasm:4:1: cannot evaluate expression: result is inf",
        ),
        "redefined_qelib1_gate": (HEADER + "gate sx a { h a; }\n", "f.qasm:3:6: gate 'sx' already defined"),
        # an undefined name is raised where it is read, before the rest of its expression
        "undefined_name_before_a_later_syntax_error": (
            HEADER + "qreg q[1];\nrx(w+) q[0];\n",
            "f.qasm:4:4: undefined parameter 'w'",
        ),
        "duplicate_parameter": (HEADER + "gate g(t,t) a { }\n", "f.qasm:3:6: duplicate formal argument in gate 'g'"),
        "duplicate_qubit_argument": (HEADER + "gate  gg a,b,a { }\n", "f.qasm:3:7: duplicate formal argument in gate 'gg'"),
        "measure_into_an_undeclared_register": (
            HEADER + "qreg q[1];\nmeasure q[0] -> c[0];\n",
            "f.qasm:4:17: unknown classical register 'c'",
        ),
        "measure_register_size_mismatch": (
            HEADER + "qreg q[2];\ncreg c[3];\nmeasure q -> c;\n",
            "f.qasm:5:14: measure register size mismatch",
        ),
        "measure_bit_index_out_of_range": (
            HEADER + "qreg q[1];\ncreg c[2];\nmeasure q[0] -> c[2];\n",
            "f.qasm:5:17: bit index c[2] out of range (size 2)",
        ),
        "mismatched_register_sizes_in_broadcast": (
            HEADER + "qreg q[2];\nqreg r[3];\nh q;\n  cx q,r;\n",
            "f.qasm:6:3: mismatched register sizes in broadcast",
        ),
    }

    @pytest.mark.parametrize("keyword", sorted(qasm._STATEMENTS))
    def test_a_statement_keyword_is_no_gate_name(self, keyword):
        # a call of such a gate would be read as the statement: `barrier q[0];` would drop it unseen
        src = HEADER + f"qreg q[1];\ngate {keyword} a {{ h a; }}\n{keyword} q[0];\n"
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        assert str(err.value) == f"f.qasm:4:6: gate name '{keyword}' is a statement keyword"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exact_message(self, name):
        src, expected = self.CASES[name]
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        assert str(err.value) == expected
        line, col = (int(part) for part in expected.split(":")[1:3])
        assert (err.value.filename, err.value.line, err.value.col) == ("f.qasm", line, col)


@pytest.mark.usefixtures("builtin_lowerings")
class TestBatchedCallErrors:
    """Each call is checked whole and lowered when it is read, so of several
    errors among the calls and the statements after them the first in reading
    order is reported."""

    def error(self, body: str) -> str:
        with pytest.raises(QasmError) as err:
            parse(HEADER + "qreg q[2];\n" + body, filename="f.qasm")
        return str(err.value)

    def test_unknown_gate_at_call_3_before_a_bad_index_at_call_5(self):
        calls = ["h q[0];", "x q[1];", "bogus q[0];", "cx q[0],q[1];", "h q[7];"]
        assert self.error("\n".join(calls) + "\n") == "f.qasm:6:1: unknown gate 'bogus'"
        calls[2], calls[4] = calls[4], calls[2]
        assert self.error("\n".join(calls) + "\n") == "f.qasm:6:3: qubit index q[7] out of range (size 2)"

    def test_a_batched_error_before_a_later_syntax_error(self):
        body = "h q[1];\ncx q[0],q[0];\nh q[1];\nrx(pi/2 q[0];\n"
        assert self.error(body) == "f.qasm:5:1: duplicate qubit in gate arguments"

    def test_a_call_on_a_register_declared_after_it(self):
        assert self.error("h q[0];\nh r[0];\nqreg r[2];\nh r[1];\n") == "f.qasm:5:3: unknown quantum register 'r'"

    def test_a_call_of_a_gate_defined_after_it(self):
        assert self.error("h q[0];\ng q[0];\ngate g a { h a; }\ng q[1];\n") == "f.qasm:5:1: unknown gate 'g'"

    def test_budget_crossed_mid_batch_at_the_crossing_call(self, monkeypatch):
        monkeypatch.setattr(qasm, "MAX_NATIVE_GATES", 10)
        body = "h q[0];\n" * 8 + "cz q[0],q[1];\n" + "h q[1];\n" * 8  # 8 + 3 > 10 at the cz
        assert self.error(body) == "f.qasm:12:1: gate expansion exceeds the limit of 10 native gates"
        assert len(parse(HEADER + "qreg q[2];\n" + "h q[0];\n" * 7 + "cz q[0],q[1];\n").gates) == 10

    def test_a_broken_definition_raises_before_a_call_evaluates_its_expressions(self):
        # rx(1/t) reads the argument, so only a call evaluates it; the duplicate qubit raises at the definition
        definition = "gate bf(t) a,b { rx(1/t) a; cx a,a; }\n"
        message = "f.qasm:4:29: duplicate qubit in expansion of 'bf'"
        assert self.error(definition + "h q[0];\n") == message  # never called
        for call in ("bf(1) q[0],q[1];\n", "bf(0) q[0],q[1];\n"):
            assert self.error(definition + "h q[0];\n" + call) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            ("cx q[0];", "4:1: gate 'cx' takes 2 qubit argument(s), got 1"),
            ("h q[7];", "4:3: qubit index q[7] out of range (size 2)"),
            ("h(0.5) q[0],q[1];", "4:1: gate 'h' takes 0 parameter(s), got 1"),
            ("rx(0.5) q[0]; rx q[0];", "4:15: gate 'rx' takes 1 parameter(s), got 0"),  # the memo's call
            ("cx q[0],q[0];", "4:1: duplicate qubit in gate arguments"),
            ("bogus q[0];", "4:1: unknown gate 'bogus'"),
            ("cz q[0],q[1];", "4:1: gate expansion exceeds the limit of 2 native gates"),
            ("gate f(t) a { u0(1/t) a; } f(0) q[0];", "4:15: cannot evaluate expression: float division by zero"),
        ],
    )
    def test_a_failing_pattern_read_call_is_not_read_again(self, monkeypatch, call, message):
        def read_again(parser):
            raise AssertionError("read again from the tokens")

        monkeypatch.setattr(qasm._Parser, "_parse_gate_application", read_again)
        monkeypatch.setattr(qasm, "MAX_NATIVE_GATES", 2)
        assert self.error(call + "\nh q[0];\n") == "f.qasm:" + message

    def test_infinite_literal_inside_a_long_run(self):
        body = "cx q[0],q[1];\nrz(pi/4) q[1];\n" * 50 + "rx(1.0e999) q[0];\n" + "h q[1];\n" * 50
        assert self.error(body) == "f.qasm:104:1: cannot evaluate expression: result is inf"
        # without a point, 1e999 is no real literal in OpenQASM 2.0: the e999 after the 1 is read as a name
        body = "cx q[0],q[1];\n" * 50 + "rx(1e999) q[0];\n"
        assert self.error(body) == "f.qasm:54:5: expected ), found 'e999'"


@pytest.mark.usefixtures("builtin_lowerings")
class TestBuiltinErrorsAtTheCall:
    """An expression of a built-in that fails to evaluate is positioned at the
    call: at its name at top level, at the body statement inside a gate."""

    def error(self, body: str) -> str:
        with pytest.raises(QasmError) as err:
            parse(HEADER + body, filename="f.qasm")
        return str(err.value)

    # cu3's first expression, (lambda+phi)/2, overflows
    @pytest.mark.parametrize("call", ["cu3(1,1.0e308,1.0e308) q[0],q[1];", "  cu3(1, 1.0e308, (1.0e308)) q[0],q[1];"],
                             ids=["pattern", "tokens"])
    def test_at_the_call_name(self, call):
        col = call.index("cu3") + 1
        message = f"f.qasm:4:{col}: cannot evaluate expression: result is inf"
        assert self.error("qreg q[2];\n" + call + "\n") == message
        assert self.error("qreg q[2];\n" + call + "\nh q[0];\n" * 20) == message
        assert self.error("qreg q[2]; h q[1];\n" + call + " h q[0];\n") == message

    def test_at_the_body_statement(self):
        body = "gate g a,b {\n  h a;\n  cu3(1,1.0e308,1.0e308) a,b;\n}\nqreg q[2];\nh q[0];\ng q[0],q[1];\n"
        message = "f.qasm:5:3: cannot evaluate expression: result is inf"
        assert self.error(body) == message
        nested = body.replace("qreg", "gate outer a,b { g b,a; }\nqreg").replace("g q[0]", "outer q[0]")
        assert self.error(nested) == message


class TestPower:
    """``^`` is ``math.pow``: the float ``**`` gives wherever that is a float, and its own two errors elsewhere."""

    def error(self, src: str) -> str:
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        return str(err.value)

    def test_overflow_is_a_range_error_at_top_level(self):
        assert self.error(HEADER + "qreg q[1];\nrx(1.0e308^1.0e308) q[0];\n") == (
            "f.qasm:4:1: cannot evaluate expression: math range error")

    def test_overflow_is_a_range_error_in_a_body_expression_of_an_argument(self):
        src = HEADER + "gate g(t) a {\n  h a;\n  rx(t^1.0e308) a;\n}\nqreg q[1];\ng(2) q[0];\n"
        assert self.error(src) == "f.qasm:5:3: cannot evaluate expression: math range error"
        assert len(parse(src.replace("g(2)", "g(1)")).gates) == 2  # 1^1.0e308 is 1

    @pytest.mark.parametrize("expr", ["0^-1", "(-8)^(1/3)"])
    def test_no_real_power_is_a_domain_error(self, expr):
        assert self.error(HEADER + f"qreg q[1];\nrx({expr}) q[0];\n") == (
            "f.qasm:4:1: cannot evaluate expression: math domain error")

    def test_equals_float_power_wherever_that_is_a_float(self):
        # signed zeros, integers (a negative base's sign), extremes, and random reals of both signs
        operands = [0.0, -0.0, 0.5, -0.5, 1 / 3, math.pi, -math.pi, 1e-300, 1e10, -1e10, 1e300, 0.1, 53.0, -1074.0,
                    1023.0, *map(float, range(-7, 8)), *np.random.default_rng(25).uniform(-20, 20, 20).tolist()]
        compared = 0
        for base in operands:
            for exponent in operands:
                try:
                    want = base ** exponent
                except (ZeroDivisionError, OverflowError):
                    continue
                if isinstance(want, complex):
                    continue
                got = qasm._evaluate(("pow", ("num", base), ("num", exponent)), [])
                assert got == want and math.copysign(1, got) == math.copysign(1, want), (base, exponent)
                compared += 1
        assert compared > 1000


class TestConstantExpressions:
    """An angle expression of a gate body that reads no angle argument is
    evaluated once, when the gate is defined; one that fails to evaluate
    raises there, at its body op, whether or not the gate is called."""

    # (rows, SHA-256 prefix of the opcode, target, control and angle column
    # bytes) as lowered when every expression was evaluated at every call
    PINNED = {
        "c3x q[3],q[0],q[4],q[1];": (31, "b4a539a0e8a418c3143f4c5c9ede964e"),
        "c4x q[4],q[2],q[0],q[3],q[1];": (85, "21040e6cd37a26484239d47455aa4b57"),
        "rc3x q[1],q[3],q[0],q[2];": (26, "a2eba52d534b8b0b4dc633a319e24721"),
        "cu3(0.3,-1.2,2.5) q[2],q[4]; cu3(pi/3, -pi/7, 2*pi/5) q[4],q[0];": (20, "d9749db994cba57bd7e57b977c33a0b7"),
        "gate k(t) a,b { cu3(t, 0.25, pi) a,b; cu3(0.5, t, 1) b,a; }\nk(0.7) q[0],q[3];": (
            20, "88bf1c52b4446d09d9546765457fcb6b"),
    }

    @pytest.mark.parametrize("body", sorted(PINNED))
    def test_columns_as_when_evaluated_at_every_call(self, body):
        gates = parse(HEADER + "qreg q[5];\n" + body + "\n").gates
        digest = hashlib.sha256(b"".join(c.tobytes() for c in (gates.opcode, gates.target, gates.control, gates.angle)))
        assert (len(gates), digest.hexdigest()[:32]) == self.PINNED[body]

    def test_prelude_gates_evaluate_nothing_at_a_call(self, monkeypatch):
        # only expressions that read an angle argument are left to the call
        assert [name for name, t in qasm._BUILTINS.items() if t.evals] == ["cu3", "cu", "rxx"]
        evaluated = []
        monkeypatch.setattr(qasm, "_evaluate", lambda node, slots: evaluated.append(node) or 0.0)
        gates = parse(HEADER + "qreg q[5];\n" + "c4x q[0],q[1],q[2],q[3],q[4];\nc3x q[1],q[2],q[3],q[4];\n" * 50).gates
        assert evaluated == [] and len(gates) == 50 * (85 + 31)

    def test_an_argument_read_keeps_an_expression_at_the_call(self):
        parser = qasm._Parser(HEADER + "gate g(t) a { rx(pi/4) a; rz(t/2) a; ry(2*(0.5+pi)) a; }\n", "f.qasm")
        parser.parse()
        t = parser.templates["g"]
        assert [node for node, _, _ in t.evals] == [("chain", ("slot", 1), (("/", ("num", 2.0)),))]
        assert t.known == [0.0, None, math.pi / 4, None, 2 * (0.5 + math.pi)]

    def error(self, src: str) -> str:
        with pytest.raises(QasmError) as err:
            parse(src, filename="f.qasm")
        return str(err.value)

    def test_a_failing_constant_raises_at_the_definition(self):
        defs = "gate g a {\n  h a;\n  rx(1/0) a;\n}\n"
        for calls in ("", "g q[0];\n", "h q[0];\ng q[0];\ng q[0];\n"):  # never called, called once and twice
            assert self.error(HEADER + defs + "qreg q[1];\n" + calls) == (
                "f.qasm:5:3: cannot evaluate expression: float division by zero")

    def test_a_failing_constant_raises_before_an_expression_of_an_argument(self):
        # rz(1/t) fails for t = 0, but only a call evaluates it; the constant ln(0) after it fails at the definition
        defs = "gate g(t) a {\n  rz(1/t) a;\n  rx(ln(0)) a;\n}\nqreg q[1];\n"
        for calls in ("", "g(0) q[0];\n", "g(2) q[0];\n"):
            assert self.error(HEADER + defs + calls) == "f.qasm:5:3: cannot evaluate expression: math domain error"


class TestDeclarationsBetweenCalls:
    """Calls are resolved when they are read, so a register or gate declared
    between calls lowers nothing early: texts that alternate declarations and
    calls lower as the same text with its declarations first."""

    N = 2000

    def texts(self, kind: str) -> tuple[str, str]:
        """The alternating text of ``kind`` and the same statements with the declarations first."""
        if kind == "qreg":
            pairs = [(f"qreg r{k}[1];", f"h r{k}[0];") for k in range(self.N)]
        else:
            pairs = [(f"gate g{k} a {{ h a; rz({k}/7) a; }}", f"g{k} q[{k % 3}];") for k in range(self.N)]
        head = HEADER + "qreg q[3];\n"
        return head + "".join(f"{d}\n{c}\n" for d, c in pairs), head + "".join(f"{d}\n" for d, _ in pairs) + "".join(
            f"{c}\n" for _, c in pairs)

    @pytest.mark.parametrize("kind", ["qreg", "gate"])
    def test_alternating_lowers_as_declarations_first(self, kind):
        alternating, first = self.texts(kind)
        assert _column_bytes(alternating) == _column_bytes(first)
        assert len(parse(alternating).gates) == self.N * (1 if kind == "qreg" else 2)

    @pytest.mark.parametrize("kind, message", [("qreg", "unknown quantum register 'r1000'"), ("gate", "unknown gate 'g1000'")])
    def test_a_call_before_its_declaration_fails_there(self, kind, message):
        lines = self.texts(kind)[0].splitlines()
        at = 3 + 2 * 1000  # 0-based line of the 1000th declaration, with its call after it
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        col = 3 if kind == "qreg" else 1
        with pytest.raises(QasmError) as err:
            parse("\n".join(lines) + "\n", filename="f.qasm")
        assert str(err.value) == f"f.qasm:{at + 1}:{col}: {message}"


# The rows the built-ins now read from the prelude were written by hand before,
# as (opcode, target, control, angle slot) on the call's qubits: slot 0 no
# angle, slots 1.. the call's angles, and u2's slot 3 pi/2.  They are kept
# here as the reference that lowering must still match byte for byte.
_K = GateKind
_CCX = (
    (_K.H, 2, 2), (_K.X, 2, 1), (_K.TDG, 2, 2), (_K.X, 2, 0), (_K.T, 2, 2), (_K.X, 2, 1), (_K.TDG, 2, 2),
    (_K.X, 2, 0), (_K.T, 1, 1), (_K.T, 2, 2), (_K.H, 2, 2), (_K.X, 1, 0), (_K.T, 0, 0), (_K.TDG, 1, 1), (_K.X, 1, 0),
)
_U3 = ((_K.RZ, 0, 0, 3), (_K.RY, 0, 0, 1), (_K.RZ, 0, 0, 2))
_HAND_WRITTEN = {
    "cz": [(_K.H, 1, 1), (_K.X, 1, 0), (_K.H, 1, 1)],
    "cy": [(_K.SDG, 1, 1), (_K.X, 1, 0), (_K.S, 1, 1)],
    "swap": [(_K.X, 1, 0), (_K.X, 0, 1), (_K.X, 1, 0)],
    "ccx": _CCX,
    **{name: _U3 for name in ("u3", "u", "U")},
    "u2": [(_K.RZ, 0, 0, 2), (_K.RY, 0, 0, 3), (_K.RZ, 0, 0, 1)],
    "id": [],
}


def _hand_lowered(calls) -> list[bytes]:
    """Bytes of the opcode, target, control and angle columns of ``(name, angles, qubits)`` calls."""
    rows = []
    for name, angles, qubits in calls:
        slots = [0.0, *angles, math.pi / 2.0]
        rows += [(op, qubits[t], qubits[c], slots[(*slot, 0)[0]]) for op, t, c, *slot in _HAND_WRITTEN[name]]
    return [np.array(col, dtype).tobytes() for col, dtype in zip(zip(*rows), (np.int64, np.int64, np.int64, np.float64))]


def _column_bytes(text: str) -> list[bytes]:
    gates = parse(text).gates
    return [col.tobytes() for col in (gates.opcode, gates.target, gates.control, gates.angle)]


def _g_calls(a: float, b: float, x: int, y: int, z: int) -> list:
    """The calls of gate ``g`` below, with parameters ``a, b`` on flat qubits ``x, y, z``."""
    return [("cz", (), (x, y)), ("cy", (), (z, x)), ("swap", (), (y, z)), ("ccx", (), (z, x, y)),
            ("u3", (a, b, a * b), (y,)), ("u", (b, a, 0.5), (z,)), ("U", (a, -b, b), (x,)), ("u2", (a, b), (z,)),
            ("id", (), (x,))]


# Every gate qelib1.inc defines, as Qiskit ships it.
QELIB1_NAMES = (
    "u3 u2 u1 cx id u0 u p x y z h s sdg t tdg rx ry rz sx sxdg cz cy swap ch ccx cswap crx cry crz cu1 cp cu3 csx cu "
    "rxx rzz rccx rc3x c3x c3sqrtx c4x"
).split()


class TestPreludeKeepsHandWrittenLowering:
    REGS = "qreg q[2];\nqreg r[2];\nqreg s[2];\n"  # flat qubits q 0-1, r 2-3, s 4-5
    CALLS = [("cz", (), (0, 5)), ("cy", (), (3, 0)), ("swap", (), (4, 1)), ("ccx", (), (2, 0, 5)),
             ("u3", (0.1, -0.2, 0.3), (1,)), ("u", (1.5, 2.5, -3.5), (4,)), ("U", (-0.7, 0.0, 4.25), (0,)),
             ("u2", (0.5, -0.25), (3,)), ("id", (), (2,))]
    G = "gate g(a,b) x,y,z { cz x,y; cy z,x; swap y,z; ccx z,x,y; u3(a,b,a*b) y; u(b,a,0.5) z; U(a,-b,b) x; u2(a,b) z; id x; }\n"

    @pytest.mark.parametrize("form", ["{!r}", "({!r})"], ids=["pattern", "tokens"])
    def test_plain_calls(self, form):
        qubit = "qqrrss"
        text = "".join(
            name + (f"({','.join(map(form.format, angles))})" if angles else "")
            + " " + ",".join(f"{qubit[k]}[{k % 2}]" for k in qubits) + ";\n"
            for name, angles, qubits in self.CALLS
        )
        assert _column_bytes(HEADER + self.REGS + text) == _hand_lowered(self.CALLS)

    def test_whole_register_broadcast(self):
        text = ("cz q,r;\ncy r,s[0];\nswap s,q;\nccx q,r,s;\nu3(0.1,-0.2,0.3) r;\nu(1.5,2.5,-3.5) s;\n"
                "U(-0.7,0.0,4.25) q;\nu2(0.5,-0.25) r;\nid s;\n")
        calls = [[("cz", (), (k, 2 + k))] for k in range(2)] + [[("cy", (), (2 + k, 4))] for k in range(2)]
        calls += [[("swap", (), (4 + k, k))] for k in range(2)] + [[("ccx", (), (k, 2 + k, 4 + k))] for k in range(2)]
        calls += [[(name, angles, (base + k,))] for (name, angles, _), base in zip(self.CALLS[4:], (2, 4, 0, 2, 4))
                  for k in range(2)]
        assert _column_bytes(HEADER + self.REGS + text) == _hand_lowered(sum(calls, []))

    def test_calls_inside_a_user_gate(self):
        text = HEADER + self.REGS + self.G + "g(0.3,0.7) q[1],s[0],r[1];\ng(-1.5,2.0) q,r,s;\n"
        calls = _g_calls(0.3, 0.7, 1, 4, 3) + _g_calls(-1.5, 2.0, 0, 2, 4) + _g_calls(-1.5, 2.0, 1, 3, 5)
        assert _column_bytes(text) == _hand_lowered(calls)

    def test_every_other_builtin_is_read_from_the_prelude(self):
        defined = re.findall(r"^gate (\w+)", qasm._PRELUDE, re.MULTILINE)
        assert len(set(defined)) == len(defined) == qasm._PRELUDE.count("\ngate ")
        primitives = {*qasm._NATIVE_1Q, *qasm._CONTROLLED_NATIVE}
        assert not primitives & set(defined)
        assert set(qasm._BUILTINS) == primitives | set(defined)
        assert set(qasm._BUILTINS) == {"U", "CX", *QELIB1_NAMES}


@pytest.mark.usefixtures("builtin_lowerings")
class TestCallLowering:
    """A call lowers to its template's rows with NaN where it supplies the angle, and the NaNs are filled
    in order from its angles or its slot vector.  Each shape is read by the call pattern and from the
    tokens; the pattern reads no broadcast, so its text writes the broadcast out call by call."""

    G = "gate g(a,b,c) x { rx(b) x; ry(a) x; rz(b) x; }\n"  # parameters out of order, twice and not at all
    SHAPES = {
        "reordered": (G + "g(0.1,0.2,0.3) q[1];", G + "g((0.1), 0.2, 0.3) q[1];",
                      [(_K.RX, 1, 1, 0.2), (_K.RY, 1, 1, 0.1), (_K.RZ, 1, 1, 0.2)]),
        "broadcast": ("rx(0.5) q[0]; rx(0.5) q[1]; rx(0.5) q[2];", "rx(0.5) q;",
                      [(_K.RX, 0, 0, 0.5), (_K.RX, 1, 1, 0.5), (_K.RX, 2, 2, 0.5)]),
        # u2 folds U's pi/2, and cu3 folds constants and evaluates expressions of its angles
        "u2_cu3": ("u2(0.5,0.25) q[0]; cu3(0.5,0.25,0.125) q[0],q[1];", "u2(0.5,1/4) q[0]; cu3(1/2,0.25,0.125) q[0],q[1];",
                   [(_K.RZ, 0, 0, 0.25), (_K.RY, 0, 0, math.pi / 2), (_K.RZ, 0, 0, 0.5),
                    (_K.U1, 0, 0, 0.1875), (_K.U1, 1, 1, -0.0625), (_K.X, 1, 0, 0.0),
                    (_K.RZ, 1, 1, -0.1875), (_K.RY, 1, 1, -0.25), (_K.RZ, 1, 1, 0.0), (_K.X, 1, 0, 0.0),
                    (_K.RZ, 1, 1, 0.0), (_K.RY, 1, 1, 0.25), (_K.RZ, 1, 1, 0.25)]),
        "negative_zero": (G + "rz(-0.0) q[2]; g(-0.0,0.5,1) q[0];", G + "rz(-(0.0)) q[2]; g(-0.0,0.5,(1)) q[0];",
                          [(_K.RZ, 2, 2, -0.0), (_K.RX, 0, 0, 0.5), (_K.RY, 0, 0, -0.0), (_K.RZ, 0, 0, 0.5)]),
    }

    @pytest.mark.parametrize("reader", ["pattern", "tokens"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_columns_written_out(self, shape, reader, monkeypatch):
        read = []
        from_tokens = qasm._Parser._parse_gate_application
        monkeypatch.setattr(qasm._Parser, "_parse_gate_application", lambda p: read.append(p) or from_tokens(p))
        text = self.SHAPES[shape][reader == "tokens"]
        gates = parse(HEADER + "qreg q[3];\n" + text + "\n").gates
        assert bool(read) == (reader == "tokens")
        opcode, target, control, angle = zip(*self.SHAPES[shape][2])
        assert [gates.opcode.tolist(), gates.target.tolist(), gates.control.tolist()] == [[*map(int, opcode)],
                                                                                          [*target], [*control]]
        assert gates.angle.tobytes() == np.array(angle).tobytes()  # as bytes, so the sign of -0.0 counts


@pytest.mark.usefixtures("builtin_lowerings")
class TestOneLoweringStep:
    """Both readers hand a call to one lowering step in the parse loop, so a call that fails there fails with
    the same message at the same position whichever reader read it.  The tokens read every call when the call
    pattern never matches, and a spy on the token reader tells which one did."""

    HEAD = HEADER + "qreg q[2];\ngate f(t) a { h a; rx(1/t) a; }\n"
    CASES = {  # body after HEAD, and the message
        # the second rx hits the call memo and the angle-text memo that u2 filled, so only the step counts angles
        "angle_count_on_a_memo_hit": ("rx(0.5) q[0];\nu2(0.5,0.25) q[0];\nrx(0.5,0.25) q[0];\n",
                                      "f.qasm:7:1: gate 'rx' takes 1 parameter(s), got 2"),
        "budget_crossed_at_the_call": ("h q[0];\n" * 8 + "cz q[0],q[1];\nh q[1];\n",
                                       "f.qasm:13:1: gate expansion exceeds the limit of 10 native gates"),
        "failing_expression_on_the_slot_path": ("f(2) q[0];\nf(0) q[1];\n",
                                                "f.qasm:4:20: cannot evaluate expression: float division by zero"),
    }

    @pytest.mark.parametrize("reader", ["pattern", "tokens"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_error_from_either_reader(self, case, reader, monkeypatch):
        read = []
        from_tokens = qasm._Parser._parse_gate_application
        monkeypatch.setattr(qasm._Parser, "_parse_gate_application", lambda p: read.append(p) or from_tokens(p))
        monkeypatch.setattr(qasm, "MAX_NATIVE_GATES", 10)
        if reader == "tokens":
            monkeypatch.setattr(qasm, "_CALL_RE", re.compile("(?!)"))
        body, message = self.CASES[case]
        with pytest.raises(QasmError) as err:
            parse(self.HEAD + body, filename="f.qasm")
        assert str(err.value) == message
        assert bool(read) == (reader == "tokens")

    # angle texts read again from the memo, and texts of equal values
    REPEATED = "rz(-0.0) q[0];\nrx(0.10) q[1];\nrz(-0.0) q[1];\nrx(0.1) q[0];\nu2(-0.0,0.10) q[1];\nrx(0.10) q[0];\n"

    def test_repeated_angle_texts_lower_as_each_written_once(self):
        alone = [_column_bytes(HEADER + "qreg q[2];\n" + call + "\n") for call in self.REPEATED.splitlines()]
        assert _column_bytes(HEADER + "qreg q[2];\n" + self.REPEATED) == [b"".join(col) for col in zip(*alone)]
        angle = parse(HEADER + "qreg q[2];\n" + self.REPEATED).gates.angle
        assert np.signbit(angle[[0, 2, 6]]).all() and angle[1] == angle[3] == angle[7] == 0.1

    def test_a_full_angle_memo_starts_again(self, monkeypatch):
        calls = (f"rx({k % 7}.5) q[{k % 2}];\nh q[1];\nu2({k}.0,-0.0) q[0];\n" for k in range(40))
        text = HEADER + "qreg q[2];\n" + "".join(calls)
        expected = _column_bytes(text)
        monkeypatch.setattr(qasm, "_ANGLE_TEXTS", 2)
        assert _column_bytes(text) == expected


# Defining matrices for the lowered equivalences, written directly.
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _controlled(u: np.ndarray, controls: int = 1) -> np.ndarray:
    """Control on qubits ``0..controls-1`` (LSB first), unitary on the next, in this index convention."""
    on = (1 << controls) - 1
    m = np.eye(2 << controls, dtype=complex)
    m[np.ix_([on, on | 1 << controls], [on, on | 1 << controls])] = u
    return m


def _identity_with(qubits: int, entries: dict) -> np.ndarray:
    """The identity on ``qubits`` with the ``(row, column): value`` entries set."""
    m = np.eye(1 << qubits, dtype=complex)
    for (r, c), value in entries.items():
        m[r, c] = value
    return m


def _toffoli() -> np.ndarray:
    # controls on qubits 0 and 1, target on qubit 2: |011> <-> |111>
    m = np.eye(8, dtype=complex)
    m[3, 3] = m[7, 7] = 0
    m[3, 7] = m[7, 3] = 1
    return m


def _u3(theta, phi, lam) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2  # the square root of X that csx and c3sqrtx control


def _rxx(theta: float) -> np.ndarray:
    return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * np.kron(_X, _X)


def _rzz(theta: float) -> np.ndarray:
    return np.diag(np.exp(-0.5j * theta * np.array([1, -1, -1, 1])))  # exp(-i theta/2 Z(x)Z)


# The qelib1 gates the prelude adds: gate -> (call, matrix, qubits).  rccx and
# rc3x are Toffolis up to relative phases, as Qiskit's RCCXGate and RC3XGate.
QELIB1_MATRICES = {
    "sx": ("sx q[0];", _SX, 1),
    "sxdg": ("sxdg q[0];", _SX.conj().T, 1),
    "u0": ("u0(0.3) q[0];", np.eye(2), 1),
    "cswap": ("cswap q[0],q[1],q[2];", _identity_with(3, {(3, 3): 0, (5, 5): 0, (3, 5): 1, (5, 3): 1}), 3),
    "csx": ("csx q[0],q[1];", _controlled(_SX), 2),
    "cu3": ("cu3(1.1,0.4,2.3) q[0],q[1];", _controlled(_u3(1.1, 0.4, 2.3)), 2),
    "cu": ("cu(1.1,0.4,2.3,0.7) q[0],q[1];", _controlled(np.exp(0.7j) * _u3(1.1, 0.4, 2.3)), 2),
    "rxx": ("rxx(0.9) q[0],q[1];", _rxx(0.9), 2),
    "rzz": ("rzz(0.9) q[0],q[1];", _rzz(0.9), 2),
    "rccx": ("rccx q[0],q[1],q[2];", _identity_with(3, {(3, 3): 0, (7, 7): 0, (3, 7): -1j, (7, 3): 1j, (5, 5): -1}), 3),
    "rc3x": (
        "rc3x q[0],q[1],q[2],q[3];",
        _identity_with(4, {(3, 3): 1j, (7, 7): 0, (15, 15): 0, (7, 15): 1, (15, 7): -1, (11, 11): -1j}),
        4,
    ),
    "c3x": ("c3x q[0],q[1],q[2],q[3];", _controlled(_X, 3), 4),
    "c3sqrtx": ("c3sqrtx q[0],q[1],q[2],q[3];", _controlled(_SX, 3), 4),
    "c4x": ("c4x q[0],q[1],q[2],q[3],q[4];", _controlled(_X, 4), 5),
}


class TestLoweringSoundness:
    """Each multi-gate equivalence must reproduce its defining unitary up to
    a single global phase, checked with the dense tensor-product oracle."""

    def check(self, body: str, reference: np.ndarray, qubits: int):
        circuit = parse(HEADER + f"qreg q[{qubits}];\n" + body)
        got = dense_oracle(circuit)
        assert max_dev_up_to_global_phase(got, reference) < 1e-12

    def test_cz(self):
        self.check("cz q[0],q[1];\n", _CZ, 2)

    def test_cy(self):
        y = np.array([[0, -1j], [1j, 0]])
        self.check("cy q[0],q[1];\n", _controlled(y), 2)

    def test_ch(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        self.check("ch q[0],q[1];\n", _controlled(h), 2)

    def test_swap(self):
        self.check("swap q[0],q[1];\n", _SWAP, 2)

    def test_ccx(self):
        self.check("ccx q[0],q[1],q[2];\n", _toffoli(), 3)

    def test_u3(self):
        self.check("u3(1.1,0.4,2.3) q[0];\n", _u3(1.1, 0.4, 2.3), 1)

    def test_u2(self):
        self.check("u2(0.7,-0.2) q[0];\n", _u3(math.pi / 2, 0.7, -0.2), 1)

    def test_controlled_rotations(self):
        for name, mat in [
            ("crx(0.8)", _u3(0.8, -math.pi / 2, math.pi / 2)),
            ("cry(0.8)", _u3(0.8, 0.0, 0.0)),
            ("crz(0.8)", np.diag([np.exp(-0.4j), np.exp(0.4j)])),
            ("cu1(0.8)", np.diag([1.0, np.exp(0.8j)])),
        ]:
            self.check(f"{name} q[0],q[1];\n", _controlled(np.asarray(mat, complex)), 2)

    @pytest.mark.parametrize("gate", sorted(QELIB1_MATRICES))
    def test_qelib1_gate(self, gate):
        call, matrix, qubits = QELIB1_MATRICES[gate]
        self.check(call + "\n", matrix, qubits)

    def test_cnot_matrix_msq_target(self):
        # control on the LSQ, target on the MSQ
        circuit = parse(HEADER + "qreg q[2];\ncx q[0],q[1];\n")
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.allclose(dense_oracle(circuit), expected)


class TestButterflyDenseAgainstLayerTensor:
    def test_first_layer_tensor_product(self):
        # X on qubit 0 and H on qubit 1 of three wires: layer matrix I (x) H (x) X
        circuit = parse(HEADER + "qreg q[3];\nx q[0];\nh q[1];\n")
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        expected = np.kron(np.kron(np.eye(2), h), x)
        assert np.allclose(dense_oracle(circuit), expected)

    def test_single_h_is_h(self):
        circuit = parse(HEADER + "qreg q[1];\nh q[0];\n")
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        assert np.allclose(dense_oracle(circuit), h)

    def test_controlled_layer_tensor_product(self):
        # cz on the low wire pair of three: layer matrix I (x) CZ
        circuit = parse(HEADER + "qreg q[3];\ncz q[0],q[1];\n")
        expected = np.kron(np.eye(2), np.diag([1, 1, 1, -1])).astype(complex)
        assert np.max(np.abs(dense_oracle(circuit) - expected)) < 1e-12

    def test_size_guard(self):
        from qbemu.engine import EngineError

        with pytest.raises(EngineError):
            dense_unitary([], 11)
