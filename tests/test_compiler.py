"""Instruction encoding, angle-table dedup, and program file round trips."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from qbemu.columns import Columns
from qbemu.compiler import (
    AngleTable,
    CompileError,
    DecodeError,
    Instruction,
    compile_circuit,
    decode_words,
    encode_words,
    load_program_files,
    write_program_files,
)
from qbemu.config import ExecConfig
from qbemu.fixedpoint import FixedPointFormat, from_real
from qbemu.gates import GateApplication, GateKind
from qbemu.qasm import parse

from _helpers import gates_as_circuit

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def cfg(**kw) -> ExecConfig:
    return ExecConfig(**kw)


class TestCompile:
    def test_h_on_qubit_two(self):
        circuit = gates_as_circuit([GateApplication(GateKind.H, 2)], 3)
        program = compile_circuit(circuit, cfg(n_qubits=4))
        assert program.instructions == (Instruction(GateKind.H, 2, 2, 0),)
        assert program.used_qubits == 3

    def test_uncontrolled_fields_coincide(self):
        circuit = gates_as_circuit([GateApplication(GateKind.T, 1)], 2)
        (instr,) = compile_circuit(circuit, cfg(n_qubits=2)).instructions
        assert instr.control == instr.target == 1

    def test_shared_angle_single_entry(self):
        gates = [
            GateApplication(GateKind.RZ, 0, angle=math.pi / 4),
            GateApplication(GateKind.RZ, 1, angle=math.pi / 4),
        ]
        program = compile_circuit(gates_as_circuit(gates, 2), cfg(n_qubits=2))
        assert [i.imm for i in program.instructions] == [0, 0]
        assert len(program.table) == 1

    def test_distinct_angles_two_entries(self):
        gates = [
            GateApplication(GateKind.RX, 0, angle=math.pi / 2),
            GateApplication(GateKind.RX, 0, angle=-math.pi / 2),
        ]
        program = compile_circuit(gates_as_circuit(gates, 1), cfg(n_qubits=1, imm_bits=4))
        assert [i.imm for i in program.instructions] == [0, 1]
        assert len(program.table) == 2

    def test_quantization_collision_shares_slot(self):
        # angles closer than one LSB of the stored sine/cosine collapse together
        gates = [
            GateApplication(GateKind.RY, 0, angle=0.5),
            GateApplication(GateKind.RY, 0, angle=0.5 + 1e-9),
        ]
        program = compile_circuit(gates_as_circuit(gates, 1), cfg(n_qubits=1, data_bits=12))
        assert len(program.table) == 1

    def test_controlled_rotation_uses_table_slot(self):
        gates = [GateApplication(GateKind.U1, 1, control=0, angle=0.9)]
        program = compile_circuit(gates_as_circuit(gates, 2), cfg(n_qubits=2))
        assert len(program.table) == 1
        assert program.instructions[0].control == 0

    def test_capacity_error(self):
        circuit = gates_as_circuit([GateApplication(GateKind.X, 5)], 6)
        with pytest.raises(CompileError, match="qubit capacity exceeded"):
            compile_circuit(circuit, cfg(n_qubits=4))

    def test_table_overflow_error(self):
        gates = [GateApplication(GateKind.RZ, 0, angle=0.1 * k) for k in range(1, 4)]
        with pytest.raises(CompileError, match="2\\^Q distinct angles"):
            compile_circuit(gates_as_circuit(gates, 1), cfg(n_qubits=1, imm_bits=1))

    def test_deterministic(self):
        src = HEADER + "qreg q[3];\nh q[0];\nrx(0.7) q[1];\ncx q[0],q[2];\nrx(0.7) q[2];\n"
        a = compile_circuit(parse(src), cfg(n_qubits=3))
        b = compile_circuit(parse(src), cfg(n_qubits=3))
        assert a == b

    def test_deterministic_at_file_level(self, tmp_path):
        src = HEADER + "qreg q[3];\nh q[0];\nrx(0.7) q[1];\ncx q[0],q[2];\nrx(0.7) q[2];\n"
        config = cfg(n_qubits=3)
        for fmt, suffix in (("integer_text", "txt"), ("binary", "bin")):
            blobs = []
            for k in range(2):
                program = compile_circuit(parse(src), config)
                p, t = tmp_path / f"p{k}.{suffix}", tmp_path / f"t{k}.{suffix}"
                write_program_files(program, config, p, t, fmt)
                blobs.append((p.read_bytes(), t.read_bytes()))
            assert blobs[0] == blobs[1]

    def test_instruction_count_matches_gate_count(self):
        src = HEADER + "qreg q[3];\nccx q[0],q[1],q[2];\nswap q[0],q[1];\ncz q[1],q[2];\n"
        circuit = parse(src)
        program = compile_circuit(circuit, cfg(n_qubits=3))
        assert len(program.instructions) == len(circuit.gates) == 15 + 3 + 3

    def test_table_length_equals_distinct_quantized_pairs(self):
        rng = np.random.default_rng(5)
        fmt = FixedPointFormat(10, "nearest")
        angles = [float(a) for a in rng.uniform(-math.pi, math.pi, size=40)]
        gates = [GateApplication(GateKind.U1, 0, angle=a) for a in angles]
        program = compile_circuit(
            gates_as_circuit(gates, 1), cfg(n_qubits=1, imm_bits=6, data_bits=10)
        )
        expected = {
            (from_real(math.sin(a), fmt), from_real(math.cos(a), fmt)) for a in angles
        }
        assert len(program.table) == len(expected)


def encode_one(instr: Instruction, config: ExecConfig) -> int:
    return encode_words([instr], config).item(0)


def decode_one(word: int, config: ExecConfig) -> Instruction:
    return decode_words(np.array([word], dtype=np.int64), config)[0]


class TestEncodeDecode:
    def test_layout_example_n4(self):
        # [opcode|control|target|imm]: X(t=0,c=3) at N=4,Q=4 -> 0000 11 00 0000
        word = encode_one(Instruction(GateKind.X, 0, 3, 0), cfg(n_qubits=4, imm_bits=4))
        assert word == 0b0000_11_00_0000 == 0xC0

    def test_layout_example_n2(self):
        # H(t=1) at N=2,Q=2 -> 0011 1 1 00 (8-bit word)
        config = cfg(n_qubits=2, imm_bits=2, window=0)
        word = encode_one(Instruction(GateKind.H, 1, 1, 0), config)
        assert word == 0b0011_1_1_00 == 0x3C
        assert config.instruction_bits == 8

    def test_zero_word(self):
        instr = decode_one(0, cfg(n_qubits=4, imm_bits=4))
        assert instr == Instruction(GateKind.X, 0, 0, 0)

    def test_all_ones_imm(self):
        config = cfg(n_qubits=4, imm_bits=4)
        assert decode_one(0b1111, config).imm == 15

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            q = int(rng.integers(1, 9))
            config = cfg(n_qubits=n, imm_bits=q)
            fmax = 1 << config.qubit_field_bits
            for _ in range(50):
                instr = Instruction(
                    GateKind(int(rng.integers(12))),
                    int(rng.integers(fmax)),
                    int(rng.integers(fmax)),
                    int(rng.integers(1 << q)),
                )
                assert decode_one(encode_one(instr, config), config) == instr

    def test_field_overflow(self):
        with pytest.raises(CompileError, match="field overflow"):
            encode_one(Instruction(GateKind.X, 4, 0, 0), cfg(n_qubits=4, imm_bits=4))
        with pytest.raises(CompileError, match="field overflow"):
            encode_one(Instruction(GateKind.X, 0, 0, 16), cfg(n_qubits=4, imm_bits=4))

    def test_field_overflow_names_first_offending_instruction_and_field(self):
        config = cfg(n_qubits=4, imm_bits=4)
        rows = [Instruction(GateKind.X, 0, 0, 0), Instruction(GateKind.X, 0, 5, 17), Instruction(GateKind.X, 4, 0, 0)]
        with pytest.raises(CompileError, match="^field overflow: control 5 needs more than 2 bits$"):
            encode_words(rows, config)

    def test_word_width_mismatch(self):
        with pytest.raises(DecodeError, match="width mismatch"):
            decode_one(1 << 12, cfg(n_qubits=4, imm_bits=4))

    def test_invalid_opcode(self):
        config = cfg(n_qubits=4, imm_bits=4)
        word = encode_one(Instruction(GateKind.U1, 0, 0, 0), config)
        bad = word | (0b1111 << (config.instruction_bits - 4))
        with pytest.raises(DecodeError, match="invalid opcode"):
            decode_one(bad, config)


class TestProgramFiles:
    SRC = HEADER + "qreg q[3];\nh q[2];\ncx q[2],q[1];\nrx(1.25) q[0];\nrx(-1.25) q[1];\n"

    def test_text_round_trip(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(self.SRC), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        loaded = load_program_files(tmp_path / "p.txt", tmp_path / "t.txt", config)
        assert loaded == program

    def test_binary_round_trip(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(self.SRC), config)
        write_program_files(program, config, tmp_path / "p.bin", tmp_path / "t.bin", "binary")
        loaded = load_program_files(tmp_path / "p.bin", tmp_path / "t.bin", config, "binary")
        assert loaded == program

    def test_formats_decode_identically(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(self.SRC), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        write_program_files(program, config, tmp_path / "p.bin", tmp_path / "t.bin", "binary")
        text = load_program_files(tmp_path / "p.txt", tmp_path / "t.txt", config)
        binary = load_program_files(tmp_path / "p.bin", tmp_path / "t.bin", config, "binary")
        assert text.instructions == binary.instructions
        assert text.table.entries == binary.table.entries

    def test_float_reference_table_round_trip(self, tmp_path):
        config = cfg(n_qubits=3, rounding="float_reference")
        program = compile_circuit(parse(self.SRC), config)
        for fmt_name in ("integer_text", "binary"):
            suffix = "t" if fmt_name == "integer_text" else "b"
            write_program_files(
                program, config, tmp_path / f"p.{suffix}", tmp_path / f"t.{suffix}", fmt_name
            )
            loaded = load_program_files(
                tmp_path / f"p.{suffix}", tmp_path / f"t.{suffix}", config, fmt_name
            )
            assert loaded == program

    def test_empty_circuit_single_header_line(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(HEADER + "qreg q[3];\n"), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        assert (tmp_path / "p.txt").read_text() == "3\n"

    def test_single_entry_table_header(self, tmp_path):
        config = cfg(n_qubits=2)
        src = HEADER + "qreg q[2];\nrz(pi/4) q[0];\nrz(pi/4) q[1];\n"
        program = compile_circuit(parse(src), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        table_lines = (tmp_path / "t.txt").read_text().splitlines()
        assert table_lines[0] == "1"
        assert len(table_lines) == 2

    def test_tampered_program_decode_error(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(self.SRC), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        lines = (tmp_path / "p.txt").read_text().splitlines()
        lines[1] = "ZZZ"
        (tmp_path / "p.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(DecodeError):
            load_program_files(tmp_path / "p.txt", tmp_path / "t.txt", config)

    def test_table_count_mismatch_detected(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(self.SRC), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        lines = (tmp_path / "t.txt").read_text().splitlines()
        lines[0] = "7"
        (tmp_path / "t.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(DecodeError, match="header says"):
            load_program_files(tmp_path / "p.txt", tmp_path / "t.txt", config)

    def test_unknown_file_format_refused(self, tmp_path):
        config = cfg(n_qubits=3)
        program = compile_circuit(parse(self.SRC), config)
        message = r"^file_format must be one of \('integer_text', 'binary'\)$"
        with pytest.raises(ValueError, match=message):
            write_program_files(program, config, tmp_path / "p", tmp_path / "t", "hex")
        write_program_files(program, config, tmp_path / "p", tmp_path / "t")
        with pytest.raises(ValueError, match=message):
            load_program_files(tmp_path / "p", tmp_path / "t", config, "hex")

    @pytest.mark.parametrize("file_format", ["integer_text", "binary"])
    def test_float_entry_past_one_named_where_a_non_finite_one_is(self, tmp_path, file_format):
        # a fixed-point table's raw integers read as floats are finite, and past 1 in magnitude
        config = cfg(n_qubits=3, rounding="float_reference")
        p, t = tmp_path / "p", tmp_path / "t"
        write_program_files(compile_circuit(parse(self.SRC), config), config, p, t, file_format)
        if file_format == "integer_text":
            t.write_text("2\n0.25,0.5\n0.5,262144.0\n")
            where = f"{t}:3: bad table entry '0.5,262144.0'"
        else:
            t.write_bytes(b"2\n" + struct.pack("<4d", 0.25, 0.5, 0.5, 262144.0))
            where = str(t)
        message = "value 262144.0 out of range for float-reference mode; was the table written for a fixed-point configuration?"
        with pytest.raises(DecodeError) as err:
            load_program_files(p, t, config, file_format)
        assert str(err.value) == f"{where}: {message}"

    def test_sliced_instructions_are_columns(self):
        instructions = compile_circuit(parse(self.SRC), cfg(n_qubits=3)).instructions
        part = instructions[1:3]
        assert isinstance(part, Columns) and len(part) == 2 and part == list(instructions)[1:3]

    @pytest.mark.parametrize(
        "raw",
        [2**40, 2**63, 2**31, -(2**31) - 1, 2**31 - 1, -(2**31)],
        ids=["2**40", "2**63", "max_raw+1", "min_raw-1", "max_raw", "min_raw"],
    )
    def test_text_table_values_range_checked(self, tmp_path, raw):
        config = cfg(n_qubits=1, imm_bits=2, data_bits=32)
        fmt = config.fixed_format
        assert (fmt.min_raw, fmt.max_raw) == (-(2**31), 2**31 - 1)
        program = compile_circuit(parse(HEADER + "qreg q[1];\nry(0.5) q[0];\n"), config)
        write_program_files(program, config, tmp_path / "p.txt", tmp_path / "t.txt")
        (tmp_path / "t.txt").write_text(f"1\n{raw},0\n")
        if fmt.min_raw <= raw <= fmt.max_raw:
            loaded = load_program_files(tmp_path / "p.txt", tmp_path / "t.txt", config)
            assert loaded.table.entries == [(raw, 0)]
        else:
            message = rf"t\.txt:2: bad table entry '{raw},0': value {raw} outside the 32-bit range \[-2147483648, 2147483647\]"
            with pytest.raises(DecodeError, match=message):
                load_program_files(tmp_path / "p.txt", tmp_path / "t.txt", config)


class TestAngleTable:
    def test_entries_hold_quantized_raw_values(self):
        fmt = FixedPointFormat(20, "nearest")
        table = AngleTable(fmt)
        idx = table.intern(0.375)
        assert table.entries[idx] == (from_real(math.sin(0.375), fmt), from_real(math.cos(0.375), fmt))

    def test_float_mode_exact(self):
        table = AngleTable(None)
        idx = table.intern(-0.25)
        assert table.entries[idx] == (math.sin(-0.25), math.cos(-0.25))

    @pytest.mark.parametrize("fmt", [None, FixedPointFormat(20, "nearest")])
    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, fmt, angle):
        table = AngleTable(fmt)
        with pytest.raises(CompileError, match="not finite"):
            table.intern(angle)
        assert len(table) == 0
