"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import collections
import shutil
import struct
import time

import numpy as np
import pytest

import qbemu
from qbemu.cli import build_parser, main
from qbemu.config import MAX_QUBITS, ROUNDING_CHOICES, ConfigError, ExecConfig, parse_config
from qbemu.fixedpoint import FixedPointFormat
from qbemu.qasm import MAX_NATIVE_GATES

INV_SQRT2 = 2.0**-0.5


@pytest.fixture
def bell_qasm(tmp_path):
    dst = tmp_path / "bell.qasm"
    shutil.copy(qbemu.fixture_path("bell.qasm"), dst)
    return dst


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "arch.cfg"
    path.write_text("N = 4\nW = 0\nQ = 4\ndata_bits = 20\nrounding = nearest\n")
    return path


def compile_bell(tmp_path, bell_qasm, config_file, fmt="integer_text"):
    out = tmp_path / "out"
    rc = main(
        [
            "compile",
            str(bell_qasm),
            "--config",
            str(config_file),
            "--format",
            fmt,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    suffix = "txt" if fmt == "integer_text" else "bin"
    return out / f"bell.prog.{suffix}", out / f"bell.table.{suffix}"


class TestCompile:
    def test_bell_program_file(self, tmp_path, bell_qasm, config_file, capsys):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        lines = prog.read_text().splitlines()
        assert lines[0] == "3"
        assert len(lines) == 4  # header + three instructions
        assert table.read_text().splitlines()[0] == "0"

    def test_missing_file_exit_2(self, tmp_path, config_file, capsys):
        rc = main(["compile", str(tmp_path / "absent.qasm"), "--config", str(config_file)])
        assert rc == 2

    def test_bad_qasm_exit_3(self, tmp_path, config_file):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nnonsense q[0];\n")
        rc = main(["compile", str(bad), "--config", str(config_file), "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("expr", ["sqrt(-1)", "ln(0)", "1.0e308*10", "1.0e308*10-1.0e308*10"])
    def test_bad_angle_exit_3_with_position(self, tmp_path, config_file, capsys, expr):
        bad = tmp_path / "bad.qasm"
        bad.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrx({expr}) q[0];\n')
        rc = main(["compile", str(bad), "--config", str(config_file), "--out", str(tmp_path)])
        assert rc == 3
        assert f"{bad}:4:1: cannot evaluate expression" in capsys.readouterr().err

    def test_binary_and_text_decode_identically(self, tmp_path, bell_qasm, config_file):
        from qbemu.compiler import load_program_files
        from qbemu.config import load_config

        config = load_config(config_file)
        pt, tt = compile_bell(tmp_path, bell_qasm, config_file, "integer_text")
        pb, tb = compile_bell(tmp_path, bell_qasm, config_file, "binary")
        text = load_program_files(pt, tt, config)
        binary = load_program_files(pb, tb, config, "binary")
        assert text.instructions == binary.instructions

    def test_usage_error_exit_1(self):
        assert main(["compile"]) == 1

    @pytest.mark.parametrize(
        "line, col, message",
        [
            ("rx(" + "(" * 2000 + "1" + ")" * 2000 + ") q[0];", 104, "expression nested deeper than 100 levels"),
            ("qreg r[" + "9" * 5000 + "];", 8, "register size exceeds the limit of 65536"),
            ("x q[" + "9" * 5000 + "];", 5, "index exceeds the limit of 65536"),
            ("rx(\u0661.\u0665) q[0];", 4, "unexpected character '\u0661'"),  # ARABIC-INDIC 1.5
        ],
        ids=["deep_parentheses", "long_register_size", "long_index", "non_ascii_digit"],
    )
    def test_parser_limits_exit_3_with_position(self, tmp_path, config_file, capsys, line, col, message):
        bad = tmp_path / "bad.qasm"
        bad.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{line}\n', encoding="utf-8")
        rc = main(["compile", str(bad), "--config", str(config_file), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {bad}:4:{col}: {message}\n"


class TestRun:
    def test_bell_float_amplitudes(self, tmp_path, bell_qasm, config_file):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        dump = tmp_path / "state.txt"
        rc = main(
            [
                "run",
                str(prog),
                str(table),
                "--config",
                str(config_file),
                "--rounding",
                "float_reference",
                "--out",
                str(dump),
            ]
        )
        assert rc == 0
        re, im = np.loadtxt(dump, unpack=True)
        amp = re + 1j * im
        assert abs(amp[0] - INV_SQRT2) < 1e-12
        assert abs(amp[7] - INV_SQRT2) < 1e-12

    def test_bell_fixed_close_to_float(self, tmp_path, bell_qasm, config_file):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        dump = tmp_path / "state.txt"
        rc = main(
            ["run", str(prog), str(table), "--config", str(config_file), "--out", str(dump)]
        )
        assert rc == 0
        re, im = np.loadtxt(dump, dtype=np.int64, unpack=True)
        amps = (re + 1j * im) * FixedPointFormat(20, "nearest").lsb
        assert abs(amps[0] - INV_SQRT2) < 1e-4
        assert abs(amps[7] - INV_SQRT2) < 1e-4

    @pytest.mark.parametrize("entry, warned", [("127,127", True), ("16,62", False)])
    def test_saturation_warned_on_stderr(self, tmp_path, capsys, entry, warned):
        # two RY gates on one qubit from |0>: with the 8-bit table entry
        # (127, 127) the second saturates, leaving re [0, 127]
        config = tmp_path / "sat.cfg"
        config.write_text("N = 1\ndata_bits = 8\n")
        prog, table, dump = tmp_path / "ry.prog.txt", tmp_path / "ry.table.txt", tmp_path / "state.txt"
        prog.write_text("1\n90\n90\n")
        table.write_text(f"1\n{entry}\n")
        rc = main(["run", str(prog), str(table), "--config", str(config), "--out", str(dump)])
        err = capsys.readouterr().err
        assert rc == 0
        if warned:
            assert dump.read_text() == "0 0\n127 0\n"
            assert err == "warning: fixed-point arithmetic saturated; the state holds clipped words\n"
        else:
            assert err == ""

    def test_tampered_program_exit_3(self, tmp_path, bell_qasm, config_file):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        lines = prog.read_text().splitlines()
        # strongest corruption: an opcode outside the ISA (1111 in the top nibble)
        lines[1] = "F" + lines[1][1:]
        prog.write_text("\n".join(lines) + "\n")
        rc = main(["run", str(prog), str(table), "--config", str(config_file)])
        assert rc == 3

    def test_sampling_with_seed(self, tmp_path, bell_qasm, config_file, capsys):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        dump = tmp_path / "state.txt"
        rc = main(
            [
                "run",
                str(prog),
                str(table),
                "--config",
                str(config_file),
                "--seed",
                "9",
                "--out",
                str(dump),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "counts" in out
        assert "000 " in out and "111 " in out

    def test_seed_without_out_is_usage_error(self, tmp_path, bell_qasm, config_file):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        rc = main(["run", str(prog), str(table), "--config", str(config_file), "--seed", "1"])
        assert rc == 1

    def test_seed_without_out_checked_before_loading(self, tmp_path, bell_qasm, config_file, capsys):
        # the usage error comes first: neither the bad program nor a missing table is read
        prog, _ = compile_bell(tmp_path, bell_qasm, config_file)
        prog.write_text("9\n" + prog.read_text().split("\n", 1)[1])
        capsys.readouterr()
        rc = main(["run", str(prog), str(tmp_path / "absent.txt"), "--config", str(config_file), "--seed", "1"])
        err = "usage error: --seed needs --out so the dump and the counts do not interleave\n"
        assert (rc, capsys.readouterr()) == (1, ("", err))

    def test_oversized_state_exit_3_before_allocation(self, tmp_path, capsys):
        # N is bounded by the state limit, so a 34-qubit program file is
        # refused by its qubit count as it loads, before any state is allocated.
        wide = tmp_path / "wide.cfg"
        wide.write_text(f"N = {MAX_QUBITS}\ndata_bits = 20\nrounding = nearest\n")
        prog, table = tmp_path / "wide.prog.txt", tmp_path / "wide.table.txt"
        prog.write_text("34\n")
        table.write_text("0\n")
        for rounding in ([], ["--rounding", "float_reference"]):
            rc = main(["run", str(prog), str(table), "--config", str(wide), *rounding])
            assert rc == 3
            err = capsys.readouterr().err
            assert err == f"error: {prog}: program uses 34 qubits, architecture supports {MAX_QUBITS}\n"

    def test_memory_error_exit_4(self, tmp_path, bell_qasm, config_file, capsys, monkeypatch):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 128. GiB")

        monkeypatch.setattr("qbemu.cli.run", exhausted)
        assert main(["run", str(prog), str(table), "--config", str(config_file)]) == 4
        assert capsys.readouterr().err == "runtime error: Unable to allocate 128. GiB\n"

    def test_capacity_violation_exit_3(self, tmp_path, bell_qasm, config_file, capsys):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        shrunk = tmp_path / "shrunk.prog.txt"
        lines = prog.read_text().splitlines()
        shrunk.write_text("9\n" + "\n".join(lines[1:]) + "\n")
        rc = main(["run", str(shrunk), str(table), "--config", str(config_file)])
        assert (rc, capsys.readouterr().err) == (3, f"error: {shrunk}: program uses 9 qubits, architecture supports 4\n")

    def test_out_of_range_table_value_exit_3_with_line(self, tmp_path, capsys):
        qasm = tmp_path / "ry.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry(0.5) q[0];\n')
        cfg = tmp_path / "ry.cfg"
        cfg.write_text("N = 1\nQ = 2\ndata_bits = 32\nrounding = nearest\n")
        out = tmp_path / "out"
        assert main(["compile", str(qasm), "--config", str(cfg), "--out", str(out)]) == 0
        table = out / "ry.table.txt"
        table.write_text(f"1\n{2**40},0\n")
        rc = main(["run", str(out / "ry.prog.txt"), str(table), "--config", str(cfg)])
        assert rc == 3
        err = capsys.readouterr().err
        entry = f"{2**40},0"
        assert err == f"error: {table}:2: bad table entry {entry!r}: value {2**40} outside the 32-bit range [-2147483648, 2147483647]\n"

    def test_fixed_table_under_float_config_exit_3(self, tmp_path, bell_qasm, config_file):
        qasm = tmp_path / "rot.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nrx(0.7) q[0];\n')
        out = tmp_path / "rot_out"
        assert main(["compile", str(qasm), "--config", str(config_file), "--out", str(out)]) == 0
        rc = main(
            [
                "run",
                str(out / "rot.prog.txt"),
                str(out / "rot.table.txt"),
                "--config",
                str(config_file),
                "--rounding",
                "float_reference",
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("file_format", ["integer_text", "binary"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_table_entry_exit_3(self, tmp_path, capsys, file_format, value):
        # NaN passes an ``abs(v) > 1`` range check, and ran to a NaN state
        qasm = tmp_path / "ry.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry(0.5) q[0];\n')
        cfg = tmp_path / "ry.cfg"
        cfg.write_text("N = 1\nQ = 2\n")
        common = ["--config", str(cfg), "--rounding", "float_reference", "--format", file_format]
        assert main(["compile", str(qasm), "--out", str(tmp_path), *common]) == 0
        suffix = "txt" if file_format == "integer_text" else "bin"
        table = tmp_path / f"ry.table.{suffix}"
        if file_format == "integer_text":
            table.write_text(f"1\n{value!r},0\n")
            where = f"{table}:2: bad table entry '{value!r},0'"
        else:
            table.write_bytes(b"1\n" + struct.pack("<dd", value, 1.0))
            where = str(table)
        capsys.readouterr()
        rc = main(["run", str(tmp_path / f"ry.prog.{suffix}"), str(table), *common])
        assert (rc, capsys.readouterr()) == (3, ("", f"error: {where}: value {value!r} is not finite\n"))


class TestConfig:
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("N = 64\n", 1, f"N must be in [1, {MAX_QUBITS}] (the state limit), got N=64"),
            ("N = 4\nQ = 100000\n", 2, "Q=100000 with N=4 makes 100008-bit instruction words, over 63 bits"),
            ("N = 4\nW = 4\n", 2, "W must be in [0, N-1], got W=4 with N=4"),
            ("N = 4\nS = 1\n", 2, "unknown key 'S'"),
            ("N = \u0664\n", 1, "N expects an integer, got '\u0664'"),  # ARABIC-INDIC DIGIT FOUR
            ("N = 4\nQ = +0_3\n", 2, "Q expects an integer, got '+0_3'"),
            # past the 4,300 digits int() converts, quoted by its first 40 characters
            ("N = " + "9" * 5000 + "\n", 1, "N expects an integer, got '" + "9" * 40 + "'..."),
            ("N = 4\n\n# Q = 4\n   \nQ = 0\n", 5, "Q must be at least 1"),  # blank and comment lines count
            ("data_bits = 7 # too narrow\n", 1, "data_bits must be in [8, 32]"),
            ("N = 4\nrounding = round\n", 2, f"rounding must be one of {ROUNDING_CHOICES}, got 'round'"),
            ("N = 4\nW 1\n", 2, "expected 'key = value', got 'W 1'"),
        ],
        ids=["N", "Q", "W", "S", "non_ascii_digit", "sign_and_underscore", "N_5000_digits", "Q_after_blank_lines",
             "data_bits", "rounding", "no_equals_sign"],
    )
    def test_bad_key_exit_3_naming_key_and_line(self, tmp_path, bell_qasm, capsys, text, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["sweep", str(bell_qasm), "bits", "8", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"

    def test_float_reference_has_no_fixed_format(self):
        config = parse_config("# the float backend\n\nrounding = float_reference\n")
        assert config.is_float_reference
        with pytest.raises(ConfigError, match="^float_reference mode has no fixed-point format$"):
            config.fixed_format

    def test_instruction_word_bound(self):
        # 4 opcode bits, two ceil(log2 N)-bit qubit fields and Q immediate bits
        assert ExecConfig(n_qubits=MAX_QUBITS, imm_bits=49).instruction_bits == 63
        assert ExecConfig(n_qubits=1, imm_bits=59).instruction_bits == 63
        for n, q in ((MAX_QUBITS, 50), (1, 60)):
            with pytest.raises(ConfigError, match=f"Q={q} with N={n} makes 64-bit"):
                ExecConfig(n_qubits=n, imm_bits=q)


class TestCompare:
    def test_identical_backends_perfect_row(self, tmp_path, bell_qasm, capsys):
        rc = main(["compare", str(bell_qasm), "--rounding", "float_reference"])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["fidelity"]) == 1.0
        assert float(cols["kld"]) == 0.0
        assert float(cols["mcd"]) == 0.0
        assert float(cols["acd"]) == 0.0

    def test_compare_columns(self, tmp_path, bell_qasm, config_file, capsys):
        rc = main(["compare", str(bell_qasm), "--config", str(config_file)])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.split(",")[:3] == ["circuit", "n_qubits", "n_gates"]
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["n_gates"] == "3"
        assert float(cols["fidelity"]) >= 0.999


# 200 H gates on one qubit: at 9 bits 1/sqrt(2) rounds up to 91/128, so each H pair grows the
# amplitude by 2 (91/128)^2 > 1 until it saturates; at 8 and 10 bits it rounds down or stays inside
SATURATING_QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n' + "h q[0];\n" * 200


class TestOverflowColumn:
    def test_compare_flags_a_saturated_model(self, tmp_path, capsys):
        qasm = tmp_path / "hh.qasm"
        qasm.write_text(SATURATING_QASM)
        flags = []
        for bits in ("8", "9"):
            assert main(["compare", str(qasm), "--bits", bits]) == 0
            header, row = capsys.readouterr().out.strip().splitlines()
            assert header.split(",")[-1] == "overflow"
            flags.append(row.split(",")[-1])
        assert flags == ["0", "1"]
        assert main(["compare", str(qasm), "--rounding", "float_reference"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[1].split(",")[-1] == "0"

    def test_sweep_rows_flag_as_compare_does(self, tmp_path, capsys):
        # the widths run as rows of one walk, each with its own sticky flag
        qasm = tmp_path / "hh.qasm"
        qasm.write_text(SATURATING_QASM)
        assert main(["sweep", str(qasm), "bits", "8,9,10,9"]) == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        header = header.split(",")
        assert header[-1] == "overflow"
        rows = [dict(zip(header, row.split(","))) for row in rows]
        assert [row["overflow"] for row in rows] == ["0", "1", "0", "1"]
        cells = ("fidelity", "kld", "mcd", "acd", "overflow")
        for row in rows:
            assert main(["compare", str(qasm), "--bits", row["value"]]) == 0
            cmp_header, cmp_row = capsys.readouterr().out.strip().splitlines()
            expected = dict(zip(cmp_header.split(","), cmp_row.split(",")))
            assert [row[c] for c in cells] == [expected[c] for c in cells]


class TestSweep:
    def test_bits_sweep_rows(self, tmp_path, bell_qasm, config_file, capsys):
        rc = main(
            ["sweep", str(bell_qasm), "bits", "8,12,16", "--config", str(config_file)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3
        assert [row.split(",")[4] for row in lines[1:]] == ["8", "12", "16"]

    def test_window_sweep_matches_hwmodel(self, tmp_path, bell_qasm, config_file, capsys):
        from qbemu.config import load_config
        from qbemu.hwmodel import estimate_resources

        rc = main(
            ["sweep", str(bell_qasm), "window", "0,1,2", "--config", str(config_file)]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        col = header.index("datapaths")
        config = load_config(config_file)
        for row, w in zip(lines[1:], (0, 1, 2)):
            expected = estimate_resources(
                ExecConfig(
                    n_qubits=config.n_qubits,
                    window=w,
                    imm_bits=config.imm_bits,
                    data_bits=config.data_bits,
                    rounding=config.rounding,
                )
            )
            assert int(row.split(",")[col]) == expected.datapaths

    def test_directory_sweep(self, tmp_path, config_file, capsys):
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        for name in ("bell.qasm", "ghz4.qasm"):
            shutil.copy(qbemu.fixture_path(name), circuits / name)
        rc = main(["sweep", str(circuits), "rounding", "truncation,nearest", "--config", str(config_file)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("values", ["", ",", " , ,"])
    def test_empty_value_list_usage_error(self, bell_qasm, capsys, values):
        rc = main(["sweep", str(bell_qasm), "bits", values])
        assert (rc, capsys.readouterr()) == (1, ("", "usage error: empty sweep value list\n"))

    def test_directory_without_circuits_io_error(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no circuits here\n")
        rc = main(["sweep", str(tmp_path), "bits", "8"])
        assert (rc, capsys.readouterr()) == (2, ("", f"i/o error: no .qasm files in {tmp_path}\n"))

    def test_bad_axis_usage_error(self, bell_qasm):
        assert main(["sweep", str(bell_qasm), "volume", "1,2"]) == 1

    @pytest.mark.parametrize("value", ["float_reference", "bogus"])
    def test_rounding_axis_takes_only_fixed_point_modes(self, bell_qasm, capsys, value):
        # sweep models the fixed-point hardware: a float-vs-float row would be priced as fixed hardware
        rc = main(["sweep", str(bell_qasm), "rounding", f"nearest,{value}"])
        expected = f"usage error: rounding sweep expects one of truncation, nearest, nearest_even, got '{value}'\n"
        assert (rc, capsys.readouterr()) == (1, ("", expected))

    def test_long_bad_value_list_is_quoted_bounded(self, bell_qasm, capsys):
        rc = main(["sweep", str(bell_qasm), "bits", "9" * 5000 + "x"])
        assert (rc, capsys.readouterr().err) == (1, f"usage error: bits sweep expects integers, got {'9' * 40!r}...\n")

    def test_each_circuit_parsed_and_referenced_once(self, tmp_path, config_file, capsys, monkeypatch):
        # one parse and one float reference per circuit, one compile per row
        # and one ladder of the rows; the figures of merit equal compare's, row by row
        from qbemu import cli

        circuits = tmp_path / "circuits"
        circuits.mkdir()
        for name in ("bell.qasm", "ghz4.qasm"):
            shutil.copy(qbemu.fixture_path(name), circuits / name)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                label = name(*args) if callable(name) else name
                calls[label] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(cli, "parse_file", counted("parse", cli.parse_file))
            patch.setattr(cli, "compile_circuit", counted("compile", cli.compile_circuit))
            backend = lambda program, config, *rest: f"run.{'float' if config.is_float_reference else 'fixed'}"  # noqa: E731
            patch.setattr(cli, "run", counted(backend, cli.run))
            ladder = lambda programs, configs: f"run_formats.{len(programs)}"  # noqa: E731
            patch.setattr(cli, "run_formats", counted(ladder, cli.run_formats))
            rc = main(["sweep", str(circuits), "bits", "8,12,16", "--config", str(config_file)])
        assert rc == 0
        assert calls == {"parse": 2, "compile": 2 * (3 + 1), "run_formats.3": 2, "run.float": 2}
        header, *rows = capsys.readouterr().out.strip().splitlines()
        foms = ("fidelity", "kld", "mcd", "acd")
        for row in rows:
            cols = dict(zip(header.split(","), row.split(",")))
            path = circuits / f"{cols['circuit']}.qasm"
            assert main(["compare", str(path), "--config", str(config_file), "--bits", cols["value"]]) == 0
            cmp_header, cmp_row = capsys.readouterr().out.strip().splitlines()
            expected = dict(zip(cmp_header.split(","), cmp_row.split(",")))
            assert [cols[k] for k in foms] == [expected[k] for k in foms]


    # Three angles that share one (sin, cos) pair at 8 bits and not at 20: Q = 1 allows two pairs.
    SPREAD_QASM = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n' + "".join(f"rz({a}) q[0];\n" for a in (0.002, 0.004, 0.006))

    def test_second_width_compile_error_exits_3(self, tmp_path, capsys):
        qasm, cfg = tmp_path / "spread.qasm", tmp_path / "q2.cfg"
        qasm.write_text(self.SPREAD_QASM)
        cfg.write_text("N = 2\nQ = 2\n")
        assert main(["sweep", str(qasm), "bits", "8,20", "--config", str(cfg)]) == 0  # three pairs fit Q = 2
        capsys.readouterr()
        cfg.write_text("N = 2\nQ = 1\n")
        rc = main(["sweep", str(qasm), "bits", "8,20", "--config", str(cfg)])
        message = "error: more than 2^Q distinct angles: table needs 3 entries, Q=1 allows 2\n"
        assert (rc, capsys.readouterr()) == (3, ("", message))

    def test_second_width_table_over_limit_exits_4(self, tmp_path, capsys, monkeypatch):
        # a table longer than 2**Q reaches the engine only past the compiler: here the 20-bit one gets extra entries
        from qbemu import cli

        qasm, cfg = tmp_path / "spread.qasm", tmp_path / "q2.cfg"
        qasm.write_text(self.SPREAD_QASM)
        cfg.write_text("N = 2\nQ = 2\n")
        compile_circuit = cli.compile_circuit

        def padded(circuit, config):
            program = compile_circuit(circuit, config)
            if not config.is_float_reference and config.data_bits == 20:
                program.table.entries.extend([(0, 0)] * 2)
            return program

        monkeypatch.setattr(cli, "compile_circuit", padded)
        rc = main(["sweep", str(qasm), "bits", "8,20", "--config", str(cfg)])
        assert (rc, capsys.readouterr()) == (4, ("", "runtime error: 5 angle pairs, Q=2 allows 4\n"))

    def test_window_sweep_compiles_and_runs_each_format_once(self, tmp_path, config_file, capsys, monkeypatch):
        # a window changes only the hardware model, so each circuit compiles
        # and runs once per number format; every row equals a one-window sweep's
        from qbemu import cli

        circuits = tmp_path / "circuits"
        circuits.mkdir()
        for name in ("bell.qasm", "qft4.qasm"):
            shutil.copy(qbemu.fixture_path(name), circuits / name)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(cli, "parse_file", counted("parse", cli.parse_file))
            patch.setattr(cli, "compile_circuit", counted("compile", cli.compile_circuit))
            patch.setattr(cli, "run", counted("run", cli.run))
            patch.setattr(cli, "run_formats", counted("run_formats", cli.run_formats))
            rc = main(["sweep", str(circuits), "window", "0,1,2,3", "--config", str(config_file)])
        assert rc == 0
        assert calls == {"parse": 2, "compile": 2 * (1 + 1), "run": 2, "run_formats": 2}  # float reference and model
        header, *rows = capsys.readouterr().out.splitlines()
        alone = []
        for window in (0, 1, 2, 3):
            assert main(["sweep", str(circuits), "window", str(window), "--config", str(config_file)]) == 0
            alone.append(capsys.readouterr().out.splitlines())
        assert all(lines[0] == header for lines in alone)
        assert sorted(rows) == sorted(row for lines in alone for row in lines[1:])


class TestTranscript:
    def test_transcript_and_readback(self, tmp_path, bell_qasm, config_file, capsys):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        out = tmp_path / "wire"
        rc = main(
            ["transcript", str(prog), str(table), "--config", str(config_file), "--out", str(out)]
        )
        assert rc == 0
        stream = (out / "transcript.bin").read_bytes()
        assert stream.startswith(b"?")
        assert stream.count(b"!") == 1
        readback = (out / "readback.txt").read_bytes()

        dump = tmp_path / "state.txt"
        assert (
            main(["run", str(prog), str(table), "--config", str(config_file), "--out", str(dump)])
            == 0
        )
        direct = np.loadtxt(dump, dtype=np.int64)
        from qbemu.hostlink import decode_readback

        looped = decode_readback(readback, FixedPointFormat(20, "nearest"), 3)
        assert np.array_equal(looped.raw, direct.T)


class TestFlags:
    ACCEPTED = {
        "compile": ["--config", "--bits", "--rounding", "--format", "--out"],
        "run": ["--config", "--bits", "--rounding", "--seed", "--format", "--out"],
        "compare": ["--config", "--bits", "--rounding", "--out"],
        "sweep": ["--config", "--bits", "--rounding", "--window", "--out"],
        "transcript": ["--config", "--bits", "--rounding", "--format", "--out"],
    }

    def test_each_verb_takes_only_the_flags_it_reads(self):
        [verbs] = [action.choices for action in build_parser()._actions if action.dest == "command"]
        accepted = {
            verb: [option for action in p._actions for option in action.option_strings if option not in ("-h", "--help")]
            for verb, p in verbs.items()
        }
        assert accepted == self.ACCEPTED
        assert sum(map(len, accepted.values())) == 25

    @pytest.mark.parametrize(
        "verb, flag, value",
        [
            ("compile", "--backend", "float"),
            ("compile", "--window", "1"),
            ("compile", "--seed", "1"),
            ("run", "--backend", "float"),
            ("run", "--window", "1"),
            ("compare", "--backend", "fixed"),
            ("compare", "--window", "1"),
            ("compare", "--seed", "1"),
            ("compare", "--format", "binary"),
            ("sweep", "--seed", "1"),
            ("sweep", "--format", "binary"),
            ("transcript", "--window", "1"),
            ("transcript", "--seed", "1"),
        ],
    )
    def test_removed_flag_is_usage_error(self, tmp_path, bell_qasm, config_file, capsys, verb, flag, value):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        operands = {"run": [prog, table], "transcript": [prog, table], "sweep": [bell_qasm, "bits", "8"]}
        argv = [verb, *map(str, operands.get(verb, [bell_qasm])), "--out", str(tmp_path / "o"), flag, value]
        capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == (1, ("", f"usage error: unrecognized arguments: {flag} {value}\n"))
        assert not (tmp_path / "o").exists()


class TestMalformedInputs:
    """Every malformed input file ends in exit 3 and an error naming the file and position."""

    @pytest.mark.parametrize("verb", ["run", "transcript"])
    @pytest.mark.parametrize("fmt", ["integer_text", "binary"])
    @pytest.mark.parametrize(
        "header, word, value, message",
        [
            (b"1000000", None, None, "program uses 1000000 qubits, architecture supports 4"),
            (b"3", 2, 0x0F0, "target 3 out of range for 3 qubits"),  # X on qubit 3
            (b"3", 1, 0x0D0, "control 3 out of range for 3 qubits"),  # CX 3 -> 1
            (b"3", 0, 0x900, "immediate 0 out of range for angle table of length 0"),  # RY on qubit 0
        ],
        ids=["header_above_N", "target_above_header", "control_above_header", "imm_above_table"],
    )
    def test_program_checked_against_architecture_and_itself(
        self, tmp_path, bell_qasm, config_file, capsys, verb, fmt, header, word, value, message
    ):
        # bell at N = 4: three qubits, three 12-bit words, no angle pairs
        prog, table = compile_bell(tmp_path, bell_qasm, config_file, fmt)
        body = prog.read_bytes().split(b"\n", 1)[1]
        if word is not None:
            size, new = (4, b"%03X" % value) if fmt == "integer_text" else (2, value.to_bytes(2, "little"))
            body = body[: size * word] + new + body[size * word + len(new) :]
        prog.write_bytes(header + b"\n" + body)
        where = "" if word is None else f":{word + 2}" if fmt == "integer_text" else f": word {word}"
        capsys.readouterr()
        rc = main([verb, str(prog), str(table), "--config", str(config_file), "--format", fmt, "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr()) == (3, ("", f"error: {prog}{where}: {message}\n"))

    @pytest.mark.parametrize("verb", ["run", "transcript"])
    @pytest.mark.parametrize(
        "word, message",
        [("F00", "invalid opcode 0b1111"), ("1000", "word width mismatch: 0x1000 does not fit 12 bits")],
        ids=["as_written", "line_by_line"],
    )
    def test_bad_text_word_names_file_and_line(self, tmp_path, bell_qasm, config_file, capsys, verb, word, message):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        lines = prog.read_text().splitlines()
        lines[2] = word
        prog.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main([verb, str(prog), str(table), "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr().err) == (3, f"error: {prog}:3: {message}\n")

    def test_bad_binary_word_names_file_and_index(self, tmp_path, bell_qasm, config_file, capsys):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file, fmt="binary")
        data = bytearray(prog.read_bytes())
        data[2 + 2 * 2 + 1] = 0x0F  # word 2, high byte of 12 bits: opcode 1111
        prog.write_bytes(bytes(data))
        capsys.readouterr()
        rc = main(["run", str(prog), str(table), "--config", str(config_file), "--format", "binary"])
        assert (rc, capsys.readouterr().err) == (3, f"error: {prog}: word 2: invalid opcode 0b1111\n")

    @pytest.mark.parametrize("verb", ["run", "transcript"])
    def test_negative_count_header_exit_3(self, tmp_path, bell_qasm, config_file, capsys, verb):
        prog, table = compile_bell(tmp_path, bell_qasm, config_file)
        prog.write_text("-1\n" + prog.read_text().split("\n", 1)[1])
        capsys.readouterr()
        rc = main([verb, str(prog), str(table), "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr().err) == (3, f"error: {prog}:1: bad count header '-1'\n")

    @pytest.mark.parametrize(
        "prog_text, table_text, rounding, message",
        [
            (b"0_1\n0x80_0\n", b"0_1\n 1_0 , +2_0\n", "nearest", "{prog}:1: bad count header '0_1'"),
            (b"0", b"0\n", "nearest", "{prog}:1: missing final newline"),
            (b"", b"0\n", "nearest", "{prog}:1: missing count header line"),
            (b"0\n", b"", "nearest", "{table}:1: missing count header line"),
            (b"1\n0x48\n18\n", b"1\n0,0\n", "nearest", "{prog}:2: bad instruction word '0x48'"),
            (b"1\n48\n18", b"1\n0,0\n", "nearest", "{prog}:3: missing final newline"),
            (b"1\n48\n18\n", b"1\n 1_0 , +2_0\n", "nearest", "{table}:2: bad table entry ' 1_0 , +2_0'"),
            (b"1\n48\n18\n", b"1\n+0.5,1.0\n", "float_reference", "{table}:2: bad table entry '+0.5,1.0'"),
            # past the 4,300 digits int() converts: these ended in exit 4 without a position;
            # a message quotes the first 40 characters of a line
            (b"9" * 5000 + b"\n", b"0\n", "nearest", "{prog}:1: bad count header '" + "9" * 40 + "'..."),
            (b"1\n48\n18\n", b"1\n" + b"9" * 5000 + b",0\n", "nearest", "{table}:2: bad table entry '" + "9" * 40 + "'..."),
        ],
        ids=[
            "count_header", "count_final_newline", "empty_program", "empty_table",
            "program_word", "program_final_newline", "fixed_table", "float_table",
            "count_header_5000_digits", "fixed_table_5000_digits",
        ],
    )
    def test_lenient_text_exit_3_naming_file_and_line(self, tmp_path, capsys, prog_text, table_text, rounding, message):
        # each of these ran with exit 0 while the readers parsed with int() and float()
        prog, table, cfg = tmp_path / "p.txt", tmp_path / "t.txt", tmp_path / "q1.cfg"
        prog.write_bytes(prog_text)  # RY reading entry 0, then H, on qubit 0 of N = 2, Q = 1
        table.write_bytes(table_text)
        cfg.write_text("N = 2\nQ = 1\n")
        rc = main(["run", str(prog), str(table), "--config", str(cfg), "--rounding", rounding])
        assert (rc, capsys.readouterr()) == (3, ("", f"error: {message.format(prog=prog, table=table)}\n"))

    @pytest.mark.parametrize("which", ["program", "table"])
    def test_non_ascii_text_body_names_file_and_line(self, tmp_path, capsys, which):
        qasm = tmp_path / "ry.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry(0.5) q[0];\nh q[0];\n')
        assert main(["compile", str(qasm), "--out", str(tmp_path)]) == 0
        prog, table = tmp_path / "ry.prog.txt", tmp_path / "ry.table.txt"
        path = prog if which == "program" else table
        lines = path.read_bytes().split(b"\n")
        lines[-2] = b"\xff" + lines[-2]
        path.write_bytes(b"\n".join(lines))
        lineno = len(lines) - 1
        capsys.readouterr()
        assert main(["run", str(prog), str(table)]) == 3
        assert capsys.readouterr().err == f"error: {path}:{lineno}: byte 0xff is not ASCII\n"

    @pytest.mark.parametrize("verb", ["run", "transcript"])
    @pytest.mark.parametrize("fmt", ["integer_text", "binary"])
    def test_table_longer_than_2_to_the_q_names_the_file(self, tmp_path, capsys, verb, fmt):
        # run used to execute such a table, and the board stopped transcript without naming the file
        qasm = tmp_path / "ry.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry(0.5) q[0];\nry(0.7) q[0];\n')
        cfg = tmp_path / "q1.cfg"
        cfg.write_text("N = 2\nQ = 1\n")
        common = ["--config", str(cfg), "--format", fmt]
        assert main(["compile", str(qasm), "--out", str(tmp_path), *common]) == 0
        suffix = "txt" if fmt == "integer_text" else "bin"
        prog, table = tmp_path / f"ry.prog.{suffix}", tmp_path / f"ry.table.{suffix}"
        body = table.read_bytes().split(b"\n", 1)[1]
        last = body.splitlines(keepends=True)[-1] if fmt == "integer_text" else body[len(body) // 2 :]
        table.write_bytes(b"3\n" + body + last)
        capsys.readouterr()
        rc = main([verb, str(prog), str(table), *common, "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr()) == (3, ("", f"error: {table}: 3 angle pairs, Q=1 allows 2\n"))

    @pytest.mark.parametrize("which", ["program", "table"])
    def test_truncated_binary_file_names_the_file(self, tmp_path, capsys, which):
        qasm = tmp_path / "ry.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nry(0.5) q[0];\ncx q[0],q[1];\n')
        assert main(["compile", str(qasm), "--format", "binary", "--out", str(tmp_path)]) == 0
        paths = {"program": tmp_path / "ry.prog.bin", "table": tmp_path / "ry.table.bin"}
        paths[which].write_bytes(paths[which].read_bytes()[:-1])
        message = "truncated instruction stream" if which == "program" else "truncated table"
        capsys.readouterr()
        rc = main(["run", *map(str, paths.values()), "--format", "binary"])
        assert (rc, capsys.readouterr()) == (3, ("", f"error: {paths[which]}: {message}\n"))

    def test_fixed_table_run_as_float_names_the_entry(self, tmp_path, capsys):
        # the fixed table's raw integers are finite floats past 1: the first names its line, with the hint
        qasm = tmp_path / "ry.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nry(0.5) q[0];\n')
        assert main(["compile", str(qasm), "--out", str(tmp_path)]) == 0
        table = tmp_path / "ry.table.txt"
        entry = table.read_text().splitlines()[1]
        capsys.readouterr()
        rc = main(["run", str(tmp_path / "ry.prog.txt"), str(table), "--rounding", "float_reference"])
        value = float(entry.split(",")[0])
        message = (f"error: {table}:2: bad table entry {entry!r}: value {value!r} out of range for float-reference "
                   "mode; was the table written for a fixed-point configuration?\n")
        assert (rc, capsys.readouterr()) == (3, ("", message))

    @pytest.mark.parametrize(
        "text, message",
        [
            # a definition's own error, with no call of the gate
            ("gate d a,b {\n  cx a,a;\n}\n", "5:3: duplicate qubit in expansion of 'd'"),
            ("gate g a { rx(t) a; }\n", "4:15: undefined parameter 't'"),
            ("gate k a { h a; rx(1/0) a; }\n", "4:17: cannot evaluate expression: float division by zero"),
            ("gate g(t, t) a { }\n", "4:6: duplicate formal argument in gate 'g'"),
            ("measure q[0] -> c[0];\n", "4:17: unknown classical register 'c'"),
            ("creg c[3];\nmeasure q -> c;\n", "5:14: measure register size mismatch"),
            ("creg c[2];\nmeasure q[0] -> c[2];\n", "5:17: bit index c[2] out of range (size 2)"),
            ("qreg r[3];\ncx q,r;\n", "5:1: mismatched register sizes in broadcast"),
        ],
        ids=["duplicate_qubit_in_body", "undefined_name_in_body", "failing_constant_in_body", "duplicate_parameter",
             "measure_register", "measure_size", "measure_index", "broadcast_sizes"],
    )
    def test_qasm_error_exit_3_at_its_position(self, tmp_path, capsys, text, message):
        qasm = tmp_path / "bad.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + text)
        rc = main(["compile", str(qasm), "--out", str(tmp_path)])
        assert (rc, capsys.readouterr()) == (3, ("", f"error: {qasm}:{message}\n"))

    def test_non_utf8_qasm_names_line_and_column(self, tmp_path, config_file, capsys):
        qasm = tmp_path / "bad.qasm"
        qasm.write_bytes(b'OPENQASM 2.0;\r\nqreg q[1];\r\n// caf\xc3\xa9 \xff\r\nh q[0];\r\n')
        rc = main(["compile", str(qasm), "--config", str(config_file), "--out", str(tmp_path)])
        assert (rc, capsys.readouterr().err) == (3, f"error: {qasm}:3:9: byte 0xff is not UTF-8\n")

    def test_non_utf8_config_names_file_and_line(self, tmp_path, bell_qasm, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"N = 4\n# \xc3\xa9\nW = \xff0\n")
        assert main(["compile", str(bell_qasm), "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"error: {cfg}: line 3: byte 0xff is not UTF-8\n"

    def test_doubling_macro_chain_exit_3_quickly(self, tmp_path, capsys):
        # 40 levels would lower to 2^39 gates; the budget stops the definitions
        defs = "gate g0 a { h a; }\n" + "".join(f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}\n" for k in range(1, 40))
        qasm = tmp_path / "chain.qasm"
        qasm.write_text(f"OPENQASM 2.0;\n{defs}qreg q[1];\ng39 q[0];\n")
        start = time.perf_counter()
        rc = main(["compile", str(qasm), "--out", str(tmp_path)])
        assert time.perf_counter() - start < 2.0
        assert rc == 3
        assert capsys.readouterr().err == f"error: {qasm}:22:14: gate expansion exceeds the limit of {MAX_NATIVE_GATES} native gates\n"
