"""Command-line pipeline driver.

Verbs: ``compile`` (OpenQASM to program/table files), ``run`` (execute a
compiled program on the float or fixed backend and dump the state),
``compare`` (fixed vs float figures of merit as CSV), ``sweep`` (figures of
merit and structural costs across bits / rounding / window values), and
``transcript`` (wire-protocol session bytes plus the loopback readback).

Exit codes: 0 success, 1 usage, 2 I/O, 3 compile/decode, 4 runtime.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import hwmodel, metrics
from .compiler import (
    CompileError,
    DecodeError,
    compile_circuit,
    load_program_files,
    write_program_files,
)
from .config import FLOAT_REFERENCE, ROUNDING_CHOICES, ConfigError, ExecConfig, load_config, quote
from .engine import EngineError, FixedState, dump_state, run, sample_counts
from .hostlink import FramingError, ProtocolError, VirtualBoard, encode_session
from .qasm import QasmError, parse_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_COMPILE = 3
EXIT_RUNTIME = 4

SAMPLE_SHOTS = 4096

COMPARE_COLUMNS = (
    "circuit",
    "n_qubits",
    "n_gates",
    "data_bits",
    "rounding",
    "fidelity",
    "kld",
    "mcd",
    "acd",
    "prob_sum_model",
    "prob_sum_reference",
)

SWEEP_COLUMNS = (
    "circuit",
    "n_qubits",
    "n_gates",
    "axis",
    "value",
    "data_bits",
    "rounding",
    "window",
    "datapaths",
    "state_regfile_bits",
    "total_cycles",
    "fidelity",
    "kld",
    "mcd",
    "acd",
)


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


# flag, or sweep axis -> the configuration field it overrides
_OVERRIDES = {"bits": "data_bits", "rounding": "rounding", "window": "window"}


def _resolve_config(args, fixed: bool = False) -> ExecConfig:
    """The configuration the flags select; if ``fixed``, ``float_reference`` reads as ``nearest``."""
    config = load_config(args.config) if args.config else ExecConfig()
    overrides = {key: getattr(args, flag, None) for flag, key in _OVERRIDES.items()}
    config = replace(config, **{key: value for key, value in overrides.items() if value is not None})
    return replace(config, rounding="nearest") if fixed and config.is_float_reference else config


def _inputs(*paths) -> list[Path]:
    """``paths`` as paths, each of which must exist."""
    for path in paths:
        if not Path(path).exists():
            raise FileNotFoundError(f"input not found: {path}")
    return [Path(p) for p in paths]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="ascii")


def _csv(columns, rows) -> str:
    """CSV text: floats as their repr, which reads back exactly; other cells as str."""
    return "".join(",".join(repr(c) if isinstance(c, float) else str(c) for c in r) + "\n" for r in (columns, *rows))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    config = _resolve_config(args)
    [qasm_path] = _inputs(args.qasm)
    program = compile_circuit(parse_file(qasm_path), config)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "txt" if args.format == "integer_text" else "bin"
    program_path = out_dir / f"{qasm_path.stem}.prog.{suffix}"
    table_path = out_dir / f"{qasm_path.stem}.table.{suffix}"
    write_program_files(program, config, program_path, table_path, args.format)
    print(
        f"compiled {len(program.instructions)} instructions, "
        f"{len(program.table)} angle pairs, {program.used_qubits} qubits"
    )
    print(f"program: {program_path}")
    print(f"table:   {table_path}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.seed is not None and args.out is None:
        raise UsageError("--seed needs --out so the dump and the counts do not interleave")
    config = _resolve_config(args)
    program = load_program_files(*_inputs(args.program, args.table), config, args.format)
    state = run(program, config)
    if isinstance(state, FixedState) and state.overflow:
        print("warning: fixed-point arithmetic saturated; the state holds clipped words", file=sys.stderr)
    _write_text(args.out, dump_state(state))
    if args.seed is not None:
        counts = sample_counts(state, SAMPLE_SHOTS, args.seed)
        width = state.n_qubits
        print(f"counts ({SAMPLE_SHOTS} shots, seed {args.seed}):")
        for index in sorted(counts):
            print(f"{index:0{width}b} {counts[index]}")
    return EXIT_OK


def _float_reference(circuit, config: ExecConfig):
    """The circuit's float-reference state: independent of bits, rounding and window."""
    ref_config = replace(config, rounding=FLOAT_REFERENCE)
    return run(compile_circuit(circuit, ref_config), ref_config)


def cmd_compare(args) -> int:
    config = _resolve_config(args)
    [qasm_path] = _inputs(args.qasm)
    circuit = parse_file(qasm_path)
    model_state = run(compile_circuit(circuit, config), config)
    quality = metrics.report(model_state, _float_reference(circuit, config))
    row = (
        qasm_path.stem, circuit.qubit_count, len(circuit.gates), config.data_bits, config.rounding,
        quality.fidelity, quality.kld, quality.mcd, quality.acd, quality.prob_sum_model, quality.prob_sum_reference,
    )
    _write_text(args.out, _csv(COMPARE_COLUMNS, [row]))
    return EXIT_OK


def _sweep_values(axis: str, text: str) -> list:
    items = [v.strip() for v in text.split(",") if v.strip()]
    if not items:
        raise UsageError("empty sweep value list")
    if axis in ("bits", "window"):
        try:
            return [int(v) for v in items]
        except ValueError:
            raise UsageError(f"{axis} sweep expects integers, got {quote(text)}") from None
    modes = [mode for mode in ROUNDING_CHOICES if mode != FLOAT_REFERENCE]  # sweep models the fixed-point hardware
    bad = next((v for v in items if v not in modes), None)
    if bad is not None:
        raise UsageError(f"rounding sweep expects one of {', '.join(modes)}, got {quote(bad)}")
    return items


def cmd_sweep(args) -> int:
    qasm_path = Path(args.qasm)
    if qasm_path.is_dir():
        circuit_paths = sorted(qasm_path.glob("*.qasm"))
        if not circuit_paths:
            raise FileNotFoundError(f"no .qasm files in {qasm_path}")
    else:
        circuit_paths = [qasm_path]
    base = _resolve_config(args, fixed=True)
    _inputs(*circuit_paths)
    values = _sweep_values(args.axis, args.values)
    configs = [replace(base, **{_OVERRIDES[args.axis]: value}) for value in values]
    rows = []
    for path in circuit_paths:
        circuit = parse_file(path)
        reference = _float_reference(circuit, base)
        models = {}  # the window changes only hwmodel, so each format compiles and runs once
        for value, config in zip(values, configs):
            fmt = (config.data_bits, config.rounding)
            if fmt not in models:
                program = compile_circuit(circuit, config)
                models[fmt] = program, metrics.report(run(program, config), reference)
            program, quality = models[fmt]
            resources = hwmodel.estimate_resources(config)
            latency = hwmodel.program_latency(program, config)
            rows.append((
                path.stem, circuit.qubit_count, len(circuit.gates), args.axis, value,
                config.data_bits, config.rounding, config.window,
                resources.datapaths, resources.state_regfile_bits, latency.total_cycles,
                quality.fidelity, quality.kld, quality.mcd, quality.acd,
            ))
    _write_text(args.out, _csv(SWEEP_COLUMNS, rows))
    return EXIT_OK


def cmd_transcript(args) -> int:
    config = _resolve_config(args, fixed=True)
    program = load_program_files(*_inputs(args.program, args.table), config, args.format)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = encode_session(program, config)
    board = VirtualBoard(config)
    board.feed(stream)
    readback = board.readback()
    transcript_path = out_dir / "transcript.bin"
    readback_path = out_dir / "readback.txt"
    transcript_path.write_bytes(stream)
    readback_path.write_bytes(readback)
    print(f"transcript: {transcript_path} ({len(stream)} bytes)")
    print(f"readback:   {readback_path} ({len(readback)} bytes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and exit-code mapping
# ---------------------------------------------------------------------------


_FLAGS = {
    "--config": {"help": "architecture configuration file (key = value)"},
    "--bits": {"type": int, "help": "override data_bits"},
    "--rounding": {"choices": ROUNDING_CHOICES, "help": "override rounding mode"},
    "--window": {"type": int, "help": "override windowing order W"},
    "--seed": {"type": int, "help": "seed for measurement sampling"},
    "--format": {"choices": ("integer_text", "binary"), "default": "integer_text", "help": "program/table file format"},
    "--out": {"help": "output file or directory"},
}

# verb: handler, help, positional arguments, and the flags it reads beside --config, --bits and --rounding
_VERBS = {
    "compile": (cmd_compile, "compile OpenQASM 2.0 to program/table files", {"qasm": {}}, ("--format", "--out")),
    "run": (
        cmd_run, "execute a compiled program and dump the state", {"program": {}, "table": {}},
        ("--seed", "--format", "--out"),
    ),
    "compare": (cmd_compare, "figures of merit for fixed vs float execution", {"qasm": {}}, ("--out",)),
    "sweep": (
        cmd_sweep, "figures of merit across bits/rounding/window values",
        {
            "qasm": {"help": ".qasm file or a directory of them"},
            "axis": {"choices": ("bits", "rounding", "window")},
            "values": {"help": "comma-separated sweep values"},
        },
        ("--window", "--out"),
    ),
    "transcript": (
        cmd_transcript, "emit the wire-protocol session and readback", {"program": {}, "table": {}},
        ("--format", "--out"),
    ),
}


def build_parser() -> _ArgumentParser:
    """One subparser per verb, taking only the flags that verb reads."""
    parser = _ArgumentParser(prog="qbemu", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (func, help_text, positionals, flags) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name, keywords in positionals.items():
            p.add_argument(name, **keywords)
        for flag in ("--config", "--bits", "--rounding", *flags):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (QasmError, CompileError, DecodeError, ConfigError, FramingError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPILE
    except (EngineError, ValueError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
