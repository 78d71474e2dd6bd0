"""Circuit to instruction-stream compiler and its file formats.

Each native gate becomes one fixed-width word laid out MSB-first as
``[opcode | control | target | imm]``; the target/control fields are
``ceil(log2 N)`` bits wide and the immediate is ``Q`` bits.  Uncontrolled
gates carry the target replicated into the control field.  Rotational gates
index a compile-time table of (sin, cos) pairs, deduplicated on the pair as
quantized in the configured number representation, so two angles that are
indistinguishable at the stored precision share a slot.

A program's instructions are int64 columns (:class:`~qbemu.columns.Columns`
of :class:`Instruction` rows).  Compiling, packing and unpacking words and
reading and writing program files each take one pass over whole columns;
only the distinct angles are quantized one by one, in first-seen order.
The configuration bounds a word to 63 bits, so every word is an int64.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .columns import Columns
from .config import ExecConfig, quote
from .fixedpoint import FixedPointFormat, from_real, range_error
from .gates import IS_ROTATIONAL, GateKind
from .qasm import SourceCircuit

PROGRAM_FORMATS = ("integer_text", "binary")
# Largest magnitude of a float-reference table entry, a sine or cosine with slack for its rounding.
FLOAT_ENTRY_MAX = 1.0 + 1e-9


class CompileError(Exception):
    pass


class DecodeError(Exception):
    pass


@dataclass(frozen=True)
class Instruction:
    """Decoded instruction word.  ``control == target`` means uncontrolled."""

    opcode: GateKind
    target: int
    control: int
    imm: int = 0


INSTRUCTION_FIELDS = {"opcode": np.int64, "target": np.int64, "control": np.int64, "imm": np.int64}


def _instruction_row(opcode: int, target: int, control: int, imm: int) -> Instruction:
    return Instruction(GateKind(opcode), target, control, imm)


def instruction_columns(instructions) -> Columns:
    """``instructions`` as columns: returned as they are if they are columns,
    else built from ``Instruction`` rows."""
    if isinstance(instructions, Columns):
        return instructions
    rows = ((i.opcode, i.target, i.control, i.imm) for i in instructions)
    return Columns.of(_instruction_row, INSTRUCTION_FIELDS, zip(*rows))


@dataclass
class AngleTable:
    """Deduplicated (sin, cos) pairs in the configured representation.

    ``fmt`` is None in float-reference mode, where entries are float pairs;
    otherwise entries are raw fixed-point integer pairs.
    """

    fmt: FixedPointFormat | None
    entries: list[tuple] = field(default_factory=list)
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index = {pair: i for i, pair in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def intern(self, angle: float) -> int:
        """Index of the quantized (sin, cos) pair for ``angle``, adding it if new.

        Angles equal as floats give equal pairs (``-0.0`` and ``0.0`` give
        pairs that compare equal).
        """
        if not math.isfinite(angle):
            raise CompileError(f"rotation angle {angle!r} is not finite")
        if self.fmt is None:
            pair = (math.sin(angle), math.cos(angle))
        else:
            pair = (from_real(math.sin(angle), self.fmt), from_real(math.cos(angle), self.fmt))
        idx = self._index.get(pair)
        if idx is None:
            idx = len(self.entries)
            self.entries.append(pair)
            self._index[pair] = idx
        return idx


@dataclass(frozen=True)
class CompiledProgram:
    """Instructions, angle table and qubit count; ``instructions`` may be
    given as ``Instruction`` rows and are stored as columns."""

    instructions: Columns
    table: AngleTable
    used_qubits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", instruction_columns(self.instructions))


def compile_circuit(circuit: SourceCircuit, config: ExecConfig) -> CompiledProgram:
    """Encode a circuit as an instruction stream plus its angle table.

    RX/RY/RZ consume half their angle and U1 all of it.  Each distinct
    consumed angle is interned once, in order of first use, so the table,
    the immediates and the first error are those of interning gate by gate.
    """
    if circuit.qubit_count > config.n_qubits:
        raise CompileError(
            f"qubit capacity exceeded: circuit uses {circuit.qubit_count}, "
            f"architecture supports {config.n_qubits}"
        )
    table = AngleTable(fmt=None if config.is_float_reference else config.fixed_format)
    gates, limit = circuit.gates, 1 << config.imm_bits
    rotational = IS_ROTATIONAL[gates.opcode]
    consumed = np.where(gates.opcode == GateKind.U1, gates.angle, gates.angle / 2.0)[rotational]
    angles, first, inverse = np.unique(consumed, return_index=True, return_inverse=True)
    index = np.empty(len(angles), dtype=np.int64)
    first = first.tolist()
    for k in np.argsort(first).tolist():
        index[k] = table.intern(consumed.item(first[k]))  # the first use keeps the sign of a zero
        if len(table) > limit:
            raise CompileError(
                f"more than 2^Q distinct angles: table needs {len(table)} entries, "
                f"Q={config.imm_bits} allows {limit}"
            )
    imm = np.zeros(len(gates), dtype=np.int64)
    imm[rotational] = index[inverse]
    columns = (gates.opcode, gates.target, gates.control, imm)
    return CompiledProgram(Columns.of(_instruction_row, INSTRUCTION_FIELDS, columns), table, circuit.qubit_count)


def encode_words(instructions, config: ExecConfig) -> np.ndarray:
    """Instruction words, MSB-first [opcode|control|target|imm], of
    instructions (columns or rows), as int64; a field overflow is that of
    the first offending instruction."""
    ins = instruction_columns(instructions)
    fbits, ibits = config.qubit_field_bits, config.imm_bits
    fields = (("target", ins.target, fbits), ("control", ins.control, fbits), ("imm", ins.imm, ibits))
    outside = np.array([(column >> bits) != 0 for _, column, bits in fields])
    if outside.any():
        k = int(outside.any(axis=0).argmax())
        name, column, bits = fields[int(outside[:, k].argmax())]
        raise CompileError(f"field overflow: {name} {column.item(k)} needs more than {bits} bits")
    return (((ins.opcode << fbits | ins.control) << fbits | ins.target) << ibits) | ins.imm


def word_error(word: int, config: ExecConfig) -> str | None:
    """Why ``word`` is no instruction word under ``config``; None if it is one."""
    width = config.instruction_bits
    if not 0 <= word < 1 << width:
        return f"word width mismatch: {word:#x} does not fit {width} bits"
    if word >> (width - 4) >= len(GateKind):
        return f"invalid opcode {word >> (width - 4):#06b}"
    return None


def field_error(opcode: int, target: int, control: int, imm: int, n_qubits: int, n_pairs: int) -> str | None:
    """Why an instruction reaches past ``n_qubits`` qubits or, if rotational,
    past ``n_pairs`` table entries; None if it does neither."""
    if IS_ROTATIONAL[opcode] and imm >= n_pairs:
        return f"immediate {imm} out of range for angle table of length {n_pairs}"
    if not 0 <= target < n_qubits:
        return f"target {target} out of range for {n_qubits} qubits"
    if control != target and not 0 <= control < n_qubits:
        return f"control {control} out of range for {n_qubits} qubits"
    return None


def first_field_error(ins: Columns, n_qubits: int, n_pairs: int) -> tuple[int, str] | None:
    """Index and :func:`field_error` of the first such instruction, found in one array pass."""
    bad = (IS_ROTATIONAL[ins.opcode] & (ins.imm >= n_pairs)) | (ins.target < 0) | (ins.target >= n_qubits)
    bad |= (ins.control != ins.target) & ((ins.control < 0) | (ins.control >= n_qubits))
    if not bad.any():
        return None
    k = int(bad.argmax())
    return k, field_error(*(col.item(k) for col in (ins.opcode, ins.target, ins.control, ins.imm)), n_qubits, n_pairs)


def decode_words(words: np.ndarray, config: ExecConfig) -> Columns:
    """Exact inverse of :func:`encode_words`.

    ``words`` is an int64 or uint64 array; the first word that is no
    instruction word raises its :func:`word_error`.
    """
    return _decode(words, config, lambda k: "")


def _decode(words: np.ndarray, config: ExecConfig, where) -> Columns:
    """:func:`decode_words`, with ``where(k)`` before the error of bad word ``k``."""
    width = config.instruction_bits
    bad = ((words >> width) != 0) | ((words >> (width - 4)) >= len(GateKind))
    if bad.any():
        k = int(bad.argmax())
        raise DecodeError(where(k) + word_error(words.item(k), config))
    return Columns(_instruction_row, **dict(zip(INSTRUCTION_FIELDS, word_fields(words.astype(np.int64), config))))


def word_fields(words, config: ExecConfig) -> tuple:
    """The opcode, target, control and imm fields of instruction ``words``
    (an int or an int64 array), unchecked."""
    fbits, ibits = config.qubit_field_bits, config.imm_bits
    fmask, imask = (1 << fbits) - 1, (1 << ibits) - 1
    return words >> (ibits + 2 * fbits), (words >> ibits) & fmask, (words >> (ibits + fbits)) & fmask, words & imask


# ---------------------------------------------------------------------------
# Program / table files
# ---------------------------------------------------------------------------

_HEX_CHARS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
_HEX_VALUES = np.zeros(256, dtype=np.uint64)
_HEX_VALUES[_HEX_CHARS] = np.arange(16, dtype=np.uint64)

# Line grammars of the text bodies: a decimal integer (no sign on zero, no
# leading zeros, at most 19 digits: every legal value fits an int64), and a
# float as ``repr`` writes it, or ``0``.
_INTEGER = b"0|-?[1-9][0-9]{0,18}"
_FLOAT = rb"-?(?:(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf|nan)"


def bad_line(body: bytes, line_pattern: bytes, what: str) -> tuple[int, str] | None:
    """0-based index and description of the first line of ``body`` that is not
    ``line_pattern`` whole and ended by a newline, found in one regex pass;
    None if every line is.  A line holding a non-ASCII byte is described by
    that byte, a last line lacking only its newline says so, and any other is
    ``bad <what> '<line>'``, quoted by :func:`~qbemu.config.quote`."""
    end = re.match(b"(?:(?:%s)\n)*" % line_pattern, body).end()
    if end == len(body):
        return None
    line, k = body[end:].split(b"\n", 1)[0], body.count(b"\n", 0, end)
    if not line.isascii():
        return k, f"byte {next(b for b in line if b > 0x7F):#04x} is not ASCII"
    if end + len(line) == len(body) and re.fullmatch(line_pattern, line):
        return k, "missing final newline"
    return k, f"bad {what} {quote(line.decode())}"


def _hex_layout(config: ExecConfig) -> tuple[int, np.ndarray]:
    """Hex digits per word, and the bit shift of each, most significant first."""
    digits = (config.instruction_bits + 3) // 4
    return digits, 4 * np.arange(digits - 1, -1, -1, dtype=np.uint64)


def _to_le(values, width: int) -> bytes:
    """Integer ``values`` (any shape) as ``width``-byte little-endian two's-complement words."""
    return np.asarray(values, dtype="<i8").view(np.uint8).reshape(-1, 8)[:, :width].tobytes()


def _from_le(data: bytes, width: int) -> np.ndarray:
    """The words of ``data``, ``width`` little-endian bytes each, as uint64."""
    rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, width).astype(np.uint64)
    return (rows << 8 * np.arange(width, dtype=np.uint64)).sum(axis=1)


def _pack_words(words: np.ndarray, config: ExecConfig, text: bool) -> bytes:
    """A program body: fixed-width uppercase hex lines, or little-endian words."""
    if not text:
        return _to_le(words, (config.instruction_bits + 7) // 8)
    width, shifts = _hex_layout(config)
    lines = np.full((len(words), width + 1), ord("\n"), dtype=np.uint8)
    lines[:, :width] = _HEX_CHARS[(words.astype(np.uint64)[:, None] >> shifts) & 15]
    return lines.tobytes()


def _unpack_words(body: bytes, config: ExecConfig, text: bool, path):
    """Instructions of a program body, and ``where(k)``, the position of word
    ``k``: its line (text) or its index (binary), which names a bad word.  A
    text line of hex digits of the wrong width gets the word's own error."""
    if not text:
        width = (config.instruction_bits + 7) // 8
        if len(body) % width:
            raise DecodeError(f"{path}: truncated instruction stream")
        where = lambda k: f"{path}: word {k}: "
        return _decode(_from_le(body, width), config, where), where
    width, shifts = _hex_layout(config)
    bad = bad_line(body, b"[0-9A-F]{%d}" % width, "instruction word")
    if bad:
        k, error = bad
        line = body.split(b"\n")[k]
        if re.fullmatch(b"[0-9A-F]+", line):
            error = word_error(int(line, 16), config) or error
        raise DecodeError(f"{path}:{k + 2}: {error}")
    digits = _HEX_VALUES[np.frombuffer(body, dtype=np.uint8).reshape(-1, width + 1)[:, :width]]
    where = lambda k: f"{path}:{k + 2}: "
    return _decode((digits << shifts).sum(axis=1), config, where), where


def write_program_files(
    program: CompiledProgram,
    config: ExecConfig,
    program_path,
    table_path,
    file_format: str = "integer_text",
) -> None:
    """Write the instruction stream and angle table.

    Both files start with a text line holding the element count (used qubits
    for the program, pair count for the table); the body is hex text lines or
    raw little-endian words depending on ``file_format``.
    """
    if file_format not in PROGRAM_FORMATS:
        raise ValueError(f"file_format must be one of {PROGRAM_FORMATS}")
    text, table = file_format == "integer_text", program.table
    body = _pack_words(encode_words(program.instructions, config), config, text)
    with open(program_path, "wb") as fh:
        fh.write(f"{program.used_qubits}\n".encode("ascii") + body)
    if text:
        pairs = [f"{s!r},{c!r}\n" if table.fmt is None else f"{s},{c}\n" for s, c in table.entries]
        tbody = "".join(pairs).encode("ascii")
    elif table.fmt is None:
        tbody = np.array(table.entries, dtype="<f8").tobytes()
    else:
        tbody = _to_le(table.entries, (config.data_bits + 7) // 8)
    with open(table_path, "wb") as fh:
        fh.write(f"{len(table)}\n".encode("ascii") + tbody)


def _read_count_line(data: bytes, path) -> tuple[int, bytes]:
    """The count on the first line of ``data``, read by :func:`bad_line`, and the body after it."""
    head, newline, body = data.partition(b"\n")
    bad = bad_line(head + newline, b"0|[1-9][0-9]{0,18}", "count header") if data else (0, "missing count header line")
    if bad:
        raise DecodeError(f"{path}:1: {bad[1]}")
    return int(head), body


def load_program_files(
    program_path,
    table_path,
    config: ExecConfig,
    file_format: str = "integer_text",
) -> CompiledProgram:
    """Read back program and table files written by :func:`write_program_files`,
    checking the qubit count against ``N`` and each word's fields against both counts."""
    if file_format not in PROGRAM_FORMATS:
        raise ValueError(f"file_format must be one of {PROGRAM_FORMATS}")
    text = file_format == "integer_text"
    with open(program_path, "rb") as fh:
        used_qubits, body = _read_count_line(fh.read(), program_path)
    if used_qubits > config.n_qubits:
        raise DecodeError(f"{program_path}: program uses {used_qubits} qubits, architecture supports {config.n_qubits}")
    instructions, where = _unpack_words(body, config, text, program_path)

    with open(table_path, "rb") as fh:
        count, tbody = _read_count_line(fh.read(), table_path)
    if count > 1 << config.imm_bits:
        raise DecodeError(f"{table_path}: {count} angle pairs, Q={config.imm_bits} allows {1 << config.imm_bits}")
    fmt = None if config.is_float_reference else config.fixed_format
    if text:
        value = b"(?:%s)" % (_FLOAT if fmt is None else _INTEGER)
        bad = bad_line(tbody, value + b"," + value, "table entry")
        if bad:
            raise DecodeError(f"{table_path}:{bad[0] + 2}: {bad[1]}")
        tokens = tbody.replace(b"\n", b",").split(b",")[:-1]
        if fmt is None:
            values = np.array([float(t) for t in tokens])
        else:  # Python ints, so a value past int64 is still named exactly
            values = np.array([int(t) for t in tokens], dtype=object)
        lines = tbody.decode().split("\n")
        value_at = lambda k: f"{table_path}:{k // 2 + 2}: bad table entry {quote(lines[k // 2])}: "
    else:
        half = 8 if fmt is None else (config.data_bits + 7) // 8
        if len(tbody) % (2 * half):
            raise DecodeError(f"{table_path}: truncated table")
        if fmt is None:
            values = np.frombuffer(tbody, dtype="<f8")
        else:
            shift = 64 - 8 * half  # sign-extends each word from its top bit
            values = (_from_le(tbody, half) << shift).view(np.int64) >> shift
        value_at = lambda k: f"{table_path}: "
    bad = ~(np.abs(values) <= FLOAT_ENTRY_MAX) if fmt is None else (values < fmt.min_raw) | (values > fmt.max_raw)
    if bad.any():
        k = int(bad.argmax())
        value = values.item(k)
        if fmt is not None:
            error = range_error(value, fmt.total_bits)
        elif math.isfinite(value):
            error = (f"value {value!r} out of range for float-reference mode; "
                     "was the table written for a fixed-point configuration?")
        else:
            error = f"value {value!r} is not finite"
        raise DecodeError(value_at(k) + error)
    entries = list(zip(values[0::2].tolist(), values[1::2].tolist()))
    if len(entries) != count:
        raise DecodeError(f"{table_path}: header says {count} pairs, found {len(entries)}")
    error = first_field_error(instructions, used_qubits, count)
    if error:
        raise DecodeError(where(error[0]) + error[1])
    return CompiledProgram(instructions, AngleTable(fmt, entries), used_qubits)
