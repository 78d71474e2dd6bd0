"""Circuit to instruction-stream compiler and its file formats.

Each native gate becomes one fixed-width word laid out MSB-first as
``[opcode | control | target | imm]``; the target/control fields are
``ceil(log2 N)`` bits wide and the immediate is ``Q`` bits.  Uncontrolled
gates carry the target replicated into the control field.  Rotational gates
index a compile-time table of (sin, cos) pairs, deduplicated on the pair as
quantized in the configured number representation, so two angles that are
indistinguishable at the stored precision share a slot.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .config import ExecConfig
from .fixedpoint import FixedPointFormat, check_raw, from_real, raw_from_bytes, raw_to_bytes
from .gates import ROTATIONAL, GateKind, consumed_angle
from .qasm import SourceCircuit

PROGRAM_FORMATS = ("integer_text", "binary")


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


@dataclass
class AngleTable:
    """Deduplicated (sin, cos) pairs in the configured representation.

    ``fmt`` is None in float-reference mode, where entries are float pairs;
    otherwise entries are raw fixed-point integer pairs.
    """

    fmt: FixedPointFormat | None
    entries: list[tuple] = field(default_factory=list)
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _by_angle: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index = {pair: i for i, pair in enumerate(self.entries)}

    def __len__(self) -> int:
        return len(self.entries)

    def intern(self, angle: float) -> int:
        """Index of the quantized (sin, cos) pair for ``angle``, adding it if new.

        Each distinct angle is quantized once.  Angles equal as floats give
        equal pairs (``-0.0`` and ``0.0`` give pairs that compare equal), so
        the memo returns what quantizing again would.
        """
        idx = self._by_angle.get(angle)
        if idx is not None:
            return idx
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
        self._by_angle[angle] = idx
        return idx

    def sin_cos(self, idx: int) -> tuple[float, float]:
        """Stored pair as real values (exact for the fixed representation)."""
        s, c = self.entries[idx]
        if self.fmt is None:
            return float(s), float(c)
        scale = 1 << self.fmt.fractional_bits
        return s / scale, c / scale

    def raw_pair(self, idx: int) -> tuple[int, int]:
        if self.fmt is None:
            raise ValueError("float-reference table has no raw integer entries")
        return self.entries[idx]


@dataclass(frozen=True)
class CompiledProgram:
    instructions: tuple[Instruction, ...]
    table: AngleTable
    used_qubits: int


def compile_circuit(circuit: SourceCircuit, config: ExecConfig) -> CompiledProgram:
    """Encode a circuit as an instruction stream plus its angle table."""
    if circuit.qubit_count > config.n_qubits:
        raise CompileError(
            f"qubit capacity exceeded: circuit uses {circuit.qubit_count}, "
            f"architecture supports {config.n_qubits}"
        )
    table = AngleTable(fmt=None if config.is_float_reference else config.fixed_format)
    instructions = []
    limit = 1 << config.imm_bits
    for gate in circuit.gates:
        imm = 0
        if gate.kind in ROTATIONAL:
            imm = table.intern(consumed_angle(gate.kind, gate.angle))
            if len(table) > limit:
                raise CompileError(
                    f"more than 2^Q distinct angles: table needs {len(table)} entries, "
                    f"Q={config.imm_bits} allows {limit}"
                )
        control = gate.control if gate.control is not None else gate.target
        instructions.append(Instruction(gate.kind, gate.target, control, imm))
    return CompiledProgram(tuple(instructions), table, circuit.qubit_count)


def encode_words(instructions, config: ExecConfig) -> list[int]:
    """Pack instructions into words: MSB-first [opcode|control|target|imm].

    The field layout is worked out once for the whole stream.
    """
    fbits, ibits = config.qubit_field_bits, config.imm_bits
    fmask, ilimit = (1 << fbits) - 1, 1 << ibits
    words = []
    for instr in instructions:
        if not 0 <= instr.target <= fmask:
            raise CompileError(f"field overflow: target {instr.target} needs more than {fbits} bits")
        if not 0 <= instr.control <= fmask:
            raise CompileError(f"field overflow: control {instr.control} needs more than {fbits} bits")
        if not 0 <= instr.imm < ilimit:
            raise CompileError(f"field overflow: imm {instr.imm} needs more than {ibits} bits")
        words.append((((instr.opcode << fbits | instr.control) << fbits | instr.target) << ibits) | instr.imm)
    return words


def encode_instruction(instr: Instruction, config: ExecConfig) -> int:
    """Pack one instruction into its word (see :func:`encode_words`)."""
    return encode_words((instr,), config)[0]


_OPCODES = {int(kind): kind for kind in GateKind}


def decode_words(words, config: ExecConfig) -> list[Instruction]:
    """Exact inverse of :func:`encode_words`; ``words`` is consumed in order."""
    width = config.instruction_bits
    fbits, ibits = config.qubit_field_bits, config.imm_bits
    fmask, imask, limit = (1 << fbits) - 1, (1 << ibits) - 1, 1 << width
    control_shift, opcode_shift = ibits + fbits, ibits + 2 * fbits
    instructions = []
    for word in words:
        if not 0 <= word < limit:
            raise DecodeError(f"word width mismatch: {word:#x} does not fit {width} bits")
        opcode = _OPCODES.get(word >> opcode_shift)
        if opcode is None:
            raise DecodeError(f"invalid opcode {word >> opcode_shift:#06b}")
        target, control = (word >> ibits) & fmask, (word >> control_shift) & fmask
        instructions.append(Instruction(opcode, target, control, word & imask))
    return instructions


def decode_instruction(word: int, config: ExecConfig) -> Instruction:
    """Exact inverse of :func:`encode_instruction`."""
    return decode_words((word,), config)[0]


# ---------------------------------------------------------------------------
# Program / table files
# ---------------------------------------------------------------------------


def _instruction_word_bytes(config: ExecConfig) -> int:
    return (config.instruction_bits + 7) // 8


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
    words = encode_words(program.instructions, config)
    hexw = (config.instruction_bits + 3) // 4
    if file_format == "integer_text":
        with open(program_path, "w", encoding="ascii") as fh:
            fh.write(f"{program.used_qubits}\n")
            for word in words:
                fh.write(f"{word:0{hexw}X}\n")
        with open(table_path, "w", encoding="ascii") as fh:
            fh.write(f"{len(program.table)}\n")
            for s, c in program.table.entries:
                fh.write(f"{s!r},{c!r}\n" if program.table.fmt is None else f"{s},{c}\n")
        return
    wbytes = _instruction_word_bytes(config)
    with open(program_path, "wb") as fh:
        fh.write(f"{program.used_qubits}\n".encode("ascii"))
        for word in words:
            fh.write(word.to_bytes(wbytes, "little"))
    with open(table_path, "wb") as fh:
        fh.write(f"{len(program.table)}\n".encode("ascii"))
        for s, c in program.table.entries:
            if program.table.fmt is None:
                fh.write(struct.pack("<dd", s, c))
            else:
                fh.write(raw_to_bytes(s, config.data_bits))
                fh.write(raw_to_bytes(c, config.data_bits))


def _read_count_line(data: bytes, path) -> tuple[int, bytes]:
    newline = data.find(b"\n")
    if newline < 0:
        raise DecodeError(f"{path}: missing count header line")
    try:
        count = int(data[:newline])
    except ValueError:
        raise DecodeError(f"{path}: bad count header {data[:newline]!r}") from None
    return count, data[newline + 1 :]


def _hex_words(body: bytes, path):
    """Instruction words of a text program body, one hex word per non-blank line."""
    for lineno, line in enumerate(body.decode("ascii").splitlines(), start=2):
        line = line.strip()
        if not line:
            continue
        try:
            yield int(line, 16)
        except ValueError:
            raise DecodeError(f"{path}:{lineno}: bad instruction word {line!r}") from None


def load_program_files(
    program_path,
    table_path,
    config: ExecConfig,
    file_format: str = "integer_text",
) -> CompiledProgram:
    """Read back program and table files written by :func:`write_program_files`."""
    if file_format not in PROGRAM_FORMATS:
        raise ValueError(f"file_format must be one of {PROGRAM_FORMATS}")
    with open(program_path, "rb") as fh:
        pdata = fh.read()
    used_qubits, body = _read_count_line(pdata, program_path)
    if file_format == "integer_text":
        instructions = decode_words(_hex_words(body, program_path), config)
    else:
        wbytes = _instruction_word_bytes(config)
        if len(body) % wbytes:
            raise DecodeError(f"{program_path}: truncated instruction stream")
        instructions = decode_words(
            (int.from_bytes(body[k : k + wbytes], "little") for k in range(0, len(body), wbytes)), config
        )

    with open(table_path, "rb") as fh:
        tdata = fh.read()
    count, tbody = _read_count_line(tdata, table_path)
    fmt = None if config.is_float_reference else config.fixed_format
    entries: list[tuple] = []
    if file_format == "integer_text":
        for lineno, line in enumerate(tbody.decode("ascii").splitlines(), start=2):
            line = line.strip()
            if not line:
                continue
            try:
                s_text, c_text = line.split(",")
                if fmt is None:
                    entries.append((float(s_text), float(c_text)))
                else:
                    entries.append((check_raw(int(s_text), fmt.total_bits), check_raw(int(c_text), fmt.total_bits)))
            except ValueError as exc:
                raise DecodeError(f"{table_path}:{lineno}: bad table entry {line!r}: {exc}") from None
    else:
        pair_bytes = 16 if fmt is None else 2 * ((config.data_bits + 7) // 8)
        if len(tbody) % pair_bytes:
            raise DecodeError(f"{table_path}: truncated table")
        for k in range(0, len(tbody), pair_bytes):
            chunk = tbody[k : k + pair_bytes]
            if fmt is None:
                entries.append(struct.unpack("<dd", chunk))
            else:
                half = pair_bytes // 2
                try:
                    entries.append(
                        (
                            raw_from_bytes(chunk[:half], config.data_bits),
                            raw_from_bytes(chunk[half:], config.data_bits),
                        )
                    )
                except ValueError as exc:
                    raise DecodeError(f"{table_path}: {exc}") from None
    if len(entries) != count:
        raise DecodeError(f"{table_path}: header says {count} pairs, found {len(entries)}")
    if fmt is None and any(abs(v) > 1.0 + 1e-9 for pair in entries for v in pair):
        raise DecodeError(
            f"{table_path}: entries out of range for float-reference mode; "
            f"was the table written for a fixed-point configuration?"
        )
    return CompiledProgram(tuple(instructions), AngleTable(fmt, entries), used_qubits)
