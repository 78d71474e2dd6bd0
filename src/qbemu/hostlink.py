"""ASCII host<->board protocol: framing, incremental decoding, loopback.

Frames are uppercase hex with no leading zeros, wrapped in a one-byte start
symbol and a ``#`` terminator:

* ``?value#`` -- number of (sine, cosine) pairs about to be loaded,
* ``*value#`` -- number of qubits in use,
* ``<value#`` -- one sine or cosine raw value (sine first per pair);
  negatives carry the magnitude followed by ``-`` before the ``#``,
* ``>value#`` -- one instruction word,
* ``!``       -- end of emulation, no payload.

After ``!`` the board streams the final state back, one raw signed decimal
integer per line, real then imaginary part per amplitude, index ascending.

The decoder is incremental: bytes may arrive split at arbitrary boundaries
and partial frames are held until completed, so any chunking of a stream
yields the same message sequence.  :class:`VirtualBoard` binds the decoder
to the fixed-point engine so a full session can run loopback with no
hardware attached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .compiler import AngleTable, CompiledProgram, decode_words, encode_words
from .config import ExecConfig
from .engine import FixedState, run
from .fixedpoint import FixedPointFormat


class FramingError(Exception):
    """Malformed byte stream; ``offset`` is the absolute offending byte index."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


class ProtocolError(Exception):
    """Well-framed but out-of-order or inconsistent session content."""


class MessageKind(Enum):
    ANGLE_COUNT = "?"
    QUBIT_COUNT = "*"
    ANGLE_VALUE = "<"
    INSTRUCTION = ">"
    END_OF_EMULATION = "!"


_START_BYTES = {
    ord("?"): MessageKind.ANGLE_COUNT,
    ord("*"): MessageKind.QUBIT_COUNT,
    ord("<"): MessageKind.ANGLE_VALUE,
    ord(">"): MessageKind.INSTRUCTION,
}

_HEX_DIGITS = frozenset(b"0123456789ABCDEF")
_HEX_RUN = re.compile(rb"[0-9A-F]+")
_END, _TERMINATOR, _SIGN = b"!#-"


@dataclass(frozen=True)
class HostMessage:
    kind: MessageKind
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind is MessageKind.END_OF_EMULATION and self.value != 0:
            raise ValueError("end-of-emulation carries no payload")
        if self.value < 0 and self.kind is not MessageKind.ANGLE_VALUE:
            raise ValueError(f"{self.kind.name} payload must be non-negative")


def _frame(start: str, value: int) -> str:
    """One framed value: start symbol, hex magnitude, ``-`` if negative, ``#``."""
    return f"{start}{-value:X}-#" if value < 0 else f"{start}{value:X}#"


def encode_message(msg: HostMessage) -> bytes:
    """Frame one message as ASCII bytes."""
    if msg.kind is MessageKind.END_OF_EMULATION:
        return b"!"
    return _frame(msg.kind.value, msg.value).encode("ascii")


class StreamDecoder:
    """Incremental frame parser; safe against arbitrary chunk boundaries.

    One decoder owns one byte stream: it is stateful and not meant for
    concurrent mutation.  Independent sessions get independent decoders.
    """

    def __init__(self) -> None:
        self._offset = 0
        self._kind: MessageKind | None = None
        self._digits = bytearray()
        self._negative = False

    @property
    def pending(self) -> bool:
        """True while a partially received frame is buffered."""
        return self._kind is not None

    def feed(self, data: bytes) -> list[HostMessage]:
        """Consume bytes, returning every message completed by them.

        A run of payload digits is taken in one step; every other byte is
        examined on its own, so errors name the first offending byte.
        """
        messages = []
        base = self._offset
        i, end = 0, len(data)
        while i < end:
            byte = data[i]
            if self._kind is None:
                if byte == _END:
                    messages.append(HostMessage(MessageKind.END_OF_EMULATION))
                elif byte in _START_BYTES:
                    self._kind = _START_BYTES[byte]
                    self._digits.clear()
                    self._negative = False
                else:
                    raise self._error(f"unknown start symbol {chr(byte)!r}", base + i)
            elif byte in _HEX_DIGITS:
                if self._negative:
                    raise self._error("digit after sign flag", base + i)
                run_end = _HEX_RUN.match(data, i).end()
                self._digits += data[i:run_end]
                i = run_end
                continue
            elif byte == _TERMINATOR:
                if not self._digits:
                    raise self._error("frame has no payload digits", base + i)
                value = int(self._digits, 16)
                messages.append(HostMessage(self._kind, -value if self._negative else value))
                self._kind = None
            elif byte == _SIGN:
                if self._kind is not MessageKind.ANGLE_VALUE:
                    raise self._error("sign flag is only valid in a value frame", base + i)
                if self._negative or not self._digits:
                    raise self._error("misplaced sign flag", base + i)
                self._negative = True
            else:
                raise self._error(f"non-hex digit {chr(byte)!r} in frame", base + i)
            i += 1
        self._offset = base + end
        return messages

    def _error(self, message: str, pos: int) -> FramingError:
        """The error at byte ``pos``; the stream offset stops just past that byte."""
        self._offset = pos + 1
        return FramingError(message, pos)


def decode_stream(data: bytes) -> list[HostMessage]:
    """Decode a complete byte stream; a trailing partial frame is an error."""
    decoder = StreamDecoder()
    messages = decoder.feed(data)
    if decoder.pending:
        raise FramingError("truncated frame at end of stream", len(data))
    return messages


# ---------------------------------------------------------------------------
# Session encoding and amplitude readback
# ---------------------------------------------------------------------------


def encode_session(program: CompiledProgram, config: ExecConfig) -> bytes:
    """Full host-side transmission: counts, angle values, instructions, end."""
    if program.table.fmt is None:
        raise ValueError("sessions carry fixed-point values; compile without float_reference")
    parts = [
        encode_message(HostMessage(MessageKind.ANGLE_COUNT, len(program.table))),
        encode_message(HostMessage(MessageKind.QUBIT_COUNT, program.used_qubits)),
    ]
    # Table values and words are framed directly: both are valid payloads by
    # construction, so the per-message checks of HostMessage are skipped.
    value, instruction = MessageKind.ANGLE_VALUE.value, MessageKind.INSTRUCTION.value
    body = [_frame(value, raw) for pair in program.table.entries for raw in pair]
    body += [_frame(instruction, word) for word in encode_words(program.instructions, config)]
    parts.append("".join(body).encode("ascii"))
    parts.append(encode_message(HostMessage(MessageKind.END_OF_EMULATION)))
    return b"".join(parts)


def encode_readback(state: FixedState) -> bytes:
    """Amplitude stream: raw signed decimal, real then imaginary, per index."""
    lines = []
    for r, m in zip(state.re.tolist(), state.im.tolist()):
        lines.append(f"{r}\n{m}\n")
    return "".join(lines).encode("ascii")


def decode_readback(data: bytes, fmt: FixedPointFormat, n_qubits: int) -> FixedState:
    lines = data.decode("ascii").splitlines()
    expected = 2 * (1 << n_qubits)
    if len(lines) != expected:
        raise ProtocolError(f"readback has {len(lines)} lines, expected {expected}")
    try:
        values = [int(line) for line in lines]
    except ValueError as exc:
        raise ProtocolError(f"bad readback line: {exc}") from None
    if min(values) < fmt.min_raw or max(values) > fmt.max_raw:
        lineno, value = next((k, v) for k, v in enumerate(values, 1) if not fmt.min_raw <= v <= fmt.max_raw)
        raise ProtocolError(
            f"readback line {lineno}: value {value} outside the {fmt.total_bits}-bit range "
            f"[{fmt.min_raw}, {fmt.max_raw}]"
        )
    return FixedState(n_qubits, fmt, values[0::2], values[1::2])


class VirtualBoard:
    """Engine-backed stand-in for the serial-attached emulator.

    Enforces the session order (pair count, qubit count, angle values,
    instructions, end marker), runs the fixed-point backend when the end
    marker arrives, and serves the readback stream.
    """

    def __init__(self, config: ExecConfig):
        if config.is_float_reference:
            raise ProtocolError("the board is fixed-point only")
        self.config = config
        self._decoder = StreamDecoder()
        self._angle_count: int | None = None
        self._used_qubits: int | None = None
        self._angle_values: list[int] = []
        self._words: list[int] = []
        self._result: FixedState | None = None

    def feed(self, data: bytes) -> None:
        for msg in self._decoder.feed(data):
            self._handle(msg)

    def _handle(self, msg: HostMessage) -> None:
        if self._result is not None:
            raise ProtocolError("message received after end of emulation")
        if msg.kind is MessageKind.ANGLE_COUNT:
            if self._angle_count is not None:
                raise ProtocolError("duplicate angle count")
            if msg.value > 1 << self.config.imm_bits:
                raise ProtocolError(
                    f"{msg.value} angle pairs announced, Q={self.config.imm_bits} allows {1 << self.config.imm_bits}"
                )
            self._angle_count = msg.value
        elif msg.kind is MessageKind.QUBIT_COUNT:
            if self._angle_count is None:
                raise ProtocolError("qubit count before angle count")
            if self._used_qubits is not None:
                raise ProtocolError("duplicate qubit count")
            if msg.value > self.config.n_qubits:
                raise ProtocolError(
                    f"{msg.value} qubits requested, architecture supports {self.config.n_qubits}"
                )
            self._used_qubits = msg.value
        elif msg.kind is MessageKind.ANGLE_VALUE:
            if self._used_qubits is None:
                raise ProtocolError("angle value before counts")
            if len(self._angle_values) >= 2 * self._angle_count:
                raise ProtocolError("more angle values than announced")
            fmt = self.config.fixed_format
            if not fmt.min_raw <= msg.value <= fmt.max_raw:
                # the array core's int64 products hold only in-range words
                raise ProtocolError(
                    f"angle value {msg.value} outside the {fmt.total_bits}-bit range [{fmt.min_raw}, {fmt.max_raw}]"
                )
            self._angle_values.append(msg.value)
        elif msg.kind is MessageKind.INSTRUCTION:
            if self._used_qubits is None:
                raise ProtocolError("instruction before counts")
            if len(self._angle_values) != 2 * self._angle_count:
                raise ProtocolError("instruction before the angle table completed")
            self._words.append(msg.value)
        else:
            self._finish()

    def _finish(self) -> None:
        if self._used_qubits is None or len(self._angle_values) != 2 * (self._angle_count or 0):
            raise ProtocolError("end of emulation before the session completed")
        fmt = self.config.fixed_format
        pairs = list(zip(self._angle_values[0::2], self._angle_values[1::2]))
        table = AngleTable(fmt, pairs)
        instructions = tuple(decode_words(self._words, self.config))
        program = CompiledProgram(instructions, table, self._used_qubits)
        self._result = run(program, self.config)

    @property
    def finished(self) -> bool:
        return self._result is not None

    def result_state(self) -> FixedState:
        if self._result is None:
            raise ProtocolError("emulation has not finished")
        return self._result

    def readback(self) -> bytes:
        return encode_readback(self.result_state())


def loopback_session(
    program: CompiledProgram, config: ExecConfig, chunk_sizes: tuple[int, ...] = (1, 2, 3, 5, 8, 13)
) -> FixedState:
    """Round-trip a program through the wire protocol and back.

    The session bytes are fed to a virtual board in unaligned chunks to
    exercise the incremental decoder; the decoded readback state is returned
    and must match a direct engine run bit-exactly.
    """
    board = VirtualBoard(config)
    stream = encode_session(program, config)
    pos = 0
    k = 0
    while pos < len(stream):
        size = chunk_sizes[k % len(chunk_sizes)]
        board.feed(stream[pos : pos + size])
        pos += size
        k += 1
    state = board.result_state()
    return decode_readback(board.readback(), state.fmt, state.n_qubits)
