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
yields the same message sequence.  It returns columns (kind, value and the
byte offset of each frame) with :class:`HostMessage` rows built on demand:
one regex match takes every run of well-formed frames, and only a partial
or malformed frame is walked byte by byte, so an error names the first
offending byte.  A session's angle values and instruction words are framed
from their columns in one array pass.  :class:`VirtualBoard` binds the
decoder to the fixed-point engine so a full session can run loopback with
no hardware attached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .columns import Columns
from .compiler import _HEX_CHARS, _INTEGER, AngleTable, CompiledProgram, bad_line, decode_words, encode_words, word_error
from .config import ExecConfig
from .engine import FixedState, run
from .fixedpoint import FixedPointFormat, range_error


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


_KINDS = tuple(MessageKind)
_START_BYTES = {ord(kind.value): code for code, kind in enumerate(_KINDS)}  # "!" included
_KIND_OF_BYTE = np.full(256, -1, dtype=np.int64)  # -1 for a byte that starts no frame
_KIND_OF_BYTE[list(_START_BYTES)] = list(_START_BYTES.values())

_HEX_DIGITS = frozenset(b"0123456789ABCDEF")
_HEX_RUN = re.compile(rb"[0-9A-F]+")
_FRAME_RUN = re.compile(rb"(?:[?*>][0-9A-F]+#|<[0-9A-F]+-?#|!)*")  # well-formed frames only
_FRAME = re.compile(rb"[?*<>]([0-9A-F]+)(-?)#|!")
_TERMINATOR, _SIGN = b"#-"


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


# Columns of decoded messages: a value is a Python int, as wide as its digits.
MESSAGE_FIELDS = {"kind": np.int64, "value": object, "offset": np.int64}


def _message_row(kind: int, value: int, offset: int) -> HostMessage:
    return HostMessage(_KINDS[kind], value)


def _frames(start: str, values: np.ndarray) -> bytes:
    """``_frame(start, v)`` for every int64 value, as one array pass: one row
    of characters per value (start symbol, hex digits, ``-``, ``#``) from
    which the leading zero digits, and the ``-`` of a value that is not
    negative, are masked out."""
    if not len(values):
        return b""
    magnitude = np.abs(values)
    width = max(1, (int(magnitude.max()).bit_length() + 3) // 4)
    nibbles = (magnitude[:, None] >> (4 * np.arange(width - 1, -1, -1))) & 15
    nonzero = nibbles != 0
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), width - 1)  # leading zero digits
    chars = np.empty((len(values), width + 3), dtype=np.uint8)
    chars[:, 1 : width + 1] = _HEX_CHARS[nibbles]
    chars[:, width + 1 :] = (_SIGN, _TERMINATOR)
    chars[np.arange(len(values)), lead] = ord(start)
    keep = np.arange(width + 3) >= lead[:, None]
    keep[:, width + 1] = values < 0
    return chars[keep].tobytes()


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
        self._kind: int | None = None  # kind code of the partial frame
        self._start = 0  # stream offset of the partial frame
        self._digits = bytearray()
        self._negative = False

    @property
    def pending(self) -> bool:
        """True while a partially received frame is buffered."""
        return self._kind is not None

    def feed(self, data: bytes) -> Columns:
        """Consume bytes, returning (as columns) every message completed by them.

        Outside a frame, one regex match takes the run of complete frames
        ahead.  Inside one, a run of payload digits is taken in one step and
        every other byte is examined on its own, so errors name the first
        offending byte.
        """
        kinds, values, offsets = [], [], []
        base = self._offset
        i, end = 0, len(data)
        while i < end:
            byte = data[i]
            if self._kind is None:
                stop = _FRAME_RUN.match(data, i).end()
                if stop > i:
                    codes = _KIND_OF_BYTE[np.frombuffer(data, dtype=np.uint8, count=stop - i, offset=i)]
                    starts = np.flatnonzero(codes >= 0)
                    kinds += codes[starts].tolist()
                    offsets += (starts + base + i).tolist()
                    frames = _FRAME.findall(data, i, stop)  # (digits, sign); both empty for "!"
                    values += [(-int(d, 16) if s else int(d, 16)) if d else 0 for d, s in frames]
                    i = stop
                    continue
                if byte not in _START_BYTES:
                    raise self._error(f"unknown start symbol {chr(byte)!r}", base + i)
                self._kind, self._start = _START_BYTES[byte], base + i
                self._digits.clear()
                self._negative = False
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
                kinds.append(self._kind)
                values.append(-value if self._negative else value)
                offsets.append(self._start)
                self._kind = None
            elif byte == _SIGN:
                if _KINDS[self._kind] is not MessageKind.ANGLE_VALUE:
                    raise self._error("sign flag is only valid in a value frame", base + i)
                if self._negative or not self._digits:
                    raise self._error("misplaced sign flag", base + i)
                self._negative = True
            else:
                raise self._error(f"non-hex digit {chr(byte)!r} in frame", base + i)
            i += 1
        self._offset = base + end
        return Columns.of(_message_row, MESSAGE_FIELDS, (kinds, values, offsets))

    def _error(self, message: str, pos: int) -> FramingError:
        """The error at byte ``pos``; the stream offset stops just past that byte."""
        self._offset = pos + 1
        return FramingError(message, pos)


def decode_stream(data: bytes) -> Columns:
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
    # Table values and words are valid payloads by construction, so they are
    # framed from their columns without the per-message checks of HostMessage.
    values = np.array([raw for pair in program.table.entries for raw in pair], dtype=np.int64)
    return b"".join((
        encode_message(HostMessage(MessageKind.ANGLE_COUNT, len(program.table))),
        encode_message(HostMessage(MessageKind.QUBIT_COUNT, program.used_qubits)),
        _frames(MessageKind.ANGLE_VALUE.value, values),
        _frames(MessageKind.INSTRUCTION.value, encode_words(program.instructions, config)),
        encode_message(HostMessage(MessageKind.END_OF_EMULATION)),
    ))


def encode_readback(state: FixedState) -> bytes:
    """Amplitude stream: raw signed decimal, real then imaginary, per index."""
    lines = []
    for r, m in zip(state.re.tolist(), state.im.tolist()):
        lines.append(f"{r}\n{m}\n")
    return "".join(lines).encode("ascii")


def decode_readback(data: bytes, fmt: FixedPointFormat, n_qubits: int) -> FixedState:
    """The state of a readback stream: one signed decimal integer per
    newline-ended line, no sign on zero and no leading zeros."""
    bad = bad_line(data, _INTEGER, "value")
    if bad:
        raise ProtocolError(f"readback line {bad[0] + 1}: {bad[1]}")
    values = [int(line) for line in data.split()]
    expected = 2 * (1 << n_qubits)
    if len(values) != expected:
        raise ProtocolError(f"readback has {len(values)} lines, expected {expected}")
    if min(values) < fmt.min_raw or max(values) > fmt.max_raw:
        lineno, error = next((k, e) for k, v in enumerate(values, 1) if (e := range_error(v, fmt.total_bits)))
        raise ProtocolError(f"readback line {lineno}: {error}")
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
        messages = self._decoder.feed(data)
        for kind, value, offset in zip(messages.kind.tolist(), messages.value.tolist(), messages.offset.tolist()):
            self._handle(_KINDS[kind], value, offset)

    def _handle(self, kind: MessageKind, value: int, offset: int) -> None:
        if self._result is not None:
            raise ProtocolError("message received after end of emulation")
        if kind is MessageKind.ANGLE_COUNT:
            if self._angle_count is not None:
                raise ProtocolError("duplicate angle count")
            if value > 1 << self.config.imm_bits:
                raise ProtocolError(
                    f"{value} angle pairs announced, Q={self.config.imm_bits} allows {1 << self.config.imm_bits}"
                )
            self._angle_count = value
        elif kind is MessageKind.QUBIT_COUNT:
            if self._angle_count is None:
                raise ProtocolError("qubit count before angle count")
            if self._used_qubits is not None:
                raise ProtocolError("duplicate qubit count")
            if value > self.config.n_qubits:
                raise ProtocolError(
                    f"{value} qubits requested, architecture supports {self.config.n_qubits}"
                )
            self._used_qubits = value
        elif kind is MessageKind.ANGLE_VALUE:
            if self._used_qubits is None:
                raise ProtocolError("angle value before counts")
            if len(self._angle_values) >= 2 * self._angle_count:
                raise ProtocolError("more angle values than announced")
            error = range_error(value, self.config.data_bits)
            if error:  # the array core's int64 products hold only in-range words
                raise ProtocolError(f"angle {error}")
            self._angle_values.append(value)
        elif kind is MessageKind.INSTRUCTION:
            if self._used_qubits is None:
                raise ProtocolError("instruction before counts")
            if len(self._angle_values) != 2 * self._angle_count:
                raise ProtocolError("instruction before the angle table completed")
            error = word_error(value, self.config)
            if error:
                raise ProtocolError(f"byte {offset}: {error}")
            self._words.append(value)
        else:
            self._finish()

    def _finish(self) -> None:
        if self._used_qubits is None or len(self._angle_values) != 2 * (self._angle_count or 0):
            raise ProtocolError("end of emulation before the session completed")
        fmt = self.config.fixed_format
        pairs = list(zip(self._angle_values[0::2], self._angle_values[1::2]))
        table = AngleTable(fmt, pairs)
        instructions = decode_words(np.array(self._words, dtype=np.int64), self.config)
        program = CompiledProgram(instructions, table, self._used_qubits)
        self._result = run(program, self.config)

    def result_state(self) -> FixedState:
        if self._result is None:
            raise ProtocolError("emulation has not finished")
        return self._result

    def readback(self) -> bytes:
        return encode_readback(self.result_state())


_LOOPBACK_CHUNKS = (1, 2, 3, 5, 8, 13)


def loopback_session(program: CompiledProgram, config: ExecConfig) -> FixedState:
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
        size = _LOOPBACK_CHUNKS[k % len(_LOOPBACK_CHUNKS)]
        board.feed(stream[pos : pos + size])
        pos += size
        k += 1
    state = board.result_state()
    return decode_readback(board.readback(), state.fmt, state.n_qubits)
