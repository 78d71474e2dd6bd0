"""ASCII host<->board protocol: framing, incremental decoding, loopback.

Frames are uppercase hex (written with no leading zeros, read with any),
wrapped in a one-byte start symbol and a ``#`` terminator:

* ``?value#`` -- number of (sine, cosine) pairs about to be loaded,
* ``*value#`` -- number of qubits in use,
* ``<value#`` -- one sine or cosine raw value (sine first per pair);
  negatives carry the magnitude followed by ``-`` before the ``#``,
* ``>value#`` -- one instruction word,
* ``!``       -- end of emulation, no payload.

After ``!`` the board streams the final state back, one raw signed decimal
integer per line, real then imaginary part per amplitude, index ascending.

The decoder is incremental: bytes may arrive split at arbitrary boundaries,
so any chunking of a stream yields the same message sequence.  It returns
columns (kind, value and the byte offset of each frame) with
:class:`HostMessage` rows built on demand.  Each feed reads the bytes of
the frame the last feed ended inside again, ahead of the new ones, cut at
the start bytes into frames whose shapes are checked in arrays: the run of
complete frames is taken, and what follows must be one frame cut short,
which is held for the next feed; anything else is an error naming its first
offending byte, found by the frame patterns.  A payload has at most
:data:`MAX_PAYLOAD_DIGITS` hex digits, so the held bytes stay bounded; the
values are summed from the digits in one array pass, as 16-digit uint64
limbs joined into Python ints.  A session's angle
values and instruction words are framed from their columns in one array
pass.  :class:`VirtualBoard` binds the decoder to the fixed-point engine so
a full session can run loopback with no hardware attached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .columns import Columns
from .compiler import _HEX_CHARS, _HEX_VALUES, _INTEGER, AngleTable, CompiledProgram, bad_line, decode_words, encode_words
from .compiler import field_error, word_error, word_fields
from .config import ExecConfig
from .engine import FixedState, dump_state, run
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
_KIND_OF_BYTE = np.full(256, -1, dtype=np.int8)  # -1 for a byte that starts no frame
_KIND_OF_BYTE[[ord(kind.value) for kind in _KINDS]] = np.arange(len(_KINDS))

MAX_PAYLOAD_DIGITS = 64  # bounds a value and the bytes held between feeds
_FRAME_RUN = re.compile(rb"(?:[?*>][0-9A-F]{1,%(m)d}#|<[0-9A-F]{1,%(m)d}-?#|!)*" % {b"m": MAX_PAYLOAD_DIGITS})
# A frame cut short (or nothing); the signed form first, so a match is the longest
_PARTIAL = re.compile(rb"(?:[?*>][0-9A-F]{0,%(m)d}|<(?:[0-9A-F]{1,%(m)d}-|[0-9A-F]{0,%(m)d}))?" % {b"m": MAX_PAYLOAD_DIGITS})
_TERMINATOR, _SIGN = b"#-"
_ANGLE_VALUE, _END = _KINDS.index(MessageKind.ANGLE_VALUE), _KINDS.index(MessageKind.END_OF_EMULATION)
# bytes.translate tables: 1 for a start byte, and 1 for a byte that is no hex digit
_STARTS = (_KIND_OF_BYTE >= 0).astype(np.uint8).tobytes()
_NOT_HEX = bytes(c not in _HEX_CHARS.tobytes() for c in range(256))


@dataclass(frozen=True)
class HostMessage:
    kind: MessageKind
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind is MessageKind.END_OF_EMULATION and self.value != 0:
            raise ValueError("end-of-emulation carries no payload")
        if self.value < 0 and self.kind is not MessageKind.ANGLE_VALUE:
            raise ValueError(f"{self.kind.name} payload must be non-negative")
        if abs(self.value) >> 4 * MAX_PAYLOAD_DIGITS:
            raise ValueError(f"payload exceeds {MAX_PAYLOAD_DIGITS} hex digits")


# Columns of decoded messages: a value is a Python int of at most MAX_PAYLOAD_DIGITS hex digits.
MESSAGE_FIELDS = {"kind": np.int64, "value": object, "offset": np.int64}


def _message_row(kind: int, value: int, offset: int) -> HostMessage:
    return HostMessage(_KINDS[kind], value)


def _frames(start: str, values: np.ndarray) -> bytes:
    """:func:`encode_message` of every int64 value, as one array pass: one row
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
    """One message as ASCII bytes: start symbol, hex magnitude, ``-`` if negative, ``#``."""
    if msg.kind is MessageKind.END_OF_EMULATION:
        return b"!"
    return f"{msg.kind.value}{abs(msg.value):X}{'-' if msg.value < 0 else ''}#".encode("ascii")


class StreamDecoder:
    """Incremental frame parser; safe against arbitrary chunk boundaries.

    One decoder owns one byte stream: it is stateful and not meant for
    concurrent mutation.  Independent sessions get independent decoders.
    """

    def __init__(self) -> None:
        self._held = b""  # the frame the last feed ended inside
        self._offset = 0  # stream offset just past the bytes fed

    @property
    def pending(self) -> bool:
        """True while a partially received frame is buffered."""
        return bool(self._held)

    def feed(self, data: bytes) -> Columns:
        """Consume bytes, returning (as columns) every message completed by them.

        The held bytes are read again ahead of ``data``: the frames' shapes are
        checked in arrays to find the run of complete frames, and what follows
        is held if it is one frame cut short.  Anything else raises the
        :class:`FramingError` of its first offending byte, and the decoder is
        left as it was.
        """
        data, base = self._held + data, self._offset - len(self._held)
        buf = np.frombuffer(data, dtype=np.uint8)
        starts = np.frombuffer(b"\1"[: len(data)] + data.translate(_STARTS)[1:], bool).nonzero()[0]
        ends = np.append(starts, len(data))[1:]
        kind = _KIND_OF_BYTE[buf[starts]]
        # Frames run from each start byte (and byte 0) to the next.  A whole one is "!" alone, or its start byte,
        # 1 to MAX_PAYLOAD_DIGITS hex digits, "-" in a "<" frame and "#": 2 + sign bytes that are no hex digit,
        # counted in uint8, which wraps only in a frame too long to be whole.
        sign = (kind == _ANGLE_VALUE) & (buf[ends - 2] == _SIGN)
        digits = ends - starts - 2 - sign
        not_hex = np.add.reduceat(np.frombuffer(data.translate(_NOT_HEX), np.uint8), starts, dtype=np.uint8)
        whole = np.where(kind == _END, ends - starts == 1, (kind >= 0) & (buf[ends - 1] == _TERMINATOR)
                         & (digits > 0) & (digits <= MAX_PAYLOAD_DIGITS) & (not_hex == 2 + sign))
        n = int(np.append(whole, False).argmin())  # whole frames before the first that is not
        stop = _FRAME_RUN.match(data, ends[n - 1] if n else 0).end()
        if not _PARTIAL.fullmatch(data, stop):
            raise _malformed(data, stop, base)
        # A frame the pattern took after the run leaves bytes that are no frame cut short, so here the run is n frames.
        self._held, self._offset = data[stop:], base + len(data)
        if not n:
            return _NO_MESSAGES
        starts, last, sign, digits = starts[:n], (ends - 2 - sign)[:n], sign[:n], digits[:n]
        # Digit column j is each frame's j-th digit from the right, read in place (a shorter frame's reads
        # earlier bytes, which the where masks); 16 columns shift and sum to a uint64 limb, lowest first.
        limbs = [sum((np.where(digits > j, _HEX_VALUES.take(buf[last - j]), 0) << np.uint64(4 * (j - lo))
                      for j in range(lo, min(lo + 16, digits.max()))), np.zeros(n, np.uint64))
                 for lo in range(0, max(digits.max(), 1), 16)]
        value = reduce(lambda high, low: high << 64 | low, [limb.astype(object) for limb in reversed(limbs)])
        value[sign] = -value[sign]
        return Columns(_message_row, kind=kind[:n].astype(np.int64), value=value, offset=starts + base)


_NO_MESSAGES = Columns.of(_message_row, MESSAGE_FIELDS, ())


def _malformed(data: bytes, i: int, base: int) -> FramingError:
    """The error of the frame at ``data[i]`` (stream offset ``base + i``),
    which neither completes nor is cut short: it names the first byte past
    the frame's longest cut-short prefix."""
    j = _PARTIAL.match(data, i).end()
    byte = data[j]
    if j == i:
        message = f"unknown start symbol {chr(byte)!r}"
    elif byte == _SIGN:
        value_frame = chr(data[i]) == MessageKind.ANGLE_VALUE.value
        message = "misplaced sign flag" if value_frame else "sign flag is only valid in a value frame"
    elif byte == _TERMINATOR:  # a terminator after any digit would have completed the frame
        message = "frame has no payload digits"
    elif byte not in _HEX_CHARS:
        message = f"non-hex digit {chr(byte)!r} in frame"
    elif data[j - 1] == _SIGN:
        message = "digit after sign flag"
    else:
        message = f"frame payload exceeds {MAX_PAYLOAD_DIGITS} digits"
    return FramingError(message, base + j)


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
    """Amplitude stream: raw signed decimal, real then imaginary, per index:
    :func:`~qbemu.engine.dump_state`'s lines with one value per line."""
    return dump_state(state).replace(" ", "\n").encode("ascii")


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
            if not error:  # fields checked against the announced counts, as they arrive
                error = field_error(*word_fields(value, self.config), self._used_qubits, self._angle_count)
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
