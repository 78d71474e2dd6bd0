"""Framing round trips, chunking invariance, and loopback-vs-direct equality."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qbemu.compiler import Instruction, compile_circuit, encode_words
from qbemu.config import ExecConfig
from qbemu.engine import FixedState, run
from qbemu.fixedpoint import FixedPointFormat
from qbemu.gates import GateKind
from qbemu.hostlink import (
    FramingError,
    HostMessage,
    MessageKind,
    ProtocolError,
    MAX_PAYLOAD_DIGITS,
    StreamDecoder,
    VirtualBoard,
    decode_readback,
    decode_stream,
    encode_message,
    encode_readback,
    encode_session,
    loopback_session,
)
from qbemu.qasm import parse_file

import qbemu

from _helpers import gates_as_circuit, random_gates


def random_message(rng: np.random.Generator) -> HostMessage:
    kind = [
        MessageKind.ANGLE_COUNT,
        MessageKind.QUBIT_COUNT,
        MessageKind.ANGLE_VALUE,
        MessageKind.INSTRUCTION,
        MessageKind.END_OF_EMULATION,
    ][rng.integers(5)]
    if kind is MessageKind.END_OF_EMULATION:
        return HostMessage(kind)
    value = int(rng.integers(0, 1 << 20))
    if kind is MessageKind.ANGLE_VALUE and rng.random() < 0.5:
        value = -value
    return HostMessage(kind, value)


class TestFraming:
    def test_pinned_encodings(self):
        assert encode_message(HostMessage(MessageKind.QUBIT_COUNT, 3)) == b"*3#"
        assert encode_message(HostMessage(MessageKind.ANGLE_VALUE, -5)) == b"<5-#"
        assert encode_message(HostMessage(MessageKind.END_OF_EMULATION)) == b"!"
        assert encode_message(HostMessage(MessageKind.ANGLE_COUNT, 0)) == b"?0#"
        assert encode_message(HostMessage(MessageKind.INSTRUCTION, 0x3C)) == b">3C#"

    def test_hex_is_uppercase_without_leading_zeros(self):
        frame = encode_message(HostMessage(MessageKind.INSTRUCTION, 0x0A0))
        assert frame == b">A0#"

    def test_zero_and_negative_values_round_trip(self):
        for value in (0, -1, -0xFFFFF, 0xFFFFF):
            msg = HostMessage(MessageKind.ANGLE_VALUE, value)
            assert decode_stream(encode_message(msg)) == [msg]
        assert encode_message(HostMessage(MessageKind.ANGLE_VALUE, 0)) == b"<0#"

    def test_negative_only_for_angle_values(self):
        with pytest.raises(ValueError):
            HostMessage(MessageKind.INSTRUCTION, -1)

    def test_end_carries_no_payload(self):
        with pytest.raises(ValueError):
            HostMessage(MessageKind.END_OF_EMULATION, 1)

    def test_round_trip_random_messages(self):
        rng = np.random.default_rng(0)
        messages = [random_message(rng) for _ in range(10_000)]
        stream = b"".join(encode_message(m) for m in messages)
        assert decode_stream(stream) == messages

    def test_split_frame_across_feeds(self):
        decoder = StreamDecoder()
        assert decoder.feed(b"*") == []
        assert decoder.pending
        assert decoder.feed(b"3") == [] and decoder.pending  # extends the held frame only
        assert decoder.feed(b"#") == [HostMessage(MessageKind.QUBIT_COUNT, 3)]
        assert not decoder.pending

    def test_payload_of_64_digits_decodes(self):
        widest = 16**MAX_PAYLOAD_DIGITS - 1
        messages = [HostMessage(MessageKind.INSTRUCTION, widest), HostMessage(MessageKind.ANGLE_VALUE, -widest)]
        assert decode_stream(b"".join(encode_message(m) for m in messages)) == messages

    def test_leading_zeros_decode(self):
        assert decode_stream(b">007#<000A-#?0#*00#!<0-#") == [
            HostMessage(MessageKind.INSTRUCTION, 7),
            HostMessage(MessageKind.ANGLE_VALUE, -10),
            HostMessage(MessageKind.ANGLE_COUNT, 0),
            HostMessage(MessageKind.QUBIT_COUNT, 0),
            HostMessage(MessageKind.END_OF_EMULATION),
            HostMessage(MessageKind.ANGLE_VALUE, 0),
        ]

    @pytest.mark.parametrize("digits", [15, 16, 17, 32, 33, 48, 49, 64])
    def test_payloads_at_the_limb_edges_fed_split_at_every_byte(self, digits):
        # values are read as 16-digit limbs: payloads of exactly ``digits`` digits, leading zeros and
        # all-F among them, in both signs, between payloads of other widths
        rng = np.random.default_rng(digits)
        payloads = ["F" * digits, "0" * digits, "1" + "0" * (digits - 1), "0" + "F" * (digits - 1)]
        payloads.append("".join(rng.choice(list("0123456789ABCDEF"), digits)))
        stream = b"".join(b"<%s-#>%s#<%s#?1#" % (p.encode(), p.encode(), p.encode()) for p in payloads)
        messages = []
        for p in payloads:
            value = int(p, 16)
            messages += [HostMessage(MessageKind.ANGLE_VALUE, -value), HostMessage(MessageKind.INSTRUCTION, value),
                         HostMessage(MessageKind.ANGLE_VALUE, value), HostMessage(MessageKind.ANGLE_COUNT, 1)]
        for cut in range(len(stream) + 1):
            decoder = StreamDecoder()
            assert [*decoder.feed(stream[:cut]), *decoder.feed(stream[cut:])] == messages
            assert not decoder.pending
        decoder = StreamDecoder()
        assert [m for k in range(len(stream)) for m in decoder.feed(stream[k : k + 1])] == messages

    @pytest.mark.parametrize("value", [16**MAX_PAYLOAD_DIGITS, -(16**MAX_PAYLOAD_DIGITS)])
    def test_message_wider_than_the_decoder_refused(self, value):
        # whatever encode_message frames, the decoder reads back
        with pytest.raises(ValueError, match="payload exceeds 64 hex digits"):
            HostMessage(MessageKind.ANGLE_VALUE, value)

    @pytest.mark.parametrize("digits", [65, 1 << 20])
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 21], ids=["1", "7", "whole"])
    def test_payload_over_64_digits_refused_at_its_65th_digit(self, digits, chunk):
        # the held bytes stay bounded: the error comes at byte 65, never at the terminator
        stream = b"<" + b"F" * digits + b"#"
        decoder = StreamDecoder()
        with pytest.raises(FramingError, match="^byte 65: frame payload exceeds 64 digits$"):
            for k in range(0, len(stream), chunk):
                decoder.feed(stream[k : k + chunk])

    def test_chunking_invariance(self):
        rng = np.random.default_rng(1)
        messages = [random_message(rng) for _ in range(200)]
        stream = b"".join(encode_message(m) for m in messages)
        whole = decode_stream(stream)
        for _ in range(25):
            cuts = sorted(rng.integers(0, len(stream) + 1, size=rng.integers(1, 40)))
            decoder = StreamDecoder()
            got = []
            prev = 0
            for cut in list(cuts) + [len(stream)]:
                got.extend(decoder.feed(stream[prev:cut]))
                prev = cut
            assert got == whole

    def test_non_hex_digit_reports_offset(self):
        with pytest.raises(FramingError) as err:
            decode_stream(b"?ZZ#")
        assert err.value.offset == 1
        assert "non-hex" in str(err.value)

    def test_lowercase_hex_rejected(self):
        with pytest.raises(FramingError):
            decode_stream(b"?a#")

    def test_unknown_start_symbol(self):
        with pytest.raises(FramingError) as err:
            decode_stream(b"*3#x")
        assert err.value.offset == 3

    def test_empty_payload_rejected(self):
        with pytest.raises(FramingError):
            decode_stream(b"?#")

    def test_sign_rules(self):
        with pytest.raises(FramingError):
            decode_stream(b">5-#")  # sign outside a value frame
        with pytest.raises(FramingError):
            decode_stream(b"<-5#")  # sign before digits
        with pytest.raises(FramingError):
            decode_stream(b"<5-0#")  # digit after sign

    def test_truncated_stream_rejected(self):
        with pytest.raises(FramingError, match="truncated"):
            decode_stream(b"*3")


class TestReadback:
    def test_ground_state_single_qubit(self):
        fmt = FixedPointFormat(20, "nearest")
        state = FixedState(1, fmt)
        assert encode_readback(state) == b"262144\n0\n0\n0\n"

    def test_zero_state_lines(self):
        fmt = FixedPointFormat(12, "nearest")
        state = FixedState(2, fmt, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        assert encode_readback(state) == b"0\n" * 8

    def test_line_count(self):
        fmt = FixedPointFormat(16, "truncation")
        for n in range(1, 5):
            state = FixedState(n, fmt)
            lines = encode_readback(state).decode().splitlines()
            assert len(lines) == 2 * (1 << n)

    def test_round_trip(self):
        fmt = FixedPointFormat(20, "nearest")
        rng = np.random.default_rng(2)
        re = rng.integers(-2000, 2000, size=8).astype(np.int64)
        im = rng.integers(-2000, 2000, size=8).astype(np.int64)
        state = FixedState(3, fmt, re, im)
        again = decode_readback(encode_readback(state), fmt, 3)
        assert np.array_equal(again.re, re) and np.array_equal(again.im, im)

    def test_length_mismatch_rejected(self):
        fmt = FixedPointFormat(20, "nearest")
        with pytest.raises(ProtocolError):
            decode_readback(b"1\n2\n", fmt, 2)

    @pytest.mark.parametrize(
        "data, line, value",
        [
            (b"1099511627776\n0\n0\n0\n", 1, 1099511627776),
            (b"0\n0\n0\n-2147483649\n", 4, -2147483649),
            (b"0\n" + str(1 << 63).encode() + b"\n0\n0\n", 2, 1 << 63),
        ],
    )
    def test_out_of_range_value_rejected(self, data, line, value):
        # beyond the word, the int64 kernels would wrap instead of saturating
        with pytest.raises(ProtocolError, match=f"line {line}: value {value} outside the 32-bit range"):
            decode_readback(data, FixedPointFormat(32), 1)

    @pytest.mark.parametrize("digits", [20, 5000])
    def test_value_wider_than_int64_is_a_bad_line(self, digits):
        # read by the line grammar, never converted (int() refuses past 4,300 digits);
        # the message quotes the first 40 characters of the line
        value = "9" * digits
        quoted = f"'{value}'" if digits <= 40 else f"'{value[:40]}'..."
        with pytest.raises(ProtocolError) as err:
            decode_readback(f"0\n{value}\n0\n0\n".encode(), FixedPointFormat(32), 1)
        assert str(err.value) == f"readback line 2: bad value {quoted}"

    def test_non_ascii_byte_names_its_line(self):
        with pytest.raises(ProtocolError, match=r"^readback line 2: byte 0xff is not ASCII$"):
            decode_readback(b"1\n\xff\n", FixedPointFormat(20), 0)

    def test_lenient_value_names_its_line(self):
        # int() took the underscore and the surrounding spaces
        with pytest.raises(ProtocolError, match=r"^readback line 1: bad value '1_0'$"):
            decode_readback(b"1_0\n +7 \n", FixedPointFormat(20), 0)

    def test_word_range_edges_accepted(self):
        fmt = FixedPointFormat(32)
        state = decode_readback(b"2147483647\n-2147483648\n0\n0\n", fmt, 1)
        assert (state.re[0], state.im[0]) == (fmt.max_raw, fmt.min_raw)


class TestSession:
    def _bell(self, config):
        circuit = parse_file(qbemu.fixture_path("bell.qasm"))
        return compile_circuit(circuit, config)

    def test_session_frame_order(self):
        config = ExecConfig(n_qubits=3)
        program = self._bell(config)
        stream = encode_session(program, config)
        assert stream.startswith(b"?0#*3#>")
        assert stream.endswith(b"!")
        assert stream.count(b"!") == 1

    def test_loopback_equals_direct_run_bell(self):
        config = ExecConfig(n_qubits=3)
        program = self._bell(config)
        direct = run(program, config)
        looped = loopback_session(program, config)
        assert np.array_equal(looped.re, direct.re)
        assert np.array_equal(looped.im, direct.im)

    def test_loopback_equals_direct_run_random(self):
        rng = np.random.default_rng(3)
        config = ExecConfig(n_qubits=4, data_bits=14, rounding="nearest_even", imm_bits=6)
        gates = random_gates(rng, 4, 40)
        program = compile_circuit(gates_as_circuit(gates, 4), config)
        direct = run(program, config)
        looped = loopback_session(program, config)
        assert np.array_equal(looped.re, direct.re)
        assert np.array_equal(looped.im, direct.im)

    def test_session_equals_framed_message_sequence(self):
        # the session is the documented message sequence, each framed by encode_message
        rng = np.random.default_rng(11)
        config = ExecConfig(n_qubits=5, data_bits=16, rounding="truncation", imm_bits=7)
        program = compile_circuit(gates_as_circuit(random_gates(rng, 5, 60), 5), config)
        assert any(v < 0 for pair in program.table.entries for v in pair)
        messages = [
            HostMessage(MessageKind.ANGLE_COUNT, len(program.table)),
            HostMessage(MessageKind.QUBIT_COUNT, program.used_qubits),
            *(HostMessage(MessageKind.ANGLE_VALUE, v) for pair in program.table.entries for v in pair),
            *(HostMessage(MessageKind.INSTRUCTION, encode_words([i], config).item(0)) for i in program.instructions),
            HostMessage(MessageKind.END_OF_EMULATION),
        ]
        stream = encode_session(program, config)
        assert stream == b"".join(encode_message(m) for m in messages)
        assert decode_stream(stream) == messages

    def test_decoding_a_long_session_peaks_under_a_bound(self):
        # the frames are checked in arrays: one regex match over the whole run kept about 34 bytes of
        # backtracking state per input byte, a 4.11 MiB peak on this 135 KB session
        rng = np.random.default_rng(7)
        config = ExecConfig(n_qubits=8, data_bits=24, imm_bits=8)
        program = compile_circuit(gates_as_circuit(random_gates(rng, 8, 200) * 100, 8), config)
        stream = encode_session(program, config)
        tracemalloc.start()
        try:
            messages = decode_stream(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(messages) == 20_000 + 2 * len(program.table) + 3
        assert peak < 2.5 * (1 << 20), peak

    def test_empty_program_returns_initial_state(self):
        config = ExecConfig(n_qubits=2)
        program = compile_circuit(gates_as_circuit([], 2), config)
        state = loopback_session(program, config)
        assert state.re[0] == 1 << 18
        assert np.all(state.re[1:] == 0)

    def test_transcript_replays_deterministically(self):
        config = ExecConfig(n_qubits=3)
        program = self._bell(config)
        assert encode_session(program, config) == encode_session(program, config)

    def test_float_program_rejected(self):
        config = ExecConfig(n_qubits=3, rounding="float_reference")
        program = self._bell(config)
        with pytest.raises(ValueError):
            encode_session(program, config)
        with pytest.raises(ProtocolError):
            VirtualBoard(config)

    def test_board_enforces_order(self):
        config = ExecConfig(n_qubits=3)
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match="before angle count"):
            board.feed(b"*3#")
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match="before counts"):
            board.feed(b">0#")
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match="before the session completed"):
            board.feed(b"?1#*2#!")

    @pytest.mark.parametrize(
        "stream, message",
        [
            (b"?0#*1#!?0#", "message received after end of emulation"),
            (b"?0#?0#", "duplicate angle count"),
            (b"?0#*1#*1#", "duplicate qubit count"),
            (b"?1#<0#", "angle value before counts"),
            (b"?1#*1#<0#>0#", "instruction before the angle table completed"),
        ],
        ids=["after_end", "angle_count_twice", "qubit_count_twice", "angle_before_qubit_count", "short_table"],
    )
    def test_board_refuses_a_message_out_of_order(self, stream, message):
        board = VirtualBoard(ExecConfig(n_qubits=3))
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            board.feed(stream)

    def test_board_rejects_extra_angles(self):
        config = ExecConfig(n_qubits=3)
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match="more angle values"):
            board.feed(b"?0#*2#<5#")

    @pytest.mark.parametrize("value", [1 << 41, 1 << 64, 1 << 23, -(1 << 23) - 1])
    def test_board_rejects_angle_value_outside_word(self, value):
        # beyond the word, the int64 kernels would wrap instead of saturating
        config = ExecConfig(n_qubits=1, data_bits=24, rounding="nearest", imm_bits=2)
        board = VirtualBoard(config)
        board.feed(b"?1#*1#")
        with pytest.raises(ProtocolError, match=rf"angle value {value} outside the 24-bit range \[-8388608, 8388607\]"):
            board.feed(encode_message(HostMessage(MessageKind.ANGLE_VALUE, value)))

    @pytest.mark.parametrize(
        "word, message",
        [(1 << 40, "word width mismatch: 0x10000000000 does not fit 8 bits"), (0xF0, "invalid opcode 0b1111")],
    )
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_board_checks_each_word_on_arrival(self, word, message, chunk):
        # N = 2, Q = 2: 8-bit words; the bad frame starts at byte 9, and the
        # error comes as it arrives, before the end marker, under any chunking
        config = ExecConfig(n_qubits=2, imm_bits=2)
        stream = f"?0#*2#>3#>{word:X}#>3#".encode()
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match=f"^byte 9: {message}$"):
            for k in range(0, len(stream), chunk):
                board.feed(stream[k : k + chunk])

    @pytest.mark.parametrize(
        "counts, ins, message",
        [
            (b"?0#*2#", Instruction(GateKind.X, 3, 3), "byte 6: target 3 out of range for 2 qubits"),
            (b"?0#*2#", Instruction(GateKind.X, 0, 2), "byte 6: control 2 out of range for 2 qubits"),
            (
                b"?1#*1#<0#<1#",
                Instruction(GateKind.RY, 0, 0, 3),
                "byte 12: immediate 3 out of range for angle table of length 1",
            ),
        ],
        ids=["target", "control", "immediate"],
    )
    def test_board_checks_word_fields_against_announced_counts(self, counts, ins, message):
        # on arrival, before the end marker, like a bad word
        config = ExecConfig()
        word = encode_words([ins], config).item(0)
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            board.feed(counts + f">{word:X}#".encode())

    def test_board_runs_angle_values_at_word_edges(self):
        # RY with sine max_raw and cosine min_raw on |0>: a' = min_raw, b' = max_raw
        config = ExecConfig(n_qubits=1, data_bits=24, rounding="nearest", imm_bits=2)
        fmt = config.fixed_format
        word = encode_words([Instruction(GateKind.RY, 0, 0, 0)], config).item(0)
        board = VirtualBoard(config)
        board.feed(f"?1#*1#<{fmt.max_raw:X}#<{-fmt.min_raw:X}-#>{word:X}#!".encode())
        state = board.result_state()
        assert (state.re.tolist(), state.im.tolist()) == ([fmt.min_raw, fmt.max_raw], [0, 0])
        assert not state.overflow

    @pytest.mark.parametrize("count, ok", [(4, True), (5, False), (0xFFFFFF, False)])
    def test_board_angle_count_bounded_by_register_file(self, count, ok):
        # Q = 2 gives a 4-entry angle register file
        board = VirtualBoard(ExecConfig(n_qubits=1, imm_bits=2))
        message = f"?{count:X}#".encode()
        if ok:
            board.feed(message)
        else:
            with pytest.raises(ProtocolError, match=f"{count} angle pairs announced, Q=2 allows 4"):
                board.feed(message)

    def test_board_capacity_check(self):
        config = ExecConfig(n_qubits=2)
        board = VirtualBoard(config)
        with pytest.raises(ProtocolError, match="supports"):
            board.feed(b"?0#*5#")

    def test_readback_requires_finish(self):
        config = ExecConfig(n_qubits=2)
        board = VirtualBoard(config)
        board.feed(b"?0#*2#")
        with pytest.raises(ProtocolError, match="not finished"):
            board.readback()
