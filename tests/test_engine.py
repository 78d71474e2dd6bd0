"""Couple walk, kernels in both backends, oracle equivalence, sampling."""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qbemu
from qbemu import engine
from qbemu.compiler import AngleTable, CompiledProgram, Instruction, compile_circuit
from qbemu.config import MAX_QUBITS, ConfigError, ExecConfig
from qbemu.engine import (
    MAX_STATE_BYTES,
    EngineError,
    FixedState,
    FloatState,
    apply_gate,
    dump_state,
    initial_state,
    run,
    sample_counts,
)
from qbemu.fixedpoint import FixedPointFormat
from qbemu.gates import (
    INV_SQRT2,
    ROTATIONAL,
    SIGN_EXCHANGE,
    GateApplication,
    GateKind,
)
from qbemu.hostlink import decode_readback, encode_readback
from _helpers import (
    OracleAlu,
    couple_pairs,
    dense_oracle,
    dense_unitary,
    edge_fixed_state,
    gates_as_circuit,
    oracle_mul_raw,
    oracle_quantize,
    outputs_under_both_dispatches,
    random_gates,
    scalar_fixed_kernel,
    tensordot_apply,
    tie_operand,
)

BELL_GATES = [
    GateApplication(GateKind.H, 2),
    GateApplication(GateKind.X, 1, control=2),
    GateApplication(GateKind.X, 0, control=2),
]


def bell_program(config: ExecConfig) -> CompiledProgram:
    return compile_circuit(gates_as_circuit(BELL_GATES, 3), config)


def random_float_state(rng: np.random.Generator, n: int) -> FloatState:
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return FloatState(n, amp)


def engine_couples(n: int, target: int, control: int | None = None) -> list[tuple[int, int]]:
    """The pairs the engine couples, read off an X gate on amplitudes 0..2**n-1."""
    state = FloatState(n, np.arange(1 << n, dtype=complex))
    apply_gate(state, Instruction(GateKind.X, target, target if control is None else control))
    partner = state.amp.real.astype(int).tolist()
    return [(i, p) for i, p in enumerate(partner) if p > i]


def random_fixed_state(rng: np.random.Generator, n: int, fmt: FixedPointFormat) -> FixedState:
    one = 1 << fmt.fractional_bits
    re = rng.integers(-one, one, size=1 << n).astype(np.int64)
    im = rng.integers(-one, one, size=1 << n).astype(np.int64)
    return FixedState(n, fmt, re, im)


class TestCoupleSelection:
    def test_three_qubit_target_zero(self):
        assert couple_pairs(3, 0) == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert engine_couples(3, 0) == couple_pairs(3, 0)

    def test_three_qubit_target_two(self):
        assert couple_pairs(3, 2) == [(0, 4), (1, 5), (2, 6), (3, 7)]
        assert engine_couples(3, 2) == couple_pairs(3, 2)

    def test_controlled_skips_control_zero(self):
        assert couple_pairs(2, 0, control=1) == [(2, 3)]
        assert engine_couples(2, 0, control=1) == couple_pairs(2, 0, control=1)

    def test_invariants_all_combinations(self):
        for n in range(1, 6):
            for target in range(n):
                pairs = couple_pairs(n, target)
                assert engine_couples(n, target) == pairs
                assert len(pairs) == 1 << (n - 1)
                seen = set()
                for i, j in pairs:
                    assert j == i + (1 << target)
                    assert (i >> target) & 1 == 0
                    assert (j >> target) & 1 == 1
                    seen.update((i, j))
                assert seen == set(range(1 << n))
                assert [p[0] for p in pairs] == sorted(p[0] for p in pairs)
                for control in range(n):
                    if control == target:
                        continue
                    cpairs = couple_pairs(n, target, control)
                    assert engine_couples(n, target, control) == cpairs
                    assert len(cpairs) == 1 << (n - 2)
                    for i, j in cpairs:
                        assert (i >> control) & 1 == 1
                        assert (j >> control) & 1 == 1

    def test_range_errors(self):
        for state in (FloatState(3), FixedState(3, FixedPointFormat(16))):
            for target, control in ((3, 3), (-1, -1), (0, 5), (1, -1)):
                with pytest.raises(EngineError, match="out of range"):
                    apply_gate(state, Instruction(GateKind.X, target, control))
        assert engine_couples(3, 1, control=1) == couple_pairs(3, 1)  # control == target: uncontrolled

    @pytest.mark.parametrize("backend", ["float", "fixed"])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_gate_changes_only_enumerated_pairs(self, kind, backend):
        rng = np.random.default_rng(14)
        fmt = FixedPointFormat(16, "nearest")
        table = AngleTable(None if backend == "float" else fmt)
        imm = table.intern(0.9) if kind in ROTATIONAL else 0
        for n in range(1, 6):
            for target in range(n):
                for control in [None] + [c for c in range(n) if c != target]:
                    if backend == "float":
                        state = random_float_state(rng, n)
                        parts = (state.amp,)
                    else:
                        state = random_fixed_state(rng, n, fmt)
                        parts = (state.re, state.im)
                    before = [p.copy() for p in parts]
                    instr = Instruction(kind, target, target if control is None else control, imm)
                    apply_gate(state, instr, table)
                    coupled = {i for pair in couple_pairs(n, target, control) for i in pair}
                    untouched = [i for i in range(1 << n) if i not in coupled]
                    for old, new in zip(before, parts):  # updated in place
                        assert np.array_equal(new[untouched], old[untouched]), (n, target, control)


class TestApplyGateFloat:
    def test_h_creates_superposition(self):
        state = FloatState(1)
        apply_gate(state, Instruction(GateKind.H, 0, 0))
        assert np.allclose(state.amp, [INV_SQRT2, INV_SQRT2])

    def test_controlled_x_msq_control(self):
        # control on qubit 1, target on qubit 0: swaps amplitudes 2 and 3 only
        rng = np.random.default_rng(0)
        state = random_float_state(rng, 2)
        before = state.amp.copy()
        apply_gate(state, Instruction(GateKind.X, 0, 1))
        assert state.amp[0] == before[0] and state.amp[1] == before[1]
        assert state.amp[2] == before[3] and state.amp[3] == before[2]

    def test_bell_program(self):
        config = ExecConfig(n_qubits=3, rounding="float_reference")
        state = run(bell_program(config), config)
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = INV_SQRT2
        assert np.max(np.abs(state.amp - expected)) < 1e-12

    def test_unitarity_preserved(self):
        rng = np.random.default_rng(1)
        config = ExecConfig(n_qubits=4, rounding="float_reference")
        gates = random_gates(rng, 4, 50)
        program = compile_circuit(gates_as_circuit(gates, 4), config)
        state = run(program, config)
        assert abs(state.probabilities().sum() - 1.0) < 1e-12

    def test_every_kernel_matches_oracle(self):
        # one gate at a time, all opcodes, all target/control slots, vs the
        # dense embedding, on a batch of random states
        rng = np.random.default_rng(2)
        for n in range(1, 6):
            states = [random_float_state(rng, n) for _ in range(20 if n < 5 else 10)]
            controls = [None] + list(range(n))
            for kind in GateKind:
                for target in range(n):
                    for control in controls:
                        if control == target:
                            continue
                        angle = float(rng.uniform(-6, 6)) if kind in ROTATIONAL else None
                        gate = GateApplication(kind, target, control=control, angle=angle)
                        program = compile_circuit(
                            gates_as_circuit([gate], n),
                            ExecConfig(n_qubits=n, rounding="float_reference"),
                        )
                        u = dense_unitary([gate], n)
                        for st in states:
                            got = st.copy()
                            apply_gate(got, program.instructions[0], program.table)
                            assert np.max(np.abs(got.amp - u @ st.amp)) < 1e-12

    def test_oracle_equivalence_random_circuits(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            gates = random_gates(rng, n, int(rng.integers(1, 31)))
            circuit = gates_as_circuit(gates, n)
            config = ExecConfig(n_qubits=n, rounding="float_reference")
            state = run(compile_circuit(circuit, config), config)
            expected = dense_oracle(circuit)[:, 0]
            assert np.max(np.abs(state.amp - expected)) < 1e-12

    def test_rotations_do_not_depend_on_simd_dispatch(self):
        """200 seeded circuits rich in RZ and U1 give the same amplitudes, bit
        for bit, under numpy's default SIMD dispatch and its baseline loops:
        a fused multiply-add would round a product by ``c +- i s`` apart."""
        default, base = (out.splitlines() for out in outputs_under_both_dispatches(FLOAT_DISPATCH_SCRIPT))
        assert len(default) == 200
        assert default == base


FLOAT_DISPATCH_SCRIPT = """
import hashlib, math
import numpy as np
from qbemu import AngleTable, FloatState, GateKind, Instruction, apply_gate
from qbemu.gates import ROTATIONAL

kinds = [GateKind.RZ, GateKind.U1] * 6 + list(GateKind)
for seed in range(200):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    amp = np.empty(1 << n, dtype=complex)  # no complex arithmetic: numpy may fuse its products
    amp.real, amp.imag = rng.normal(size=(2, 1 << n)) / np.sqrt(2 << n)
    state, table = FloatState(n, amp), AngleTable(None)
    for _ in range(60):
        kind = kinds[rng.integers(len(kinds))]
        target, control = (int(q) for q in rng.integers(n, size=2))  # control == target: none
        imm = table.intern(float(rng.uniform(-2 * math.pi, 2 * math.pi))) if kind in ROTATIONAL else 0
        apply_gate(state, Instruction(kind, target, control, imm), table)
    print(hashlib.sha256(state.amp.tobytes()).hexdigest())
"""


def kernel_inputs(rng, fmt, multipliers):
    """(ar, ai, br, bi) raw inputs: random values, every mix of min_raw /
    max_raw / 0, and operands whose products with each multiplier are exact
    rounding ties, with both signs."""
    one = 1 << fmt.fractional_bits
    inputs = [tuple(int(v) for v in rng.integers(-one, one, size=4)) for _ in range(10)]
    inputs += itertools.product((fmt.min_raw, fmt.max_raw, 0), repeat=4)
    for m in multipliers:
        t = tie_operand(m, fmt)
        inputs += itertools.product((t, -t), repeat=4)
        inputs += [(t, 0, 3 * t, 0), (0, -3 * t, 0, t)]
    return inputs


class TestApplyGateFixed:
    def test_vector_kernels_match_scalar_ops(self):
        # bridges the vectorized backend to the exact-Fraction oracle: every
        # kernel, every rounding mode, edge and tie inputs, and the sticky flag
        rng = np.random.default_rng(4)
        for bits, mode in itertools.product((16, 32), ("truncation", "nearest", "nearest_even")):
            fmt = FixedPointFormat(bits, mode)
            k = oracle_quantize(INV_SQRT2, fmt)
            table = AngleTable(fmt)
            pairs = [table.entries[table.intern(angle)] for angle in (1.1, -2.3)]
            table.entries.append((fmt.max_raw, fmt.min_raw))
            pairs.append(table.entries[-1])
            # multipliers that are whole numbers (e.g. min_raw = -2.0) never round
            frac = (1 << fmt.fractional_bits) - 1
            multipliers = {m for m in (k, *itertools.chain(*pairs)) if m & frac}
            inputs = kernel_inputs(rng, fmt, sorted(multipliers))
            for kind in GateKind:
                for imm, (s, c) in enumerate(pairs if kind in ROTATIONAL else [(0, 0)]):
                    for ar, ai, br, bi in inputs:
                        alu = OracleAlu(fmt)
                        expect_a, expect_b = scalar_fixed_kernel(kind, (ar, ai), (br, bi), k, (s, c), alu)
                        state = FixedState(1, fmt, np.array([ar, br]), np.array([ai, bi]))
                        apply_gate(state, Instruction(kind, 0, 0, imm), table)
                        where = (mode, kind, imm, ar, ai, br, bi)
                        assert (state.re[0], state.im[0]) == expect_a, where
                        assert (state.re[1], state.im[1]) == expect_b, where
                        assert state.overflow == alu.overflow, where

    def test_word_wider_than_array_core_rejected(self):
        # a 40-bit word's products overflow int64; the state refuses it
        # instead of returning wrapped amplitudes with the flag clear
        with pytest.raises(EngineError, match="40-bit"):
            FixedState(1, FixedPointFormat(40))
        state = apply_gate(FixedState(1, FixedPointFormat(32)), Instruction(GateKind.H, 0, 0))
        assert np.allclose(state.to_complex(), [INV_SQRT2, INV_SQRT2], atol=1e-9)
        assert not state.overflow

    @pytest.mark.parametrize("re0", [128, -129, 1 << 40, 1 << 70])
    def test_raw_values_outside_word_rejected(self, re0):
        fmt = FixedPointFormat(8)
        with pytest.raises(EngineError, match=rf"raw value {re0} outside the 8-bit range \[-128, 127\]"):
            FixedState(1, fmt, [re0, 0], [0, 0])
        with pytest.raises(EngineError, match=rf"raw value {re0} outside the 8-bit range \[-128, 127\]"):
            FixedState(1, fmt, [0, 0], [0, re0])
        state = FixedState(1, fmt, [127, -128], [-128, 127])
        assert state.re.tolist() == [127, -128]

    @pytest.mark.parametrize("value", [0.9, -2.5, "3", math.nan, math.inf, 1 + 0j])
    def test_raw_values_that_are_no_integers_rejected(self, value):
        # an int64 conversion would truncate 0.9 and -2.5, parse '3' and fail on the rest;
        # the state refuses each, as the table check refuses such entries
        fmt = FixedPointFormat(8)
        message = f"^raw value {re.escape(repr(value))} is not an integer$"
        with pytest.raises(EngineError, match=message):
            FixedState(1, fmt, [value, 0], [0, 0])
        with pytest.raises(EngineError, match=message):
            FixedState(1, fmt, [0, 0], [value, 0])
        # nor is a uint64 word past int64 wrapped into the range
        with pytest.raises(EngineError, match=rf"^raw value {1 << 63} outside the 8-bit range"):
            FixedState(1, fmt, np.array([1 << 63, 0], dtype=np.uint64), [0, 0])
        # integral values of any type are words, as a rounded float array's are
        state = FixedState(1, fmt, np.array([3.0, -128.0]), np.array([5, 127], dtype=np.uint8))
        assert state.raw.dtype == np.int32 and state.raw.tolist() == [[3, -128], [5, 127]]

    def test_copy_does_not_rescan(self):
        # run(..., initial=...) copies the state on every call; the copy trusts
        # the state it copies, so a word planted after construction survives it
        state = FixedState(1, FixedPointFormat(8))
        state.re[1] = 1 << 20
        clone = state.copy()
        assert clone.re.tolist() == state.re.tolist()
        assert clone.re is not state.re and clone.im is not state.im

    def test_sign_exchange_zero_arithmetic_error(self):
        # X,Y,Z,S,Sdg only permute and negate raw values: results must equal
        # the exact permutation/sign action with no rounding at all
        rng = np.random.default_rng(5)
        fmt = FixedPointFormat(20, "nearest")
        signs = {
            GateKind.X: lambda a, b: (b, a),
            GateKind.Y: lambda a, b: ((b[1], -b[0]), (-a[1], a[0])),
            GateKind.Z: lambda a, b: (a, (-b[0], -b[1])),
            GateKind.S: lambda a, b: (a, (-b[1], b[0])),
            GateKind.SDG: lambda a, b: (a, (b[1], -b[0])),
        }
        for kind in SIGN_EXCHANGE:
            state = random_fixed_state(rng, 3, fmt)
            before_re, before_im = state.re.copy(), state.im.copy()
            apply_gate(state, Instruction(kind, 1, 1))
            for i, j in couple_pairs(3, 1):
                a = (int(before_re[i]), int(before_im[i]))
                b = (int(before_re[j]), int(before_im[j]))
                (ea, eb) = signs[kind](a, b)
                assert (state.re[i], state.im[i]) == ea
                assert (state.re[j], state.im[j]) == eb
            assert not state.overflow

    def test_control_masking_bit_identical(self):
        rng = np.random.default_rng(6)
        fmt = FixedPointFormat(14, "truncation")
        table = AngleTable(fmt)
        imm = table.intern(0.7)
        for kind in GateKind:
            state = random_fixed_state(rng, 3, fmt)
            before_re, before_im = state.re.copy(), state.im.copy()
            instr = Instruction(kind, 0, 2, imm if kind in ROTATIONAL else 0)
            apply_gate(state, instr, table)
            untouched = [i for i in range(8) if not (i >> 2) & 1]
            assert np.array_equal(state.re[untouched], before_re[untouched])
            assert np.array_equal(state.im[untouched], before_im[untouched])

    def test_control_masking_float(self):
        rng = np.random.default_rng(7)
        state = random_float_state(rng, 3)
        before = state.amp.copy()
        apply_gate(state, Instruction(GateKind.H, 0, 1))
        untouched = [i for i in range(8) if not (i >> 1) & 1]
        assert np.array_equal(state.amp[untouched], before[untouched])

    def test_bell_program_fixed_20(self):
        config = ExecConfig(n_qubits=3, data_bits=20, rounding="nearest")
        state = run(bell_program(config), config)
        amps = state.to_complex()
        assert abs(amps[0] - INV_SQRT2) < 1e-4
        assert abs(amps[7] - INV_SQRT2) < 1e-4
        others = np.delete(np.abs(amps), [0, 7])
        assert np.all(others < 1e-4)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(8)
        gates = random_gates(rng, 4, 60)
        config = ExecConfig(n_qubits=4, data_bits=18, rounding="nearest_even")
        program = compile_circuit(gates_as_circuit(gates, 4), config)
        a = run(program, config)
        b = run(program, config)
        assert np.array_equal(a.re, b.re) and np.array_equal(a.im, b.im)

    def test_norm_drift_linear_bound(self):
        # |sum of probabilities - 1| stays below gates * 2^-(bits-3)
        rng = np.random.default_rng(9)
        for bits in (12, 20):
            config = ExecConfig(n_qubits=5, data_bits=bits, rounding="nearest", imm_bits=7)
            for _ in range(5):
                n_gates = int(rng.integers(20, 80))
                gates = random_gates(rng, 5, n_gates)
                program = compile_circuit(gates_as_circuit(gates, 5), config)
                state = run(program, config)
                drift = abs(state.probabilities().sum() - 1.0)
                assert drift <= n_gates * 2.0 ** -(bits - 3)

    def test_couple_order_is_irrelevant(self):
        # kernels read a snapshot of the pre-gate amplitudes, so any couple
        # evaluation order gives the same state; check against an explicitly
        # shuffled scalar walk
        rng = np.random.default_rng(10)
        fmt = FixedPointFormat(16, "nearest")
        k = oracle_quantize(INV_SQRT2, fmt)
        state = random_fixed_state(rng, 4, fmt)
        shuffled = couple_pairs(4, 2)
        rng.shuffle(shuffled)
        expect_re, expect_im = state.re.copy(), state.im.copy()
        for i, j in shuffled:
            (ea, eb) = scalar_fixed_kernel(
                GateKind.H,
                (int(state.re[i]), int(state.im[i])),
                (int(state.re[j]), int(state.im[j])),
                k,
                None,
                OracleAlu(fmt),
            )
            expect_re[i], expect_im[i] = ea
            expect_re[j], expect_im[j] = eb
        apply_gate(state, Instruction(GateKind.H, 2, 2))
        assert np.array_equal(state.re, expect_re)
        assert np.array_equal(state.im, expect_im)

    @pytest.mark.parametrize(
        "rounding, fmt, kind, message",
        [
            ("float_reference", FixedPointFormat(20), GateKind.RY, "float backend requires a float-reference angle table"),
            ("nearest", None, GateKind.RY, "fixed backend requires a fixed-point angle table"),
            ("nearest", FixedPointFormat(12), GateKind.RY, "angle table format does not match state format"),
            ("nearest", None, GateKind.X, "fixed backend requires a fixed-point angle table"),
        ],
        ids=["float_state", "fixed_state", "other_format", "gate_reading_no_entry"],
    )
    def test_table_of_the_other_backend_refused(self, rounding, fmt, kind, message):
        # the kernels read table entries as stored, so a nonempty table must match its state's backend;
        # apply_gate and run share one check and one set of messages, under any gate
        config = ExecConfig(n_qubits=1, rounding=rounding)
        table = AngleTable(fmt)
        table.intern(0.5)
        with pytest.raises(EngineError, match=f"^{message}$"):
            apply_gate(initial_state(1, config), Instruction(kind, 0, 0, 0), table)
        with pytest.raises(EngineError, match=f"^{message}$"):
            run(CompiledProgram([Instruction(kind, 0, 0, 0)], table, 1), config)

    @pytest.mark.parametrize(
        "rounding, entries, message",
        [
            ("nearest", [(1 << 40, 0)], "value 1099511627776 outside the 32-bit range [-2147483648, 2147483647]"),
            ("nearest", [(0, -(1 << 70))], f"value {-(1 << 70)} outside the 32-bit range [-2147483648, 2147483647]"),
            ("float_reference", [(math.nan, 1.0)], "value nan is not finite"),
            ("float_reference", [(0.0, -math.inf)], "value -inf is not finite"),
            ("nearest", [(0.9, 1.7)], "value 0.9 is not an integer"),
            ("float_reference", [(3.0, 4.0)], "value 3.0 out of range for float-reference mode"),
            ("nearest", [(0, 1 << 30), (1 << 40, 0)], "value 1099511627776 outside the 32-bit range [-2147483648, 2147483647]"),
        ],
        ids=["wraps_in_int64", "past_int64", "nan", "inf", "non_integer", "past_one", "entry_the_gate_does_not_read"],
    )
    def test_out_of_range_or_non_finite_entry_refused(self, rounding, entries, message):
        # a fixed entry past the word's range wraps inside an int64 product, or past int64 cannot be held,
        # a fixed entry that is no integer would be truncated, a float NaN spreads through the state and a
        # float entry past 1 scales it: apply_gate and run refuse them as a table file's are, in every entry
        config = ExecConfig(n_qubits=1, data_bits=32, rounding=rounding)
        table = AngleTable(None if config.is_float_reference else config.fixed_format, entries)
        match = "^angle table " + re.escape(message) + "$"
        with pytest.raises(EngineError, match=match):
            apply_gate(initial_state(1, config), Instruction(GateKind.RY, 0, 0, 0), table)
        with pytest.raises(EngineError, match=match):
            run(CompiledProgram([Instruction(GateKind.RY, 0, 0, 0)], table, 1), config)

    def test_rotational_imm_out_of_range(self):
        config = ExecConfig(n_qubits=1)
        state = initial_state(1, config)
        with pytest.raises(EngineError, match="angle table"):
            apply_gate(state, Instruction(GateKind.RX, 0, 0, imm=0), AngleTable(config.fixed_format))


@functools.cache
def couple_pair_array(n: int, target: int, control: int | None) -> np.ndarray:
    return np.array(couple_pairs(n, target, control))


# Consumed angles whose (sin, cos) signs are (+,+), (+,-), (-,+) and (-,-), then sin = 0, and
# cos = -1.0 (a 2 pi rotation), the one constant whose product with min_raw leaves the range.
SIGN_CASE_ANGLES = (1.1, 2.0, -1.1, -2.0, 0.0, math.pi)
KIND_ANGLES = [pytest.param(kind, None, id=kind.name) for kind in GateKind if kind not in ROTATIONAL]
KIND_ANGLES += [
    pytest.param(kind, a, id=f"{kind.name}-{a:.3g}")
    for kind in GateKind if kind in ROTATIONAL for a in SIGN_CASE_ANGLES
]


class TestBlockedKernels:
    """Couple tensors above ``engine._BLOCK`` amplitudes per plane run block by
    block.  Target and control sit inside (bits < 14) and outside one block's
    bit span."""

    N = 16
    CASES = [(0, None), (9, None), (13, None), (14, None), (15, None),
             (1, 12), (12, 1), (3, 15), (15, 3), (14, 15), (15, 14)]

    @pytest.mark.parametrize("bits, mode", [(24, "nearest_even"), (8, "truncation"), (32, "nearest")])
    @pytest.mark.parametrize("kind, angle", KIND_ANGLES)
    def test_sampled_couples_match_fraction_oracle(self, kind, angle, bits, mode):
        n = self.N
        assert 1 << (n - 1) > engine._BLOCK  # controlled couple tensors are blocked too
        rng = np.random.default_rng(bits)
        fmt = FixedPointFormat(bits, mode)
        k = oracle_quantize(INV_SQRT2, fmt)
        table = AngleTable(fmt)
        imm = table.intern(angle) if kind in ROTATIONAL else 0
        sincos = table.entries[imm] if kind in ROTATIONAL else None
        # a quarter of the words meet exact ties in a product by each constant, with both signs:
        # where two products share one rounding bias, each of them meets its ties
        whole = 1 << fmt.fractional_bits  # a whole-number constant never rounds
        ties = [sign * tie_operand(m, fmt) for m in sincos or (k,) if m % whole for sign in (1, -1)]
        for target, control in self.CASES:
            state = edge_fixed_state(rng, n, fmt)
            tied = rng.random(state.raw.shape) < 0.25
            if ties:
                state.raw[tied] = rng.choice(ties, int(tied.sum()))
            before_re, before_im = state.re.copy(), state.im.copy()
            apply_gate(state, Instruction(kind, target, target if control is None else control, imm), table)
            pairs = couple_pair_array(n, target, control)
            m = len(pairs)
            picks = [0, m - 1, *(j * m // 8 + d for j in range(1, 8) for d in (-1, 0))]
            picks += rng.choice(m, 32, replace=False).tolist()
            alu = OracleAlu(fmt)
            for i, j in pairs[picks].tolist():
                ea, eb = scalar_fixed_kernel(
                    kind, (int(before_re[i]), int(before_im[i])), (int(before_re[j]), int(before_im[j])), k, sincos, alu
                )
                where = (target, control, i, j)
                assert (state.re[i], state.im[i]) == ea, where
                assert (state.re[j], state.im[j]) == eb, where
            assert state.overflow or not alu.overflow
            untouched = np.ones(1 << n, dtype=bool)
            untouched[pairs.ravel()] = False
            assert np.array_equal(state.re[untouched], before_re[untouched]), (target, control)
            assert np.array_equal(state.im[untouched], before_im[untouched]), (target, control)

    @pytest.mark.parametrize("block", [2, 4, 16])
    def test_tiny_blocks_equal_one_block(self, monkeypatch, block):
        # shrinking the block runs the blocked walk at small n, where the
        # unblocked walk gives the reference: states and the flag after
        # every gate are identical, on both backends
        rng = np.random.default_rng(block)
        float_table = AngleTable(None)
        for angle in (0.4, -2.9, math.pi, 1.7):
            float_table.intern(angle)
        for bits, mode in itertools.product((8, 20, 32), ("truncation", "nearest", "nearest_even")):
            fmt = FixedPointFormat(bits, mode)
            table = AngleTable(fmt)
            for angle in (0.4, -2.9, math.pi):
                table.intern(angle)
            table.entries.append((fmt.max_raw, fmt.min_raw))
            n = int(rng.integers(3, 7))
            gates = random_gates(rng, n, 25)
            instrs = [
                Instruction(g.kind, g.target, g.target if g.control is None else g.control,
                            int(rng.integers(len(table))) if g.kind in ROTATIONAL else 0)
                for g in gates
            ]
            blocked = edge_fixed_state(rng, n, fmt)
            whole = blocked.copy()
            float_blocked = random_float_state(rng, n)
            float_whole = float_blocked.copy()
            for instr in instrs:
                monkeypatch.setattr(engine, "_BLOCK", block)
                apply_gate(blocked, instr, table)
                apply_gate(float_blocked, instr, float_table)
                monkeypatch.setattr(engine, "_BLOCK", 1 << 30)
                apply_gate(whole, instr, table)
                apply_gate(float_whole, instr, float_table)
                assert np.array_equal(blocked.raw, whole.raw), (bits, mode, instr)
                assert blocked.overflow == whole.overflow, (bits, mode, instr)
                assert np.array_equal(float_blocked.amp, float_whole.amp), instr
                blocked.overflow = whole.overflow = False

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda kind: kind.name)
    def test_float_matches_tensordot(self, kind):
        n = self.N
        rng = np.random.default_rng(16)
        config = ExecConfig(n_qubits=n, rounding="float_reference")
        angle = 1.1 if kind in ROTATIONAL else None
        for target, control in self.CASES:
            gate = GateApplication(kind, target, control=control, angle=angle)
            program = compile_circuit(gates_as_circuit([gate], n), config)
            state = random_float_state(rng, n)
            want = tensordot_apply(state.amp, n, gate)
            apply_gate(state, program.instructions[0], program.table)
            assert np.max(np.abs(state.amp - want)) < 1e-12, (target, control)

    @pytest.mark.parametrize("backend", ["float", "fixed"])
    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda kind: kind.name)
    def test_gate_allocates_no_state_sized_temporary(self, kind, backend):
        # the 18-qubit state holds 2 MiB (fixed) or 4 MiB (float); one gate's temporaries stay in blocks
        n = 18
        config = ExecConfig(n_qubits=n, data_bits=24, rounding="float_reference" if backend == "float" else "nearest")
        table = AngleTable(None if backend == "float" else config.fixed_format)
        imm = table.intern(0.9) if kind in ROTATIONAL else 0
        state = initial_state(n, config)
        for target, control in ((0, None), (3, None), (17, None), (3, 17), (17, 3), (16, 17)):
            instr = Instruction(kind, target, target if control is None else control, imm)
            tracemalloc.start()
            try:
                apply_gate(state, instr, table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (target, control, peak)


MODES = ("truncation", "nearest", "nearest_even")


class TestSaturationShortcut:
    """A product's range check is skipped only for constants proven safe: words in ``(-2**f, 2**f]``."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bits", range(3, 11))
    def test_product_in_range_matches_brute_force(self, bits, mode):
        fmt = FixedPointFormat(bits, mode)
        words = range(fmt.min_raw, fmt.max_raw + 1)
        safe = engine._FixedAlu([fmt])._all_safe
        for k in words:
            expect = all(fmt.min_raw <= oracle_mul_raw(x, k, fmt) <= fmt.max_raw for x in words)
            assert safe((k,)) == expect, k

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bits", range(11, 33))
    def test_edge_words_match_their_extreme_products(self, bits, mode):
        # rounding is monotone, so the products of min_raw and max_raw bound every other word's
        fmt = FixedPointFormat(bits, mode)
        one = 1 << fmt.fractional_bits
        safe = engine._FixedAlu([fmt])._all_safe
        for k in (fmt.min_raw, -one - 1, -one, -one + 1, one - 1, one, one + 1, fmt.max_raw):
            expect = all(fmt.min_raw <= oracle_mul_raw(x, k, fmt) <= fmt.max_raw for x in (fmt.min_raw, fmt.max_raw))
            assert safe((k,)) == expect == (-one < k <= one), k

    @pytest.mark.parametrize("bits", [8, 24, 32])
    @pytest.mark.parametrize("mode", MODES)
    def test_ry_2pi_saturates_min_raw(self, bits, mode):
        # RY(2 pi) consumes cos(pi) = -1, so min_raw * c = 2.0 must clip
        config = ExecConfig(n_qubits=2, data_bits=bits, rounding=mode)
        fmt = config.fixed_format
        gate = GateApplication(GateKind.RY, 1, angle=2 * math.pi)
        program = compile_circuit(gates_as_circuit([gate], 2), config)
        s, c = program.table.entries[program.instructions[0].imm]
        assert (s, c) == (0, -(1 << fmt.fractional_bits))
        assert not engine._FixedAlu([fmt])._all_safe((c,))
        initial = FixedState(2, fmt, np.full(4, fmt.min_raw), np.full(4, fmt.min_raw))
        state = run(program, config, initial=initial)
        assert state.re.tolist() == state.im.tolist() == [fmt.max_raw] * 4
        assert state.overflow

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", sorted(ROTATIONAL), ids=lambda kind: kind.name)
    def test_unsafe_product_clips_before_its_sum(self, kind, mode):
        # at 8 bits the consumed angle pi + 0.01 quantizes to cos = -1.0 beside sin = -1 lsb:
        # c * min_raw = 2.0 clips to max_raw before it is summed with the sine's product,
        # and that sum can land back in the range, one lsb from the unclipped one
        fmt = FixedPointFormat(8, mode)
        table = AngleTable(fmt)
        imm = table.intern(math.pi + 0.01)
        s, c = table.entries[imm]
        assert (s, c) == (-1, -(1 << fmt.fractional_bits))
        assert not engine._FixedAlu([fmt])._all_safe((c,))
        k = oracle_quantize(INV_SQRT2, fmt)
        words = (fmt.min_raw, fmt.max_raw, 0, -1)
        for a, b in itertools.product(itertools.product(words, repeat=2), repeat=2):
            alu = OracleAlu(fmt)
            expect = scalar_fixed_kernel(kind, a, b, k, (s, c), alu)
            state = FixedState(1, fmt, [a[0], b[0]], [a[1], b[1]])
            apply_gate(state, Instruction(kind, 0, 0, imm), table)
            assert ((state.re[0], state.im[0]), (state.re[1], state.im[1])) == expect, (a, b)
            assert state.overflow == alu.overflow, (a, b)

    @pytest.mark.parametrize("bits", [8, 24, 32])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", [GateKind.RY, GateKind.H], ids=lambda kind: kind.name)
    def test_safe_constant_leaves_flag_clear(self, kind, bits, mode):
        # with b = 0 no sum can clip, so only a product could set the flag
        fmt = FixedPointFormat(bits, mode)
        k = oracle_quantize(INV_SQRT2, fmt)
        table = AngleTable(fmt)
        imm = table.intern(1.1) if kind in ROTATIONAL else 0
        sincos = table.entries[imm] if kind in ROTATIONAL else None
        safe = engine._FixedAlu([fmt])._all_safe
        for m in sincos or (k,):
            assert safe((m,))
        a = (fmt.min_raw, fmt.max_raw)
        alu = OracleAlu(fmt)
        expect_a, expect_b = scalar_fixed_kernel(kind, a, (0, 0), k, sincos, alu)
        state = FixedState(1, fmt, [a[0], 0], [a[1], 0])
        apply_gate(state, Instruction(kind, 0, 0, imm), table)
        assert (state.re[0], state.im[0]) == expect_a
        assert (state.re[1], state.im[1]) == expect_b
        assert not alu.overflow and not state.overflow


class TestFixedStateLayout:
    def test_planes_are_rows_of_raw(self):
        fmt = FixedPointFormat(16)
        state = FixedState(2, fmt, [1, 2, 3, 4], [5, 6, 7, 8])
        assert state.raw.shape == (2, 4) and state.raw.dtype == np.int32
        assert state.raw.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
        state.re[1] = 9
        state.im[2] = -9
        assert state.raw[0, 1] == 9 and state.raw[1, 2] == -9
        ground = FixedState(2, fmt)
        assert ground.raw.tolist() == [[1 << fmt.fractional_bits, 0, 0, 0], [0, 0, 0, 0]]

    def test_constructor_copies_caller_arrays(self):
        re = np.arange(4, dtype=np.int64)
        im = -np.arange(4, dtype=np.int64)
        state = FixedState(2, FixedPointFormat(16), re, im)
        assert not np.shares_memory(state.raw, re) and not np.shares_memory(state.raw, im)
        re[0] = im[1] = 99
        assert state.re.tolist() == [0, 1, 2, 3] and state.im.tolist() == [0, -1, -2, -3]

    def test_copy_is_independent(self):
        fmt = FixedPointFormat(16)
        state = FixedState(2, fmt, [1, 2, 3, 4], [5, 6, 7, 8])
        clone = state.copy()
        assert not np.shares_memory(clone.raw, state.raw)
        apply_gate(clone, Instruction(GateKind.H, 0, 0))
        clone.overflow = True
        assert state.raw.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]] and not state.overflow

    @pytest.mark.parametrize("bits", [31, 32])
    def test_edge_words_survive_int32_planes(self, bits):
        # min_raw and max_raw are the int32 planes' extremes at 32 bits; they come back
        # exactly through the constructor, a copy and a readback stream
        fmt = FixedPointFormat(bits)
        words = [fmt.min_raw, fmt.max_raw, 0, -1]
        state = FixedState(2, fmt, words, words[::-1])
        clone = state.copy()
        again = decode_readback(encode_readback(clone), fmt, 2)
        for got in (state, clone, again):
            assert got.raw.dtype == np.int32 and got.raw.tolist() == [words, words[::-1]]


class TestStateSizeLimit:
    @pytest.mark.parametrize(
        "make",
        [FloatState, lambda n: FixedState(n, FixedPointFormat(16)), lambda n: initial_state(n, ExecConfig(n_qubits=MAX_QUBITS))],
        ids=["float", "fixed", "initial_state"],
    )
    def test_oversized_state_rejected_before_allocation(self, make):
        limit = MAX_STATE_BYTES.bit_length() - 5  # 16-byte amplitudes
        with pytest.raises(EngineError, match=rf"34-qubit state needs 2\*\*34 x 16 bytes, over the {MAX_STATE_BYTES}-byte"):
            make(34)
        with pytest.raises(EngineError, match=rf"{limit + 1}-qubit state"):
            make(limit + 1)
        with pytest.raises(EngineError, match="10000000-qubit state"):
            make(10_000_000)

    def test_limit_is_sixteen_bytes_per_amplitude(self):
        limit = MAX_STATE_BYTES.bit_length() - 5
        assert 16 << limit == MAX_STATE_BYTES
        engine._check_state_size(limit)  # checks only; allocates nothing
        with pytest.raises(EngineError):
            engine._check_state_size(limit + 1)
        # the configuration's qubit bound is the same limit
        assert ExecConfig(n_qubits=limit).n_qubits == MAX_QUBITS == limit
        with pytest.raises(ConfigError, match=rf"N must be in \[1, {limit}\]"):
            ExecConfig(n_qubits=limit + 1)

    def test_run_checks_before_allocating(self):
        config = ExecConfig(n_qubits=MAX_QUBITS)
        program = CompiledProgram((), AngleTable(config.fixed_format), 34)
        with pytest.raises(EngineError, match=f"program uses 34 qubits, architecture supports {MAX_QUBITS}"):
            run(program, config)


class TestRun:
    def test_empty_program_keeps_initial_state(self):
        config = ExecConfig(n_qubits=3)
        program = CompiledProgram((), AngleTable(config.fixed_format), 3)
        state = run(program, config)
        assert state.re[0] == 1 << 18
        assert np.all(state.re[1:] == 0) and np.all(state.im == 0)

    def test_explicit_initial_state(self):
        config = ExecConfig(n_qubits=2, rounding="float_reference")
        initial = FloatState(2, np.array([0, 1, 0, 0], dtype=complex))
        program = compile_circuit(
            gates_as_circuit([GateApplication(GateKind.X, 0)], 2), config
        )
        state = run(program, config, initial=initial)
        assert state.amp[0] == 1.0
        assert initial.amp[1] == 1.0  # caller's state untouched

    def test_backend_mismatch_rejected(self):
        config = ExecConfig(n_qubits=2)
        program = compile_circuit(gates_as_circuit([], 2), config)
        with pytest.raises(EngineError, match="backend"):
            run(program, config, initial=FloatState(2))

    def test_capacity_check(self):
        config = ExecConfig(n_qubits=2)
        program = CompiledProgram((), AngleTable(config.fixed_format), 5)
        with pytest.raises(EngineError, match="supports"):
            run(program, config)

    def test_table_longer_than_q_allows_rejected(self, monkeypatch):
        # as the program files and the board refuse it, before the state is allocated
        config = ExecConfig(n_qubits=4)
        program = CompiledProgram([Instruction(GateKind.H, 0, 0)], AngleTable(config.fixed_format, [(0, 1 << 18)] * 17), 1)
        monkeypatch.setattr(engine, "initial_state", None)
        with pytest.raises(EngineError, match="^17 angle pairs, Q=4 allows 16$"):
            run(program, config)

    @pytest.mark.parametrize("rounding", ["float_reference", "truncation", "nearest", "nearest_even"])
    def test_stepping_equals_running(self, rounding):
        # apply_gate over the instructions one at a time gives run's planes, flag and amplitudes bit for bit;
        # edge states make the fixed kernels saturate
        rng = np.random.default_rng(27)
        flags = []
        for bits in (8, 13, 20, 32):
            config = ExecConfig(n_qubits=5, data_bits=bits, rounding=rounding, imm_bits=6)
            for _ in range(3):
                program = compile_circuit(gates_as_circuit(random_gates(rng, 5, 40), 5), config)
                if config.is_float_reference:
                    initial = random_float_state(rng, 5)
                else:
                    initial = edge_fixed_state(rng, 5, config.fixed_format)
                ran, stepped = run(program, config, initial=initial), initial.copy()
                for instr in program.instructions:
                    apply_gate(stepped, instr, program.table)
                if config.is_float_reference:
                    assert np.array_equal(stepped.amp.view(np.int64), ran.amp.view(np.int64))
                else:
                    assert np.array_equal(stepped.raw, ran.raw) and stepped.overflow == ran.overflow
                    flags.append(ran.overflow)
        assert config.is_float_reference or any(flags)

    def test_rotational_gate_without_a_table_rejected(self):
        with pytest.raises(EngineError, match="^RY requires an angle table$"):
            apply_gate(FloatState(1), Instruction(GateKind.RY, 0, 0, 0))

    @pytest.mark.parametrize(
        "initial, message",
        [
            (FixedState(1, FixedPointFormat(20)), "initial state size does not match program"),
            (FixedState(2, FixedPointFormat(12)), "initial state format does not match configuration"),
        ],
        ids=["size", "format"],
    )
    def test_initial_state_of_another_size_or_format_rejected(self, initial, message):
        config = ExecConfig(n_qubits=3)
        program = CompiledProgram((), AngleTable(config.fixed_format), 2)
        with pytest.raises(EngineError, match=f"^{message}$"):
            run(program, config, initial=initial)

    def test_instruction_past_the_used_qubits_rejected(self):
        # the second instruction's control is qubit 2 of a 2-qubit program
        config = ExecConfig(n_qubits=3)
        ins = [Instruction(GateKind.H, 0, 0), Instruction(GateKind.X, 1, 2)]
        with pytest.raises(EngineError, match="^control 2 out of range for 2 qubits$"):
            run(CompiledProgram(ins, AngleTable(config.fixed_format), 2), config)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FloatState(2, np.zeros(3, dtype=complex)),
            lambda: FixedState(2, FixedPointFormat(16), [0] * 4, [0] * 3),
            lambda: FixedState(2, FixedPointFormat(16), [0] * 8, [0] * 8),
        ],
        ids=["float", "fixed_imaginary", "fixed_both"],
    )
    def test_amplitude_count_of_another_size_rejected(self, make):
        with pytest.raises(ValueError, match="^amplitude count does not match qubit count$"):
            make()

    def test_table_format_mismatch_rejected(self):
        fixed_cfg = ExecConfig(n_qubits=1)
        float_cfg = ExecConfig(n_qubits=1, rounding="float_reference")
        circuit = gates_as_circuit([GateApplication(GateKind.RX, 0, angle=0.3)], 1)
        float_prog = compile_circuit(circuit, float_cfg)
        with pytest.raises(EngineError):
            run(float_prog, fixed_cfg)


class TestRunFormats:
    """Formats of one circuit as the rows of a ladder: each row is its own run."""

    MIXED = [("nearest", 8), ("truncation", 20), ("nearest", 32), ("nearest_even", 13), ("nearest", 13)]

    @pytest.mark.parametrize(
        "block, walks",
        [
            (engine._BLOCK, [[8, 32, 13], [20], [13]]),
            (2 << 5, [[8, 32], [13], [20], [13]]),  # two 5-qubit rows per walk
            (2, [[8], [32], [13], [20], [13]]),
        ],
    )
    def test_rows_equal_separate_runs_in_order(self, monkeypatch, block, walks):
        # one walk per rounding mode, in first-seen order, each of at most block >> n rows
        rng = np.random.default_rng(41)
        seen = []
        execute = engine._execute

        def counted(states, rows, tables):
            seen.append([state.fmt.total_bits for state in states])
            return execute(states, rows, tables)

        monkeypatch.setattr(engine, "_BLOCK", block)
        monkeypatch.setattr(engine, "_execute", counted)
        configs = [ExecConfig(n_qubits=5, imm_bits=6, data_bits=b, rounding=r) for r, b in self.MIXED]
        for _ in range(3):
            circuit = gates_as_circuit(random_gates(rng, 5, 60), 5)
            programs = [compile_circuit(circuit, config) for config in configs]
            seen.clear()
            states = engine.run_formats(programs, configs)
            assert seen == walks
            for state, program, config in zip(states, programs, configs):
                alone = run(program, config)
                assert state.fmt == config.fixed_format
                assert np.array_equal(state.raw, alone.raw) and state.overflow == alone.overflow

    def test_each_row_keeps_its_own_flag(self):
        # 200 H gates on one qubit saturate at 9 bits, where 1/sqrt(2) rounds up, and at 8 and 10 bits do not
        configs = [ExecConfig(n_qubits=1, data_bits=b) for b in (8, 9, 10)]
        circuit = gates_as_circuit([GateApplication(GateKind.H, 0)] * 200, 1)
        programs = [compile_circuit(circuit, config) for config in configs]
        states = engine.run_formats(programs, configs)
        assert [state.overflow for state in states] == [False, True, False]
        for state, program, config in zip(states, programs, configs):
            assert np.array_equal(state.raw, run(program, config).raw)

    @pytest.mark.parametrize("kind", sorted(ROTATIONAL), ids=lambda kind: kind.name)
    def test_one_bias_only_where_every_row_has_one_sign(self, kind):
        # row 0's (sin, cos) has one sign and row 1's two: row 1's sine product is a tie, which
        # nearest rounding breaks away from zero by its own sign, so it takes its own bias
        fmts = [FixedPointFormat(8), FixedPointFormat(12)]
        tables = [AngleTable(fmts[0], [(3, 5)]), AngleTable(fmts[1], [(-3, 5)])]
        t = tie_operand(-3, fmts[1])
        states = [FixedState(1, fmts[0], [1, -2], [3, 4]), FixedState(1, fmts[1], [t, -t], [t, t])]
        alone = [state.copy() for state in states]
        engine._execute(states, [(kind, 0, 0, (0, 0))], tables)
        for state, own, table in zip(states, alone, tables):
            apply_gate(own, Instruction(kind, 0, 0, 0), table)
            assert np.array_equal(state.raw, own.raw)

    def test_refusals(self):
        config = ExecConfig(n_qubits=2, imm_bits=2)
        pair = [GateApplication(GateKind.H, 0), GateApplication(GateKind.X, 1, control=0)]
        bell = compile_circuit(gates_as_circuit(pair, 2), config)
        with pytest.raises(EngineError, match="^run_formats needs one configuration per program"):
            engine.run_formats([bell], [config, config])
        with pytest.raises(EngineError, match="^run_formats needs one configuration per program"):
            engine.run_formats([], [])
        float_config = replace(config, rounding="float_reference")
        with pytest.raises(EngineError, match="^run_formats runs fixed-point formats"):
            engine.run_formats([bell, compile_circuit(gates_as_circuit(pair, 2), float_config)],
                               [config, float_config])
        other = compile_circuit(gates_as_circuit([GateApplication(GateKind.H, 1)] * 2, 2), config)
        wider = compile_circuit(gates_as_circuit([GateApplication(GateKind.H, 0)] * 2, 3), replace(config, n_qubits=3))
        for program in (other, wider):
            with pytest.raises(EngineError, match="^run_formats programs differ in qubits or in opcode"):
                engine.run_formats([bell, program], [config, replace(config, data_bits=12, n_qubits=3)])

    def test_second_program_refused_as_run_refuses_it(self):
        config = ExecConfig(n_qubits=2, imm_bits=2)
        circuit = gates_as_circuit([GateApplication(GateKind.RY, 0, angle=0.5)], 2)
        good, long = (compile_circuit(circuit, config) for _ in range(2))
        long.table.entries.extend([(0, 1 << 18)] * 4)
        with pytest.raises(EngineError, match="^5 angle pairs, Q=2 allows 4$"):
            run(long, config)
        with pytest.raises(EngineError, match="^5 angle pairs, Q=2 allows 4$"):
            engine.run_formats([good, long], [config, config])


class TestInstructionFieldsFromTheApi:
    """An instruction built in Python, not decoded from a word, is checked for its opcode and immediate by both
    ``run`` and ``apply_gate``, on both backends, before any kernel reads it."""

    @staticmethod
    def ways(rounding: str, ins: Instruction) -> dict:
        """``run`` and ``apply_gate`` of ``ins`` on 2 qubits with a one-entry angle table, each a call returning
        the state."""
        config = ExecConfig(n_qubits=2, rounding=rounding)
        table = compile_circuit(gates_as_circuit([GateApplication(GateKind.RX, 0, angle=0.3)], 2), config).table
        return {"run": lambda: run(CompiledProgram([ins], table, 2), config),
                "apply_gate": lambda: apply_gate(initial_state(2, config), ins, table)}

    @pytest.mark.parametrize("rounding", ["nearest", "float_reference"])
    @pytest.mark.parametrize("use", ["run", "apply_gate"])
    @pytest.mark.parametrize(
        "ins, message",
        [
            (Instruction(GateKind.RY, 0, 0, -1), "immediate -1 out of range for angle table of length 1"),
            (Instruction(GateKind.H, 0, 0, -1), "immediate -1 out of range for angle table of length 1"),
            (Instruction(13, 0, 0), "invalid opcode 13"),
            (Instruction(-1, 0, 0), "invalid opcode -1"),
        ],
        ids=["negative_rotational_imm", "negative_imm", "opcode_13", "opcode_minus_1"],
    )
    def test_refused_with_a_named_message(self, rounding, use, ins, message):
        with pytest.raises(EngineError, match=f"^{message}$"):
            self.ways(rounding, ins)[use]()

    @pytest.mark.parametrize("rounding", ["nearest", "float_reference"])
    def test_an_integer_opcode_is_its_gate(self, rounding):
        # opcode 3 is H, whether given as an int or as GateKind.H, and run and apply_gate agree on it
        as_int = [dump_state(way()) for way in self.ways(rounding, Instruction(3, 1, 1)).values()]
        as_kind = [dump_state(way()) for way in self.ways(rounding, Instruction(GateKind.H, 1, 1)).values()]
        assert as_int == as_kind and as_int[0] == as_int[1]
        assert as_int[0] != dump_state(initial_state(2, ExecConfig(n_qubits=2, rounding=rounding)))


class TestPinnedDigests:
    """Fixed-point end states pinned bit for bit: the first 16 hex digits of
    the sha256 of the raw planes (little-endian int64, the real row first)
    and the overflow flag, per (truncation, nearest, nearest_even) run.

    The runs are every bundled fixture and a seeded 12-qubit, 400-gate,
    30%-controlled circuit, from |0...0> and, to make the flag count, from
    an edge state of min_raw, max_raw and 0 words.  A kernel rewrite must
    keep every pin; the integer kernels must not depend on numpy's SIMD loops.
    """

    PINS = {
        ("bell", 8): ("9dc275e5ccdf3e16", "9dc275e5ccdf3e16", "9dc275e5ccdf3e16"),
        ("bell", 16): ("25afa26bc279026d", "25afa26bc279026d", "25afa26bc279026d"),
        ("bell", 24): ("c21bc0c95ef54441", "8b06af9cc5cbdaa8", "8b06af9cc5cbdaa8"),
        ("ghz4", 8): ("df60c99ed7a3592e", "df60c99ed7a3592e", "df60c99ed7a3592e"),
        ("ghz4", 16): ("9f2e3f5ddac76e8f", "9f2e3f5ddac76e8f", "9f2e3f5ddac76e8f"),
        ("ghz4", 24): ("9094b3eaa9b627a7", "d93c864e909f33bd", "d93c864e909f33bd"),
        ("qft4", 8): ("7fa4117c407391ca", "3d876b6639d5312c", "d219110b9116bdfb"),
        ("qft4", 16): ("2f60e525a028bcef", "4e90e6e4e72bf3f7", "0a070ff2692b4b59"),
        ("qft4", 24): ("74c8732de687344a", "9aa16a3cdbcde04c", "9aa16a3cdbcde04c"),
        ("rot_ladder", 8): ("3f8ec84d2794f770", "ea75197e43848571", "081b6be0af9df17b"),
        ("rot_ladder", 16): ("1bd33431ea82fe11", "0b03b419d7c1b9e1", "3a738ecddf423d3b"),
        ("rot_ladder", 24): ("e42dbb3cf634e7b7", "94693b838e1d37d1", "51d3393343fb6861"),
        ("teleport", 8): ("a42ae3dc857d6ea5", "1f79a40578f6adb4", "1f79a40578f6adb4"),
        ("teleport", 16): ("e4d98da5c28c70f9", "addd115d2d7341f8", "addd115d2d7341f8"),
        ("teleport", 24): ("2e98e3782921d364", "8726e92be3afe307", "8726e92be3afe307"),
        ("seeded12", 8): ("bd5aea9fd4b939ed", "1964599f775546c1", "0545e9bb89388ded"),
        ("seeded12", 16): ("5ecca89b857fe77a", "64ce2832cb43d7f2", "5efcb47f3b350232"),
        ("seeded12", 24): ("6710444ea49ab861", "a09abcebcacb9d8c", "a09abcebcacb9d8c"),
        ("seeded12_edge", 8): ("d3af39c6430894f2", "98714514b3926673", "b81d3ba80603369c"),
        ("seeded12_edge", 16): ("e19e2ea8d92423ec", "1785c23a8e49b0da", "ba651fb760f46bca"),
        ("seeded12_edge", 24): ("cb8949ca0234a9c2", "885df17638e8d06c", "1ff1b7bd679f6498"),
    }

    @staticmethod
    @functools.cache
    def circuit(stem: str):
        if stem.startswith("seeded12"):
            return gates_as_circuit(random_gates(np.random.default_rng(12), 12, 400, 0.3), 12)
        return qbemu.parse(qbemu.fixture_path(f"{stem}.qasm").read_text(encoding="ascii"))

    @pytest.mark.parametrize("stem, bits", list(PINS), ids=str)
    def test_end_state_and_flag_are_pinned(self, stem, bits):
        circuit = self.circuit(stem)
        got = []
        for mode in MODES:
            config = ExecConfig(n_qubits=12, imm_bits=8, data_bits=bits, rounding=mode)
            initial = None
            if stem.endswith("_edge"):
                initial = edge_fixed_state(np.random.default_rng(bits), 12, config.fixed_format)
            state = run(compile_circuit(circuit, config), config, initial=initial)
            got.append((hashlib.sha256(state.raw.astype("<i8").tobytes()).hexdigest()[:16], state.overflow))
        # only the edge start saturates
        assert got == [(pin, stem.endswith("_edge")) for pin in self.PINS[stem, bits]]


class TestFixedVsFloat:
    def test_20_bit_nearest_stays_close(self):
        rng = np.random.default_rng(11)
        from qbemu.metrics import complex_distances, hellinger_fidelity

        for _ in range(5):
            gates = random_gates(rng, 6, 100)
            circuit = gates_as_circuit(gates, 6)
            fixed_cfg = ExecConfig(n_qubits=6, data_bits=20, rounding="nearest", imm_bits=7)
            float_cfg = ExecConfig(n_qubits=6, rounding="float_reference", imm_bits=7)
            fixed = run(compile_circuit(circuit, fixed_cfg), fixed_cfg)
            ref = run(compile_circuit(circuit, float_cfg), float_cfg)
            fid = hellinger_fidelity(fixed.probabilities(), ref.probabilities())
            _, acd = complex_distances(fixed.to_complex(), ref.to_complex())
            assert fid >= 0.999
            assert acd < 0.01


class TestSampling:
    def test_ground_state_all_zero_counts(self):
        state = FloatState(3)
        assert sample_counts(state, 100, seed=1) == {0: 100}

    def test_bell_counts_within_three_sigma(self):
        config = ExecConfig(n_qubits=3, rounding="float_reference")
        state = run(bell_program(config), config)
        shots = 100_000
        counts = sample_counts(state, shots, seed=42)
        assert set(counts) == {0, 7}
        sigma = math.sqrt(shots * 0.25)
        for idx in (0, 7):
            assert abs(counts[idx] - shots / 2) < 3 * sigma

    def test_deterministic_given_seed(self):
        config = ExecConfig(n_qubits=3)
        state = run(bell_program(config), config)
        assert sample_counts(state, 5000, seed=7) == sample_counts(state, 5000, seed=7)

    def test_fixed_state_renormalized_before_sampling(self):
        fmt = FixedPointFormat(10, "nearest")
        re = np.zeros(2, dtype=np.int64)
        re[0] = re[1] = 100  # norm far from 1
        state = FixedState(1, fmt, re, np.zeros(2, dtype=np.int64))
        counts = sample_counts(state, 10_000, seed=3)
        assert sum(counts.values()) == 10_000
        assert set(counts) == {0, 1}

    def test_all_zero_state_rejected(self):
        fmt = FixedPointFormat(10, "nearest")
        state = FixedState(1, fmt, np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))
        with pytest.raises(EngineError, match="all-zero"):
            sample_counts(state, 10, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_sum_rejected(self, bad):
        state = FloatState(1, np.array([bad, 0.5]))
        with pytest.raises(EngineError, match=f"^cannot sample from a state whose probability sum is {bad}$"):
            sample_counts(state, 10, seed=0)

    def test_positive_shots_required(self):
        with pytest.raises(ValueError):
            sample_counts(FloatState(1), 0)


class TestDumps:
    def test_float_dump_round_trip(self):
        rng = np.random.default_rng(12)
        state = random_float_state(rng, 3)
        re, im = np.loadtxt(io.StringIO(dump_state(state)), unpack=True)
        assert np.array_equal(re + 1j * im, state.amp)

    def test_fixed_dump_round_trip(self):
        fmt = FixedPointFormat(20, "nearest")
        rng = np.random.default_rng(13)
        re = rng.integers(-1000, 1000, size=4).astype(np.int64)
        im = rng.integers(-1000, 1000, size=4).astype(np.int64)
        state = FixedState(2, fmt, re, im)
        again = np.loadtxt(io.StringIO(dump_state(state)), dtype=np.int64)
        assert np.array_equal(again, np.stack((re, im), axis=1))

    def test_dump_is_index_ascending_re_im(self):
        state = FloatState(1, np.array([1.0, 0 - 0.5j]))
        lines = dump_state(state).splitlines()
        assert lines[0].split() == ["1.0", "0.0"]
        assert lines[1].split() == ["0.0", "-0.5"]
