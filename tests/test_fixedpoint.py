"""Fixed-point quantization, the rounding core and the engine's saturating ALU
against an exact-rational oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qbemu.compiler import AngleTable, Instruction
from qbemu.engine import EngineError, FixedState, _FixedAlu, apply_gate
from qbemu.fixedpoint import (
    FixedPointFormat,
    Rounding,
    from_real,
    round_shift,
)
from qbemu.gates import GateKind

from _helpers import oracle_mul_raw, oracle_quantize, oracle_round

N4_TRUNC = FixedPointFormat(4, Rounding.TRUNCATION)
N4_NEAR = FixedPointFormat(4, Rounding.NEAREST)
N4_EVEN = FixedPointFormat(4, Rounding.NEAREST_EVEN)
N20 = FixedPointFormat(20, Rounding.NEAREST)


def fx(value: float, fmt: FixedPointFormat) -> np.ndarray:
    """``value`` quantized into a one-element raw array, as kernels hold words."""
    return np.array([from_real(value, fmt)], dtype=np.int64)


def real(raw, fmt: FixedPointFormat) -> float:
    return int(np.asarray(raw).item()) * fmt.lsb


def mul(a: int, b: int, fmt: FixedPointFormat) -> tuple[int, bool]:
    """One kernel multiplier output ``a * b`` from the engine's ALU, and its flag."""
    alu = _FixedAlu([fmt])
    return int(alu.mul(np.array([a], dtype=np.int64), (b,))[0]), alu.overflow


class TestFormat:
    def test_ranges(self):
        assert N20.fractional_bits == 18
        assert N20.min_raw == -(1 << 19)
        assert N20.max_raw == (1 << 19) - 1

    def test_too_narrow(self):
        with pytest.raises(ValueError):
            FixedPointFormat(2)

    def test_rounding_coerced_from_string(self):
        assert FixedPointFormat(8, "truncation").rounding is Rounding.TRUNCATION


class TestFromReal:
    def test_inv_sqrt2_20bit_nearest(self):
        # frozen from the exact-rational oracle: round(0.70710678... * 2^18) = 185364
        raw = from_real(2.0**-0.5, N20)
        assert raw == oracle_quantize(2.0**-0.5, N20) == 185364
        assert abs(real(raw, N20) - 2.0**-0.5) <= 2.0**-19

    def test_zero(self):
        for fmt in (N4_TRUNC, N4_NEAR, N4_EVEN, N20):
            assert from_real(0.0, fmt) == 0

    def test_minus_one_exact(self):
        raw = from_real(-1.0, N20)
        assert raw == -(1 << 18) == -262144
        assert real(raw, N20) == -1.0

    def test_saturation_flags(self):
        # out-of-range inputs clip to the word's ends, where the oracle does not
        assert from_real(2.5, N20) == N20.max_raw < oracle_quantize(2.5, N20)
        assert from_real(-2.5, N20) == N20.min_raw > oracle_quantize(-2.5, N20)
        # -2.0 is representable, 2.0 is not
        assert from_real(-2.0, N20) == N20.min_raw == oracle_quantize(-2.0, N20)
        assert from_real(2.0, N20) == N20.max_raw < oracle_quantize(2.0, N20)

    def test_error_bounds_by_mode(self):
        rng = np.random.default_rng(7)
        for mode, bound in [
            (Rounding.TRUNCATION, 2.0**-18),
            (Rounding.NEAREST, 2.0**-19),
            (Rounding.NEAREST_EVEN, 2.0**-19),
        ]:
            fmt = FixedPointFormat(20, mode)
            for x in rng.uniform(-1.99, 1.99, size=500):
                raw = from_real(float(x), fmt)
                assert raw == oracle_quantize(float(x), fmt)
                assert abs(real(raw, fmt) - x) <= bound

    def test_quantization_idempotent(self):
        rng = np.random.default_rng(11)
        for fmt in (N4_TRUNC, N20, FixedPointFormat(13, Rounding.NEAREST_EVEN)):
            raws = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=200)
            for raw in raws:
                assert from_real(real(raw, fmt), fmt) == raw


class TestAdd:
    """Kernels add with numpy and saturate through ``_FixedAlu.sat``."""

    def test_simple(self):
        alu = _FixedAlu([N20])
        assert real(alu.sat(fx(0.5, N20) + fx(0.25, N20)), N20) == 0.75
        assert not alu.overflow

    def test_saturates_with_flag(self):
        alu = _FixedAlu([N20])
        r = alu.sat(fx(1.9, N20) + fx(1.9, N20))
        assert r[0] == N20.max_raw and alu.overflow

    def test_additive_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.integers(N20.min_raw + 1, N20.max_raw, size=100)
        alu = _FixedAlu([N20])
        assert np.all(alu.sat(a + alu.neg(a.copy())) == 0)
        assert not alu.overflow

    def test_format_mismatch(self):
        table = AngleTable(N4_NEAR)
        table.intern(0.5)
        with pytest.raises(EngineError, match="angle table format does not match state format"):
            apply_gate(FixedState(1, N20), Instruction(GateKind.RY, 0, 0, 0), table)

    def test_sticky_flag_propagates(self):
        alu = _FixedAlu([N20])
        bad = alu.sat(np.array([N20.max_raw + 1], dtype=np.int64))
        assert alu.overflow
        alu.sat(bad + fx(-1.0, N20))  # in range: the flag stays set
        assert alu.overflow
        state = FixedState(1, N20)
        state.overflow = True
        apply_gate(state, Instruction(GateKind.H, 0, 0))
        assert state.overflow

    def test_sub_exact_and_at_min_edge(self):
        alu = _FixedAlu([N20])
        assert real(alu.sat(fx(0.5, N20) - fx(0.75, N20)), N20) == -0.25
        rng = np.random.default_rng(13)
        a = rng.integers(N20.min_raw, N20.max_raw + 1, size=100)
        b = rng.integers(N20.min_raw + 1, N20.max_raw + 1, size=100)
        assert np.array_equal(alu.sat(a - b), alu.sat(a + alu.neg(b.copy())))
        # direct subtraction handles b == min_raw, where negation alone saturates
        alu = _FixedAlu([N20])
        r = alu.sat(np.array([0], dtype=np.int64) - N20.min_raw)
        assert r[0] == N20.max_raw and alu.overflow


class TestNegate:
    def test_simple(self):
        alu = _FixedAlu([N20])
        assert real(alu.neg(fx(0.75, N20)), N20) == -0.75
        assert alu.neg(fx(0.0, N20))[0] == 0
        assert not alu.overflow

    def test_min_raw_saturates(self):
        alu = _FixedAlu([N20])
        r = alu.neg(np.array([N20.min_raw], dtype=np.int64))
        assert r[0] == N20.max_raw and alu.overflow


class TestMul:
    def test_quarter_lsb_example(self):
        # 0.75 * 0.75 = 0.5625 with LSB 0.25: truncation and nearest both 0.50
        for fmt in (N4_TRUNC, N4_NEAR):
            raw, _ = mul(from_real(0.75, fmt), from_real(0.75, fmt), fmt)
            assert real(raw, fmt) == 0.5

    def test_halfway_tie(self):
        # 0.5 * 1.25 = 0.625 is exactly between 0.50 and 0.75
        assert real(mul(from_real(0.5, N4_NEAR), from_real(1.25, N4_NEAR), N4_NEAR)[0], N4_NEAR) == 0.75
        assert real(mul(from_real(0.5, N4_EVEN), from_real(1.25, N4_EVEN), N4_EVEN)[0], N4_EVEN) == 0.5

    def test_negative_tie_away_from_zero(self):
        # -0.625 rounds to -0.75 away from zero, to -0.50 under ties-to-even
        assert real(mul(from_real(-0.5, N4_NEAR), from_real(1.25, N4_NEAR), N4_NEAR)[0], N4_NEAR) == -0.75
        assert real(mul(from_real(-0.5, N4_EVEN), from_real(1.25, N4_EVEN), N4_EVEN)[0], N4_EVEN) == -0.5

    def test_zero_absorbs(self):
        for fmt in (N4_TRUNC, N4_NEAR, N4_EVEN):
            for x in (-1.75, -0.25, 0.25, 1.5):
                assert mul(from_real(x, fmt), from_real(0.0, fmt), fmt)[0] == 0

    def test_against_exact_oracle(self):
        rng = np.random.default_rng(23)
        for mode in Rounding:
            fmt = FixedPointFormat(12, mode)
            for _ in range(500):
                a = int(rng.integers(-(1 << 9), 1 << 9))
                b = int(rng.integers(-(1 << 9), 1 << 9))
                assert mul(a, b, fmt) == (oracle_mul_raw(a, b, fmt), False)

    def test_overflow_saturates(self):
        raw, overflow = mul(from_real(1.9, N20), from_real(1.9, N20), N20)
        assert raw == N20.max_raw and overflow

    def test_error_bound_truncation_vs_nearest(self):
        rng = np.random.default_rng(29)
        for mode, bound_lsb in [(Rounding.TRUNCATION, 1.0), (Rounding.NEAREST, 0.5), (Rounding.NEAREST_EVEN, 0.5)]:
            fmt = FixedPointFormat(14, mode)
            one = 1 << fmt.fractional_bits
            errs = []
            for _ in range(2500):
                a = int(rng.integers(-one, one))
                b = int(rng.integers(-one, one))
                exact = real(a, fmt) * real(b, fmt)
                errs.append(abs(real(mul(a, b, fmt)[0], fmt) - exact))
            assert max(errs) <= bound_lsb * fmt.lsb + 1e-15


class TestRoundReduce:
    """The rounding core on Python ints and, in place, on int64 arrays."""

    def test_exact_inputs_agree_across_modes(self):
        wides = [-48, -16, 0, 16, 1024]
        for wide in wides:
            results = {mode: round_shift(wide << 4, 4, mode) for mode in Rounding}
            assert set(results.values()) == {wide}
        for mode in Rounding:
            arr = np.array(wides, dtype=np.int64) << 4
            assert round_shift(arr, 4, mode) is arr and arr.tolist() == wides

    def test_truncation_never_exceeds_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            wide = int(rng.integers(-(1 << 30), 1 << 30))
            shift = int(rng.integers(1, 12))
            assert round_shift(wide, shift, Rounding.TRUNCATION) * (1 << shift) <= wide

    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(3000):
            wide = int(rng.integers(-(1 << 40), 1 << 40))
            shift = int(rng.integers(0, 20))
            if shift == 0:  # the core drops at least one bit; nothing to round
                continue
            for mode in Rounding:
                expected = oracle_round(Fraction(wide, 1 << shift), mode)
                assert round_shift(wide, shift, mode) == expected, (wide, shift, mode)
                assert round_shift(np.array([wide]), shift, mode)[0] == expected, (wide, shift, mode)


class TestMeanErrorOrdering:
    def test_nearest_beats_truncation_and_even_is_least_biased(self):
        # Ties are vanishingly rare under uniform sampling at wide formats, so
        # half the sample is constructed to land exactly between two codes.
        rng = np.random.default_rng(41)
        for bits in (8, 12, 16):
            f = bits - 2
            one = 1 << f
            pairs = []
            for _ in range(2000):
                pairs.append((int(rng.integers(1, one)), int(rng.integers(1, one))))
            for _ in range(2000):
                ha = f // 2
                hb = f - 1 - ha
                a = (2 * int(rng.integers(1, 1 << (f - ha - 1))) + 1) << ha
                b = (2 * int(rng.integers(1, 1 << (f - hb - 1))) + 1) << hb
                pairs.append((a, b))
            products = [a * b for a, b in pairs]
            stats = {}
            for mode in Rounding:
                got = round_shift(np.array(products, dtype=np.int64), f, mode).tolist()
                errs = [float(g - Fraction(p, 1 << f)) for g, p in zip(got, products)]
                stats[mode] = (sum(map(abs, errs)) / len(pairs), sum(errs) / len(pairs))
            assert stats[Rounding.TRUNCATION][0] >= stats[Rounding.NEAREST][0]
            assert abs(stats[Rounding.NEAREST_EVEN][1]) <= abs(stats[Rounding.NEAREST][1])

