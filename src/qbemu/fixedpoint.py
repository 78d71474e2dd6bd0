"""Two's-complement fixed-point words with two integer bits.

Values are plain integers with a virtual LSB weight of ``2**-(n-2)`` for an
``n``-bit word, covering [-2, 2).  :func:`round_shift` is the one rounding
core: it discards the low bits of exact wide products under one of three
rounding strategies, for the engine's int64 kernels (whose saturating
arithmetic with a sticky overflow flag is ``engine._FixedAlu``) and for
:func:`from_real`, which quantizes a float and saturates it to the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Rounding(str, Enum):
    TRUNCATION = "truncation"
    NEAREST = "nearest"
    NEAREST_EVEN = "nearest_even"


@dataclass(frozen=True)
class FixedPointFormat:
    """Word width and rounding strategy; fractional width is ``total_bits - 2``."""

    total_bits: int
    rounding: Rounding = Rounding.NEAREST

    def __post_init__(self) -> None:
        if self.total_bits < 3:
            raise ValueError("need at least 3 bits (2 integer + 1 fractional)")
        if not isinstance(self.rounding, Rounding):
            object.__setattr__(self, "rounding", Rounding(self.rounding))

    @property
    def fractional_bits(self) -> int:
        return self.total_bits - 2

    @property
    def lsb(self) -> float:
        return 2.0 ** -self.fractional_bits

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1


def round_shift(wide, shift: int, mode: Rounding, bias=None, out=None):
    """Drop the low ``shift`` (>= 1) bits of exact products and return them.

    ``wide`` is an int64 array, rounded in place, or a Python int.  Each mode
    is one bias added before the arithmetic shift: none for truncation,
    ``half - [wide < 0]`` for nearest (ties away from zero), and
    ``half - 1 + lsb(quotient)`` for nearest-even.  ``wide >> 63`` is
    ``-[wide < 0]`` (for ``|wide| < 2**63``) without a bool-to-int64 cast.

    ``bias`` is an int64 buffer that receives the bias in place of a
    temporary.  Under nearest rounding it may be shaped like ``wide[0]``:
    then ``wide[0]``'s bias rounds every ``wide[i]``, which is exact when
    each has the signs of ``wide[0]``, as products of one operand by nonzero
    constants of one sign do.  ``out``, an int64 array or an int32 one that
    holds the result, receives the result in place of ``wide``, so that the
    last shift also writes it where it goes.
    """
    if mode is Rounding.NEAREST:
        signs = wide if bias is None or bias.ndim == wide.ndim else wide[0]
        bias = signs >> 63 if bias is None else np.right_shift(signs, 63, out=bias)
        bias += 1 << (shift - 1)
        wide += bias
    elif mode is Rounding.NEAREST_EVEN:
        bias = wide >> shift if bias is None else np.right_shift(wide, shift, out=bias)
        bias &= 1
        bias += (1 << (shift - 1)) - 1
        wide += bias
    if out is not None:
        return np.right_shift(wide, shift, out=out)
    wide >>= shift
    return wide


def from_real(x: float, fmt: FixedPointFormat) -> int:
    """The raw word nearest ``x`` under the format's rounding mode.

    ``x`` is exactly ``num / 2**k``, so its raw value is ``num`` shifted by
    ``fractional_bits - k``, rounded where that drops bits.  Inputs beyond
    [-2, 2) saturate to ``min_raw`` or ``max_raw``.
    """
    num, den = x.as_integer_ratio()
    shift = den.bit_length() - 1 - fmt.fractional_bits
    raw = num << -shift if shift <= 0 else round_shift(num, shift, fmt.rounding)
    return min(max(raw, fmt.min_raw), fmt.max_raw)


def range_error(values, total_bits: int) -> str | None:
    """None if ``values`` (an int or an int array) are ``total_bits``-bit words, else
    the message naming the first outside the range, for callers to raise in their
    own error class after their own position prefix."""
    lo, hi = -(1 << (total_bits - 1)), (1 << (total_bits - 1)) - 1
    if isinstance(values, np.ndarray):
        outside = ((values < lo) | (values > hi)).ravel()
        if not outside.any():
            return None
        values = values.ravel()[outside.argmax()]
    elif lo <= values <= hi:
        return None
    return f"value {values} outside the {total_bits}-bit range [{lo}, {hi}]"

