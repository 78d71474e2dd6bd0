"""State-vector execution engine: gate kernels over amplitude couples.

A gate on target ``t`` couples the pairs ``(i, i + 2**t)`` with bit ``t`` of
``i`` clear; a control keeps the pairs whose control bit is 1.  Reshaping the
state so that target and control bits are axes of length 2 makes all couples
one basic-slice view, the couple tensor: no index arrays.  Both backends walk
it the same way, every gate above 2**14 amplitudes per plane block by block.
A kernel computes a block's outputs from its pre-gate amplitudes, in place
or through block-sized scratch, so the couple order cannot affect the
result and no temporary outgrows a block.

Two interchangeable backends execute the same instruction streams:

* :class:`FloatState` -- double-precision reference, a tensor of one plane,
* :class:`FixedState` -- bit-accurate two's-complement model whose kernels
  follow the three datapath classes (sign/exchange, one-multiplier,
  two-multiplier rotational) and round every multiplier output individually;
  no kernel performs a general 2x2 complex multiply.  Its real and imaginary
  parts are the two planes of its tensor, so each kernel step covers both.
  A walk computes through one saturating ALU, which checks no product by a
  constant in ``(-1, 1]``, as none can leave the range, and keeps every
  kernel temporary in scratch that all its gates reuse.

Measurement statistics can be sampled from either backend.

The ladder
----------

:func:`run_formats` runs one circuit compiled at k fixed-point formats of
one rounding mode in one walk: format ``i``'s state is row ``i`` of a
``(k, 2, 2**n)`` tensor, and every kernel step covers all ``k`` rows,
so the walk pays the per-gate overhead once, not ``k`` times.  :func:`run`
and :func:`apply_gate` are its ``k = 1`` case.  Row ``i`` keeps its own
words, ``f_i``-bit fractions, bounds and sticky flag, and reads its own
table through its own immediates, since each format's table dedups on its
own quantized pairs.  Products by a row constant are rounded in one pass
for all rows: with ``F`` the largest fractional width, row ``i``'s word
``c`` of the constant is multiplied as ``c * 2**d``, ``d = F - f_i``, and
for the integer product ``x`` of a word and ``c`` the biases of all three
roundings at shift ``s``, ``bias_s``, satisfy::

    (x * 2**d + bias_F) >> F  ==  (x + bias_f) >> f

Truncation's bias is 0.  Nearest's is ``2**(s-1) - [x < 0]``: the scaled
sum exceeds ``2**d`` times the unscaled one, a multiple of ``2**d``, by
less than ``2**d``, so no multiple of ``2**F`` lies between them.
Nearest-even's, ``2**(s-1) - 1 + q`` with ``q`` the lowest bit of the
quotient, has the same form, and ``(x * 2**d) >> F == x >> f`` gives the
same ``q``.  So every row rounds exactly as its own format.  Headroom: a
row's words and table entries are in its range, at most ``2**(f+1)`` in
magnitude, so a scaled product is at most ``2**(F+f+2) <= 2**(2F+2)`` --
``2**62`` at 32-bit words, ``F = 30`` -- and at most ``2**61`` for a
quantized sine or cosine (at most ``2**f``); the bias adds less than
``2**F``, inside int64.  The states' planes are int32, which hold every
word; the arithmetic that reads them is int64 (see :class:`_FixedAlu`).

Element passes
--------------

The fixed kernels' cost is their element passes: at 12 qubits one pass
over a couple tensor's 8,192 words takes 2-4 us.  Passes over the whole
couple tensor (a reduction counts as one) and numpy calls per gate class,
under nearest rounding, for one row (``k = 1``)::

    class       passes        calls
    X           1.5           3
    Y           3             6
    Z           1.5           3
    S, SDG      1.25          4
    H           9 (8)         10 (9)
    T, TDG      4.5           10
    RX, RZ      12.5 (11.5)   12 (11)
    RY          12 (11)       11 (10)
    U1          6             11

A ladder of ``k`` rows makes each pass ``k`` times longer with the same
calls.  A range check reads each row's largest and smallest word: through
``argmax``/``argmin`` on a contiguous operand, which cost less than a ufunc
reduction (1.0-1.6 against 1.9-2.2 us over 8,192 words), and by ufunc
reductions on a strided one (Y's), which ``argmax`` would copy.  A rotation rounds its two products with one bias
when every row's sine and cosine are nonzero with one sign (else each
product takes its own: two passes and four calls more).  The counts in
parentheses are for a couple tensor that is one contiguous array, an
uncontrolled gate's on an unblocked state: H and the rotations leave their
results straight in it, with no write-back (the rotations only in a walk
whose words have at most 31 bits).  What the counts leave out is
the couple stride: a half-tensor operation whose target or lower control is
qubit 1-3 walks 2-8-word runs and costs several passes.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .compiler import FLOAT_ENTRY_MAX, AngleTable, CompiledProgram, Instruction, field_error, first_field_error
from .config import MAX_DATA_BITS, MAX_QUBITS, MAX_STATE_BYTES, ExecConfig
from .fixedpoint import FixedPointFormat, Rounding, from_real, range_error, round_shift
from .gates import INV_SQRT2, ROTATIONAL, GateKind

# A fixed-point gate whose couple tensor holds more amplitudes per plane than
# this runs block by block, so its temporaries stay in the L2 cache.  A walk
# of several formats holds at most this many amplitudes per plane over all
# its rows, so it never blocks and its working set is one block's: against a
# run per format, 400-gate walks of five rows took 0.3-0.5x the time at 4-10
# qubits and 0.8x at 12, but 0.95x at 13 and 1.2x at 14 qubits (2-vCPU Xeon,
# 4 MiB L2, numpy 2.4).
_BLOCK = 1 << 14

# The kinds as module names: the kernels test the kind of every gate, and an
# enum class attribute costs several times a global lookup.
X, Y, Z, H, S, SDG, T, TDG, RX, RY, RZ, U1 = GateKind


class EngineError(Exception):
    pass


def _check_state_size(n_qubits: int) -> None:
    """Refuse a state larger than :data:`MAX_STATE_BYTES` before allocating it."""
    if n_qubits > MAX_QUBITS:
        raise EngineError(
            f"a {n_qubits}-qubit state needs 2**{n_qubits} x 16 bytes, "
            f"over the {MAX_STATE_BYTES}-byte state limit"
        )


# ---------------------------------------------------------------------------
# State representations
# ---------------------------------------------------------------------------


class FloatState:
    """Double-precision state vector."""

    __slots__ = ("n_qubits", "amp")

    def __init__(self, n_qubits: int, amp: np.ndarray | None = None):
        _check_state_size(n_qubits)
        self.n_qubits = n_qubits
        if amp is None:
            amp = np.zeros(1 << n_qubits, dtype=complex)
            amp[0] = 1.0
        else:
            amp = np.asarray(amp, dtype=complex)
            if amp.shape != (1 << n_qubits,):
                raise ValueError("amplitude count does not match qubit count")
        self.amp = amp

    def copy(self) -> "FloatState":
        return FloatState(self.n_qubits, self.amp.copy())

    def to_complex(self) -> np.ndarray:
        return self.amp.copy()

    def probabilities(self) -> np.ndarray:
        """``re^2 + im^2`` per amplitude: no complex ``abs``, whose SIMD loops differ in the last bit."""
        p = np.square(self.amp.real)
        p += np.square(self.amp.imag)
        return p


class FixedState:
    """Fixed-point state vector: raw integer real/imaginary parts.

    ``raw`` is one ``(2, 2**n)`` int32 array holding the real plane in row 0
    and the imaginary plane in row 1; ``re`` and ``im`` are views of those
    rows.  A word of at most :data:`MAX_DATA_BITS` = 32 bits fits int32
    exactly, so an amplitude takes 8 bytes; the kernels compute in int64.
    The constructor copies caller-supplied parts, whose raw values must be
    integers in the word's range ``[fmt.min_raw, fmt.max_raw]``.
    ``overflow`` is the sticky saturation flag aggregated over all kernel
    arithmetic applied to this state.
    """

    __slots__ = ("n_qubits", "fmt", "raw", "overflow")

    def __init__(
        self,
        n_qubits: int,
        fmt: FixedPointFormat,
        re: np.ndarray | None = None,
        im: np.ndarray | None = None,
    ):
        if fmt.total_bits > MAX_DATA_BITS:
            raise EngineError(f"{fmt.total_bits}-bit words exceed the {MAX_DATA_BITS}-bit array core")
        _check_state_size(n_qubits)
        self.n_qubits = n_qubits
        self.fmt = fmt
        size = 1 << n_qubits
        if re is None:
            raw = np.zeros((2, size), dtype=np.int32)
            raw[0, 0] = 1 << fmt.fractional_bits
        else:
            re, im = _raw_plane(re), _raw_plane(im)
            if re.shape != (size,) or im.shape != (size,):
                raise ValueError("amplitude count does not match qubit count")
            raw = np.stack((re, im))
            # int32 holds, and the kernels' int64 headroom covers, only in-range words.
            if error := range_error(raw, fmt.total_bits):
                raise EngineError(f"raw {error}")
            raw = raw.astype(np.int32, copy=False)
        self.raw = raw
        self.overflow = False

    @property
    def re(self) -> np.ndarray:
        return self.raw[0]

    @property
    def im(self) -> np.ndarray:
        return self.raw[1]

    def copy(self) -> "FixedState":
        """Independent copy; the range check is not repeated, since this state passed it."""
        clone = object.__new__(FixedState)
        clone.n_qubits, clone.fmt, clone.overflow = self.n_qubits, self.fmt, self.overflow
        clone.raw = self.raw.copy()
        return clone

    def to_complex(self) -> np.ndarray:
        amp = np.empty(self.raw.shape[1], dtype=complex)
        np.multiply(self.re, self.fmt.lsb, out=amp.real)
        np.multiply(self.im, self.fmt.lsb, out=amp.imag)
        return amp

    def probabilities(self) -> np.ndarray:
        """``re^2 + im^2`` per amplitude, read from the raw planes times the lsb."""
        p = self.re * self.fmt.lsb
        p *= p
        im = self.im * self.fmt.lsb
        p += np.multiply(im, im, out=im)
        return p


def _raw_plane(values) -> np.ndarray:
    """``values`` as an array of ints: a signed-int array as given, integral
    floats below ``2**62`` as int64, else exact Python ints, which keep a value
    past int64 to be named.  A value that no int equals (0.9, '3', a NaN),
    which an int64 conversion would change, is refused."""
    plane = np.asarray(values)
    if plane.dtype.kind == "i":
        return plane
    if plane.dtype.kind == "f" and (plane == np.trunc(plane)).all() and (abs(plane) < 2.0**62).all():
        return plane.astype(np.int64)
    flat = plane.ravel().tolist()
    if bad := [x for x in flat if not (isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer())]:
        raise EngineError(f"raw value {bad[0]!r} is not an integer")
    return np.array(list(map(int, flat)), dtype=object).reshape(plane.shape)


State = FloatState | FixedState


def initial_state(n_qubits: int, config: ExecConfig) -> State:
    """|0...0> on the configured backend; both constructors check the state size."""
    if config.is_float_reference:
        return FloatState(n_qubits)
    return FixedState(n_qubits, config.fixed_format)


# ---------------------------------------------------------------------------
# Saturating fixed-point arithmetic over arrays
# ---------------------------------------------------------------------------


class _FixedAlu:
    """Saturating kernel arithmetic over the rows of a ladder, with a sticky
    flag per row; one serves a whole walk.

    Row ``i`` holds words of ``fmts[i]``, the formats all of one rounding
    mode, and every operand holds in-range words with the rows on axis 0.
    Kernels add and subtract with numpy into the ALU's scratch and pass the
    results through :meth:`sat`; :meth:`neg` and :meth:`mul` saturate
    themselves.  A constant is one raw word per row, multiplied as a column
    scaled by ``2**(shift - f)``, where ``f`` is the row's fractional width,
    so that one bias and one ``>> shift`` round every row as its own format
    would.  With ``one = 2**f``, a word ``w`` is safe, its products with all
    in-range words ``x`` rounding into the range, exactly when
    ``-one < w <= one``: if ``|w| < one``, ``|x w| / one <= 2**(f+1) - 2``,
    and ``w = one`` is exact; ``w = -one`` takes ``min_raw`` out of range,
    and ``|w| > one`` takes ``max_raw`` or ``min_raw`` out under every
    rounding.  So a row's 1/sqrt(2), ``inv_sqrt2[i]``, is never checked, nor
    is a constant safe in every row: in a compiled table only -1.0 is not.

    The states' planes are int32 and the scratch is int64: every product,
    every sum of two words and every negation reads the planes as int64
    (``dtype=np.int64``), since int32 would wrap a product, and at 32 bits
    a sum or ``-min_raw``.  A rotation's sums are of products in
    ``[min_raw, max_raw]`` (a safe constant's product stays in the range, an
    unsafe one's is clipped) or their negations, in ``[-max_raw, -min_raw]``;
    so at ``b <= 31`` bits they lie in ``[-2**31, 2**31 - 1]`` and may go
    straight to an int32 state (``narrow``), while a walk with a 32-bit row
    sums in scratch.
    """

    def __init__(self, fmts, tables=None):
        self.mode, self.shift = fmts[0].rounding, max(fmt.fractional_bits for fmt in fmts)
        self.narrow = max(fmt.total_bits for fmt in fmts) <= 31
        self.lo, self.hi = [fmt.min_raw for fmt in fmts], [fmt.max_raw for fmt in fmts]
        self.flags = [False] * len(fmts)
        self.tables = tables or [()] * len(fmts)
        self.inv_sqrt2 = tuple(map(_inv_sqrt2, fmts))
        self._one = [1 << fmt.fractional_bits for fmt in fmts]
        self._scale = [1 << (self.shift - fmt.fractional_bits) for fmt in fmts]
        self._rows = range(len(fmts))
        self._flat = np.empty(0, dtype=np.int64)
        self._columns, self._pairs = {}, {}

    @property
    def overflow(self) -> bool:
        """Whether any row saturated."""
        return True in self.flags

    def _column(self, words: tuple, ndim: int) -> np.ndarray | int:
        """The row constant ``words``, each row's word times its ``2**(shift - f)``:
        for one row its int, which numpy multiplies an array by faster than by
        a broadcast array; for several, a column that broadcasts over an
        ``ndim``-axis operand, cached."""
        if len(words) == 1:
            return words[0]
        key = words, ndim
        if (column := self._columns.get(key)) is None:
            column = np.array(list(map(operator.mul, words, self._scale)), dtype=np.int64)
            column = self._columns[key] = column.reshape((len(words),) + (1,) * (ndim - 1))
        return column

    def _all_safe(self, words: tuple) -> bool:
        """Whether each row's word of ``words`` is safe: ``-one < w <= one``."""
        return all(-one < w <= one for w, one in zip(words, self._one))

    def _pair(self, imm: tuple) -> tuple[tuple, tuple, bool, bool, bool]:
        """The rows' sines and cosines, row ``i`` reading entry ``imm[i]`` of its
        own table, whether each is safe in every row, and whether one bias
        rounds both products: truncation has no bias, and under nearest
        rounding constants of one sign give both products one sign, so one
        serves when every row's pair has one sign; cached."""
        if (pair := self._pairs.get(imm)) is None:
            s, c = (tuple(map(int, words)) for words in zip(*map(operator.getitem, self.tables, imm)))
            one_bias = self.mode is Rounding.TRUNCATION or (
                self.mode is Rounding.NEAREST and min(map(operator.mul, s, c)) > 0
            )
            pair = self._pairs[imm] = s, c, self._all_safe(s), self._all_safe(c), one_bias
        return pair

    def scratch(self, count: int, shape: tuple) -> np.ndarray:
        """``count`` stacked int64 buffers of ``shape``, a view of one flat
        buffer that every gate of the walk reuses, so that no kernel allocates
        or page-faults in its temporaries."""
        size = count * math.prod(shape)
        if self._flat.size < size:
            self._flat = np.empty(size, dtype=np.int64)
        return self._flat[:size].reshape(count, *shape)

    # The range checks read each row's largest and smallest word.  A contiguous
    # operand's rows are read through argmax/argmin, which cost less than the
    # ufunc reductions; a strided operand by the reductions, as argmax would
    # copy it.  Only a clip, which is rare, reads the rows again to flag them.

    def _outside(self, raw: np.ndarray, low: bool = True) -> bool:
        """Whether some row of ``raw`` holds a word above its ``max_raw`` or, if
        ``low``, below its ``min_raw``."""
        if raw.flags.c_contiguous:
            m = raw.reshape(len(self.hi), -1)
            for r in self._rows:
                row = m[r]
                if row.item(row.argmax()) > self.hi[r] or low and row.item(row.argmin()) < self.lo[r]:
                    return True
            return False
        axes = tuple(range(1, raw.ndim))
        if any(map(operator.gt, np.maximum.reduce(raw, axis=axes).tolist(), self.hi)):
            return True
        return low and any(map(operator.lt, np.minimum.reduce(raw, axis=axes).tolist(), self.lo))

    def _clip(self, raw: np.ndarray) -> None:
        """Clip each row of ``raw`` to its range in place, raising the flag of each row clipped."""
        rows = raw.reshape(len(self.hi), -1) if raw.flags.c_contiguous else raw
        axes = tuple(range(1, rows.ndim))
        top, bottom = np.maximum.reduce(rows, axis=axes).tolist(), np.minimum.reduce(rows, axis=axes).tolist()
        self.flags = [f or t > h or b < l for f, t, b, h, l in zip(self.flags, top, bottom, self.hi, self.lo)]
        bounds = np.array([self.lo, self.hi]).reshape((2, len(self.lo)) + (1,) * (raw.ndim - 1))
        np.clip(raw, *bounds, out=raw)

    def sat(self, raw: np.ndarray) -> np.ndarray:
        """Clip each row of ``raw`` to its range in place, flagging each row clipped."""
        if self._outside(raw):
            self._clip(raw)
        return raw

    def neg(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``-raw`` into ``out``, or in place: an in-range word leaves the range
        only at ``-min_raw``, upward, so each row's largest word finds a clip."""
        out = np.negative(raw, out=raw if out is None else out, dtype=np.int64)
        if self._outside(out, low=False):
            self._clip(out)
        return out

    def mul(self, a: np.ndarray, k: tuple, bias: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Rounded products of ``a`` by the row constant ``k``, formed in ``a``
        and left in ``out`` (or ``a``); ``bias``, if given, holds the rounding
        bias.  The range check is skipped for a constant safe in every row."""
        wide = round_shift(np.multiply(a, self._column(k, a.ndim), out=a), self.shift, self.mode, bias, out)
        return wide if k is self.inv_sqrt2 or self._all_safe(k) else self.sat(wide)

    def mul_pair(self, a: np.ndarray, imm: tuple) -> tuple[np.ndarray, np.ndarray]:
        """``a * c`` and ``a * s`` rounded, in stacked scratch, for the rows'
        ``(s, c)`` at ``imm``: where one bias serves both, one ``round_shift``
        rounds the pair."""
        s, c, s_safe, c_safe, one_bias = self._pair(imm)
        w = self.scratch(3, a.shape)
        (p, q, bias), pair = w, w[:2]
        np.multiply(a, self._column(c, a.ndim), out=p, dtype=np.int64)
        np.multiply(a, self._column(s, a.ndim), out=q, dtype=np.int64)
        for wide in (pair,) if one_bias else (p, q):
            round_shift(wide, self.shift, self.mode, bias)
        if not c_safe:
            self.sat(p)
        if not s_safe:
            self.sat(q)
        return p, q


@functools.cache
def _inv_sqrt2(fmt: FixedPointFormat) -> int:
    """``fmt``'s 1/sqrt(2) word."""
    return from_real(INV_SQRT2, fmt)


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------
# One walk serves both backends on a ``(rows, planes, 2**n)`` tensor:
# ``_couple_tensor`` views a float state as one row of one plane
# (``amp[None, None]``) and fixed states as rows of two planes (``raw``).


# Indices of a couple tensor and of arrays shaped like it, prebuilt because
# numpy reads a constant tuple faster than one built at each gate: the low and
# high amplitudes of the couples, the real and imaginary planes, and the planes
# swapped (whole, and of the low or high amplitudes).
_LOW, _HIGH = (Ellipsis, 0, slice(None)), (Ellipsis, 1, slice(None))
_RE, _IM = (slice(None), 0), (slice(None), 1)
_SWAP = (slice(None), slice(None, None, -1))
_SWAP_LOW, _SWAP_HIGH = _SWAP + _LOW, _SWAP + _HIGH


def _couple_tensor(raw: np.ndarray, target: int, control: int | None) -> np.ndarray:
    """Every row and plane of the couples as one ``(rows, planes, ..., 2, inner)``
    view: axis -2 is the target bit, and a control axis is fixed at 1."""
    rows, planes = raw.shape[:2]
    if control is None:
        return raw.reshape(rows, planes, -1, 2, 1 << target)
    hi, lo = max(target, control), min(target, control)
    v = raw.reshape(rows, planes, -1, 2, 1 << (hi - 1 - lo), 2, 1 << lo)
    if target == lo:
        return v[:, :, :, 1]
    return v[:, :, :, :, :, 1].swapaxes(3, 4)


def _blocks(v: np.ndarray):
    """Sub-views of a couple tensor ``v`` larger than ``_BLOCK`` amplitudes per
    plane and row, each with at most ``_BLOCK``; the target axis is never split."""
    row = v[0, 0].size
    for axis, size in enumerate(v.shape[2:-2], 2):
        row //= size  # amplitudes per plane and row under one index of ``axis``
        if row <= _BLOCK:
            chunk = _BLOCK // row
            for lead in np.ndindex(v.shape[2:axis]):
                for start in range(0, size, chunk):
                    yield v[(slice(None), slice(None), *lead, slice(start, start + chunk))]
            return
    chunk = _BLOCK >> 1  # one couple row is over the block: split the inner axis
    for lead in np.ndindex(v.shape[2:-2]):
        for start in range(0, v.shape[-1], chunk):
            yield v[(slice(None), slice(None), *lead, Ellipsis, slice(start, start + chunk))]


def _float_block(v: np.ndarray, kind: GateKind, sincos, t: np.ndarray) -> None:
    """Apply one gate to a block ``v`` of the complex couple tensor via a scratch
    ``t`` shaped like ``v``.  Every product is by a scalar with a zero part or
    with parts of +-1, so each of its parts rounds once and no fused
    multiply-add, which numpy's SIMD loops may use, can change it: the
    result is the same on every CPU, in place or not."""
    a, b, ta, tb = v[_LOW], v[_HIGH], t[_LOW], t[_HIGH]
    if kind is X:
        ta[...] = a
        a[...], b[...] = b, ta
    elif kind is Y:  # (a, b) -> (-i b, i a)
        np.multiply(-1j, b, out=ta)
        np.multiply(1j, a, out=b)
        a[...] = ta
    elif kind is Z:
        np.negative(b, out=b)
    elif kind in (S, SDG):  # products by 0 and +-1 are exact, so in place
        b *= 1j if kind is S else -1j
    elif kind is H:  # (a, b) -> k (a + b, a - b)
        np.add(a, b, out=ta)
        np.subtract(a, b, out=tb)
        np.multiply(t, INV_SQRT2, out=v)
    elif kind in (T, TDG):  # b' = k (1 +- i) b; products by +-1 are exact
        np.multiply(1 + 1j if kind is T else 1 - 1j, b, out=tb)
        np.multiply(tb, INV_SQRT2, out=b)
    elif kind in (RZ, U1):  # a' = c a - (i s) a (RZ only), b' = c b + (i s) b
        s, c = sincos
        if kind is RZ:
            np.multiply(1j * s, a, out=ta)
            a *= c
            a -= ta
        np.multiply(1j * s, b, out=tb)
        b *= c
        b += tb
    else:  # RX: a' = c a - i s b, b' = c b - i s a; RY: a' = c a - s b, b' = c b + s a
        s, c = sincos
        np.multiply(1j * s if kind is RX else s, v[..., ::-1, :], out=t)
        np.multiply(c, v, out=v)
        if kind is RY:
            np.negative(tb, out=tb)
        v -= t


def _fixed_block(v: np.ndarray, kind: GateKind, alu: _FixedAlu, imm: tuple) -> None:
    """Apply one gate to a block ``v`` of the couple tensor, row ``i`` reading
    its table at ``imm[i]``.

    ``v[_LOW]``/``v[_HIGH]`` are the low/high couple amplitudes of every row
    and plane (``v[_RE]`` real, ``v[_IM]`` imaginary), and flipping axis 1
    swaps the planes.  Arithmetic runs on contiguous scratch whose results
    are written back once.
    """
    if kind in ROTATIONAL:  # negating a product in ``q`` is exact: only the sums saturate
        if kind is U1:
            v = v[_HIGH]
        p, q = alu.mul_pair(v, imm)
        out = v if alu.narrow and v.flags.c_contiguous else p  # sums go straight to a contiguous state that holds them
        if kind is RX:  # a' = c a - i s b, b' = c b - i s a
            np.negative(q[_RE], out=q[_RE])
            np.add(p[_LOW], q[_SWAP_HIGH], out=out[_LOW])
            np.add(p[_HIGH], q[_SWAP_LOW], out=out[_HIGH])
        elif kind is RY:  # a' = c a - s b, b' = c b + s a
            np.subtract(p[_LOW], q[_HIGH], out=out[_LOW])
            np.add(p[_HIGH], q[_LOW], out=out[_HIGH])
        elif kind is RZ:  # a' = (c - i s) a, b' = (c + i s) b
            np.negative(q[_HIGH], out=q[_HIGH])
            np.add(p[_RE], q[_IM], out=out[_RE])
            np.subtract(p[_IM], q[_RE], out=out[_IM])
        else:  # U1: b' = (c + i s) b
            np.subtract(p[_RE], q[_IM], out=out[_RE])
            np.add(p[_IM], q[_RE], out=out[_IM])
        alu.sat(out)
        if out is p:
            v[...] = p
        return
    a, b = v[_LOW], v[_HIGH]
    if kind is X:
        t = alu.scratch(1, a.shape)[0]
        t[...] = a
        a[...] = b
        b[...] = t
    elif kind is Y:  # (a, b) -> (-i b, i a) = ((bi, -br), (-ai, ar))
        t = alu.scratch(1, v.shape)[0]
        t[_LOW], t[_HIGH] = b[_SWAP], a  # (bi, br), (ar, ai): the words to negate are t[_IM]
        alu.neg(t[_IM])
        a[...], b[...] = t[_LOW], t[_SWAP_HIGH]
    elif kind is Z:
        b[...] = alu.neg(b, out=alu.scratch(1, b.shape)[0])
    elif kind in (S, SDG):  # b -> i b = (-bi, br) or -i b = (bi, -br)
        planes, j = b.swapaxes(0, 1), 0 if kind is S else 1  # plane j of b', t[j], takes the negation
        t = alu.scratch(2, planes.shape[1:])
        alu.neg(planes[1 - j], out=t[j])
        t[1 - j] = planes[j]
        planes[...] = t
    elif kind is H:
        t, bias = alu.scratch(2, v.shape)
        np.add(a, b, out=t[_LOW], dtype=np.int64)
        np.subtract(a, b, out=t[_HIGH], dtype=np.int64)
        out = v if v.flags.c_contiguous else t  # the rounding's last shift writes a contiguous state
        alu.mul(alu.sat(t), alu.inv_sqrt2, bias, out=out)
        if out is t:
            v[...] = t
    else:  # T, TDG
        (rb, ib), (t, bias) = b.swapaxes(0, 1), alu.scratch(2, b.shape)
        if kind is T:  # b' = k (rb - ib) + i k (rb + ib)
            np.subtract(rb, ib, out=t[_RE], dtype=np.int64)
            np.add(rb, ib, out=t[_IM], dtype=np.int64)
        else:  # b' = k (rb + ib) + i k (ib - rb)
            np.add(rb, ib, out=t[_RE], dtype=np.int64)
            np.subtract(ib, rb, out=t[_IM], dtype=np.int64)
        b[...] = alu.mul(alu.sat(t), alu.inv_sqrt2, bias)


def _alu(states: list, tables: list) -> _FixedAlu | None:
    """The one table check, of backend and format (an empty table is read by no
    gate), then of every entry as a table file's, before int64 holds it: the
    fixed states' ALU over their tables' entries, or None for a float state."""
    if isinstance(states[0], FixedState):
        for state, table in zip(states, tables):
            if table and table.fmt != state.fmt:
                raise EngineError("fixed backend requires a fixed-point angle table" if table.fmt is None
                                  else "angle table format does not match state format")
            values, fmt = [x for pair in table.entries for x in pair] if table else (), state.fmt
            if bad := [x for x in values if not isinstance(x, (int, np.integer))]:
                raise EngineError(f"angle table value {bad[0]!r} is not an integer")
            if values and not fmt.min_raw <= min(values) <= max(values) <= fmt.max_raw:
                raise EngineError("angle table " + next(filter(None, (range_error(x, fmt.total_bits) for x in values))))
        return _FixedAlu([state.fmt for state in states], [table.entries if table else () for table in tables])
    [table] = tables
    entries = table.entries if table else ()
    if entries and table.fmt is not None:
        raise EngineError("float backend requires a float-reference angle table")
    if bad := [x for pair in entries for x in pair if not math.isfinite(x)]:
        raise EngineError(f"angle table value {bad[0]!r} is not finite")
    if bad := [x for pair in entries for x in pair if abs(x) > FLOAT_ENTRY_MAX]:
        raise EngineError(f"angle table value {bad[0]!r} out of range for float-reference mode")
    return None


_KINDS = tuple(GateKind)


def _execute(states: list, rows, tables: list) -> list:
    """Apply checked ``(opcode, target, control, imm)`` ``rows`` to ``states``
    in place, each block by block, and return them: one float state, or fixed
    states of one rounding mode as the rows of one tensor, where state ``i``
    reads ``tables[i]`` at ``imm[i]``.  The tables are checked once, the
    fixed rows' kernels share one ALU, and each state takes its row's sticky
    flag at the end.  The loop body is the one per-instruction step, where
    a trace record or an error bound (ROADMAP items 2 and 3) hooks in.
    """
    alu = _alu(states, tables)
    if alu is None:
        planes, pairs = states[0].amp[None, None], tables[0].entries if tables[0] else ()
    elif len(states) == 1:  # one state's planes are the tensor's one row, updated in place
        planes = states[0].raw[None]
    else:  # the states read their rows of the stacked tensor from here on, freeing their own planes
        planes = np.stack([state.raw for state in states])
        for state, raw in zip(states, planes):
            state.raw = raw
        # scratch at its largest at once: grown gate by gate, its freed buffers raise the peak RSS
        alu.scratch(3, (planes.size,))
    limit = _BLOCK * len(planes) * planes.shape[1]  # a block's amplitudes over every row and plane
    for opcode, target, control, imm in rows:
        kind = _KINDS[opcode]
        v = _couple_tensor(planes, target, None if control == target else control)
        blocks = (v,) if v.size <= limit else _blocks(v)
        if alu is not None:
            for block in blocks:
                _fixed_block(block, kind, alu, imm)
            continue
        sincos, scratch = pairs[imm[0]] if kind in ROTATIONAL else None, None
        for block in blocks:  # a float gate's blocks share one shape, so one scratch
            scratch = np.empty_like(block) if scratch is None else scratch
            _float_block(block, kind, sincos, scratch)
    if alu is not None:
        for state, flag in zip(states, alu.flags):
            state.overflow = state.overflow or flag
    return states


def apply_gate(state: State, instr: Instruction, table: AngleTable | None = None) -> State:
    """Apply one decoded instruction in place and return the state, reading ``table`` as :func:`run` does."""
    if instr.opcode in ROTATIONAL and table is None:
        raise EngineError(f"{GateKind(instr.opcode).name} requires an angle table")
    row = (instr.opcode, instr.target, instr.control, instr.imm)
    if error := field_error(*row, state.n_qubits, len(table or ())):
        raise EngineError(error)
    return _execute([state], ((*row[:3], (instr.imm,)),), [table])[0]


def _check_program(program: CompiledProgram, config: ExecConfig) -> None:
    """What :func:`run` refuses in a program before it reads an initial state."""
    if program.used_qubits > config.n_qubits:
        raise EngineError(f"program uses {program.used_qubits} qubits, architecture supports {config.n_qubits}")
    if len(program.table) > 1 << config.imm_bits:
        raise EngineError(f"{len(program.table)} angle pairs, Q={config.imm_bits} allows {1 << config.imm_bits}")


def _rows(ins, imm_columns) -> zip:
    """The walk's ``(opcode, target, control, imm)`` rows of instruction columns
    ``ins``, ``imm`` holding one immediate from each of ``imm_columns``."""
    shared = (col.tolist() for col in (ins.opcode, ins.target, ins.control))
    return zip(*shared, zip(*(col.tolist() for col in imm_columns)))


def run(program: CompiledProgram, config: ExecConfig, initial: State | None = None) -> State:
    """Execute a compiled program from |0...0> by default.

    The instruction columns are range-checked once, raising what
    :func:`apply_gate` raises for the first bad instruction, and then go
    row by row through :func:`_execute`, the per-instruction step.
    """
    n, table, ins = program.used_qubits, program.table, program.instructions
    _check_program(program, config)
    if initial is None:
        state = initial_state(n, config)
    else:
        if initial.n_qubits != n:
            raise EngineError("initial state size does not match program")
        if config.is_float_reference != isinstance(initial, FloatState):
            raise EngineError("initial state backend does not match configuration")
        if isinstance(initial, FixedState) and initial.fmt != config.fixed_format:
            raise EngineError("initial state format does not match configuration")
        state = initial.copy()
    if error := first_field_error(ins, n, len(table)):
        raise EngineError(error[1])
    return _execute([state], _rows(ins, [ins.imm]), [table])[0]


def run_formats(programs: list[CompiledProgram], configs: list[ExecConfig]) -> list[FixedState]:
    """Run ``programs[i]`` on the fixed-point ``configs[i]`` from |0...0> for
    every ``i``, as :func:`run` does, and return the states in that order.

    The programs are one circuit compiled at several formats: their opcode,
    target and control columns must be equal, while each immediate column
    reads its own table.  Formats of one rounding mode run as the rows of
    shared walks (see the module docstring), each holding at most
    ``_BLOCK`` amplitudes per plane over its rows, where one walk costs less
    than a run per row.
    """
    if len(programs) != len(configs) or not programs:
        raise EngineError("run_formats needs one configuration per program, and one program at least")
    for program, config in zip(programs, configs):
        if config.is_float_reference:
            raise EngineError("run_formats runs fixed-point formats; use run for the float reference")
        _check_program(program, config)
        if error := first_field_error(program.instructions, program.used_qubits, len(program.table)):
            raise EngineError(error[1])
    first = programs[0]
    for program in programs[1:]:
        if program.used_qubits != first.used_qubits or not all(
            np.array_equal(getattr(program.instructions, col), getattr(first.instructions, col))
            for col in ("opcode", "target", "control")
        ):
            raise EngineError("run_formats programs differ in qubits or in opcode, target or control columns")
    n, states = first.used_qubits, [None] * len(programs)
    size = max(1, _BLOCK >> n)
    for mode in dict.fromkeys(config.rounding for config in configs):
        group = [i for i, config in enumerate(configs) if config.rounding == mode]
        for walk in (group[k : k + size] for k in range(0, len(group), size)):
            rows = _rows(first.instructions, [programs[i].instructions.imm for i in walk])
            ladder = [FixedState(n, configs[i].fixed_format) for i in walk]
            for i, state in zip(walk, _execute(ladder, rows, [programs[i].table for i in walk])):
                states[i] = state
    return states


# ---------------------------------------------------------------------------
# Measurement sampling and state dumps
# ---------------------------------------------------------------------------


def sample_counts(state: State, shots: int, seed: int | None = None) -> dict[int, int]:
    """Multinomial sample of basis indices from the state's |c|^2 distribution.

    The distribution is renormalized first, so fixed-point drift away from
    unit norm does not bias the sampler.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = state.probabilities()
    total = float(probs.sum())
    if not math.isfinite(total):
        raise EngineError(f"cannot sample from a state whose probability sum is {total}")
    if total <= 0.0:
        raise EngineError("cannot sample from an all-zero state")
    probs /= total
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return {int(k): int(v) for k, v in enumerate(counts) if v}


def dump_state(state: State) -> str:
    """One line per amplitude, index-ascending: 're im' (floats or raw ints)."""
    if isinstance(state, FloatState):
        return "".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in state.amp)
    return "".join(f"{r} {m}\n" for r, m in zip(state.re.tolist(), state.im.tolist()))
