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
  A run computes through one saturating ALU, which quantizes 1/sqrt(2) and
  finds the products that need no range check once, for the whole table,
  and keeps every kernel temporary in scratch that all its gates reuse.

Measurement statistics can be sampled from either backend.

The fixed kernels' cost is their element passes: at 12 qubits one pass
over a couple tensor's 8,192 words takes 2-4 us.  Passes over the whole
couple tensor (a reduction counts as one) and numpy calls per gate class,
under nearest rounding: in the layout with one rounding bias per product,
two range reductions per negation and a write-back after every kernel,
and now::

    class       passes                calls
    X           1.5  -> 1.5            3 -> 3
    Y           3.5  -> 3             10 -> 6
    Z           2.5  -> 1.5            5 -> 3
    S, SDG      1.75 -> 1.25           5 -> 4
    H           9    -> 9 (8)         10 -> 10 (9)
    T, TDG      4.5  -> 4.5           10 -> 10
    RX, RZ      14.5 -> 12.5 (11.5)   16 -> 12 (11)
    RY          14   -> 12 (11)       15 -> 11 (10)
    U1          7    -> 6             15 -> 11

A rotation rounds its two products with one bias when its sine and cosine
are nonzero with one sign (else each product takes its own: two passes
and four calls more).  The counts in parentheses are for a couple tensor
that is one contiguous array, an uncontrolled gate's on an unblocked
state: H and the rotations leave their results straight in it, with no
write-back.  What the counts leave out is the couple stride: a
half-tensor operation whose target or lower control is qubit 1-3 walks
2-8-word runs and costs several passes.
"""

from __future__ import annotations

import math

import numpy as np

from .compiler import FLOAT_ENTRY_MAX, AngleTable, CompiledProgram, Instruction, field_error, first_field_error
from .config import MAX_DATA_BITS, MAX_QUBITS, MAX_STATE_BYTES, ExecConfig
from .fixedpoint import FixedPointFormat, Rounding, from_real, range_error, round_shift
from .gates import INV_SQRT2, ROTATIONAL, GateKind

# A fixed-point gate whose couple tensor holds more amplitudes per plane than
# this runs block by block, so its temporaries stay in the L2 cache.
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

    ``raw`` is one ``(2, 2**n)`` int64 array holding the real plane in row 0
    and the imaginary plane in row 1; ``re`` and ``im`` are views of those
    rows.  The constructor copies caller-supplied parts, whose raw values
    must lie in the word's range ``[fmt.min_raw, fmt.max_raw]``.
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
            raw = np.zeros((2, size), dtype=np.int64)
            raw[0, 0] = 1 << fmt.fractional_bits
        else:
            try:
                re, im = np.asarray(re, dtype=np.int64), np.asarray(im, dtype=np.int64)
            except OverflowError:  # past int64, so out of range: kept exact to be named
                re, im = np.asarray(re, dtype=object), np.asarray(im, dtype=object)
            if re.shape != (size,) or im.shape != (size,):
                raise ValueError("amplitude count does not match qubit count")
            raw = np.stack((re, im))
            # The kernels' int64 headroom holds only for in-range words.
            error = range_error(raw, fmt.total_bits)
            if error:
                raise EngineError(f"raw {error}")
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
    """Saturating kernel arithmetic over raw arrays, with a sticky flag; one
    serves a whole run.

    Kernels add and subtract with numpy into the ALU's scratch and pass the
    results through :meth:`sat`; :meth:`neg` and :meth:`mul` saturate
    themselves.  Operands hold in-range words.  ``inv_sqrt2`` is the shared
    1/sqrt(2) constant, and ``safe`` holds the constants, it and the raw
    ``(sin, cos)`` ``entries``, whose product with any in-range word rounds
    into the range: rounding is monotone, so the rounded products of
    ``min_raw`` and ``max_raw`` bound all others.  An entry that is no
    integer, or is outside the word's range, is refused as a table file's
    is, before int64 holds it.
    """

    def __init__(self, fmt: FixedPointFormat, entries=()):
        self.lo, self.hi, self.shift, self.mode = fmt.min_raw, fmt.max_raw, fmt.fractional_bits, fmt.rounding
        self.overflow = False
        self._flat = np.empty(0, dtype=np.int64)
        self.inv_sqrt2 = from_real(INV_SQRT2, fmt)
        values = [x for pair in entries for x in pair]
        if bad := [x for x in values if not isinstance(x, (int, np.integer))]:
            raise EngineError(f"angle table value {bad[0]!r} is not an integer")
        if values and not self.lo <= min(values) <= max(values) <= self.hi:
            raise EngineError("angle table " + next(filter(None, (range_error(x, fmt.total_bits) for x in values))))
        k = np.array([self.inv_sqrt2, *values], dtype=np.int64)
        ends = round_shift(k[:, None] * np.array([self.lo, self.hi]), self.shift, self.mode)
        self.safe = set(k[((self.lo <= ends) & (ends <= self.hi)).all(axis=1)].tolist())

    def scratch(self, count: int, shape: tuple) -> np.ndarray:
        """``count`` stacked int64 buffers of ``shape``, a view of one flat
        buffer that every gate of the run reuses, so that no kernel allocates
        or page-faults in its temporaries."""
        size = count * math.prod(shape)
        if self._flat.size < size:
            self._flat = np.empty(size, dtype=np.int64)
        return self._flat[:size].reshape(count, *shape)

    def sat(self, raw: np.ndarray) -> np.ndarray:
        """Clip ``raw`` to the word's range in place, flagging any clip."""
        if np.maximum.reduce(raw, axis=None) > self.hi or np.minimum.reduce(raw, axis=None) < self.lo:
            self.overflow = True
            np.clip(raw, self.lo, self.hi, out=raw)
        return raw

    def neg(self, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``-raw`` into ``out``, or in place: an in-range word leaves the range
        only at ``-min_raw``, upward, so one reduction finds a clip."""
        out = np.negative(raw, out=raw if out is None else out)
        if np.maximum.reduce(out, axis=None) > self.hi:
            self.overflow = True
            np.minimum(out, self.hi, out=out)
        return out

    def mul(self, a: np.ndarray, k: int, bias: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Rounded products ``a * k``, formed in ``a`` and left in ``out`` (or
        ``a``); ``bias``, if given, holds the rounding bias.  The range check
        is skipped for a constant in ``safe``."""
        wide = round_shift(np.multiply(a, k, out=a), self.shift, self.mode, bias, out)
        return wide if k in self.safe else self.sat(wide)

    def mul_pair(self, a: np.ndarray, c: int, s: int) -> tuple[np.ndarray, np.ndarray]:
        """``a * c`` and ``a * s`` rounded, in stacked scratch.  Truncation has
        no bias, and under nearest rounding constants of one sign give both
        products one sign, so one bias serves both: then one ``round_shift``
        rounds the pair."""
        w = self.scratch(3, a.shape)
        (p, q, bias), pair = w, w[:2]
        np.multiply(a, c, out=p)
        np.multiply(a, s, out=q)
        one_bias = self.mode is Rounding.TRUNCATION or (self.mode is Rounding.NEAREST and c * s > 0)
        for wide in (pair,) if one_bias else (p, q):
            round_shift(wide, self.shift, self.mode, bias)
        if c not in self.safe:
            self.sat(pair if s not in self.safe else p)
        elif s not in self.safe:
            self.sat(q)
        return p, q


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------
# One walk serves both backends: ``_couple_tensor`` views the float state as
# one plane (``amp[None]``) and the fixed state as two (``raw``).


def _couple_tensor(raw: np.ndarray, target: int, control: int | None) -> np.ndarray:
    """Every plane of the couples as one ``(planes, ..., 2, inner)`` view: axis
    0 is the plane, axis -2 the target bit, and a control axis is fixed at 1."""
    if control is None:
        return raw.reshape(len(raw), -1, 2, 1 << target)
    hi, lo = max(target, control), min(target, control)
    v = raw.reshape(len(raw), -1, 2, 1 << (hi - 1 - lo), 2, 1 << lo)
    if target == lo:
        return v[:, :, 1]
    return v[:, :, :, :, 1].swapaxes(2, 3)


def _blocks(v: np.ndarray):
    """Sub-views of a couple tensor ``v`` larger than ``_BLOCK`` amplitudes per
    plane, each with at most ``_BLOCK``; the target axis is never split."""
    row = v[0].size
    for axis, size in enumerate(v.shape[1:-2], 1):
        row //= size  # amplitudes per plane under one index of ``axis``
        if row <= _BLOCK:
            chunk = _BLOCK // row
            for lead in np.ndindex(v.shape[1:axis]):
                for start in range(0, size, chunk):
                    yield v[(slice(None), *lead, slice(start, start + chunk))]
            return
    chunk = _BLOCK >> 1  # one couple row is over the block: split the inner axis
    for lead in np.ndindex(v.shape[1:-2]):
        for start in range(0, v.shape[-1], chunk):
            yield v[(slice(None), *lead, Ellipsis, slice(start, start + chunk))]


def _float_block(v: np.ndarray, kind: GateKind, sincos, t: np.ndarray) -> None:
    """Apply one gate to a block ``v`` of the complex couple tensor via a scratch
    ``t`` shaped like ``v``.  A complex scalar comes first in its product, which
    never overwrites its operand: else numpy may round it apart."""
    a, b, ta, tb = v[..., 0, :], v[..., 1, :], t[..., 0, :], t[..., 1, :]
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
    elif kind in (RZ, U1):  # a' = (c - i s) a (RZ only), b' = (c + i s) b
        s, c = sincos
        if kind is RZ:
            a[...] = np.multiply(c - 1j * s, a, out=ta)
        b[...] = np.multiply(c + 1j * s, b, out=tb)
    else:  # RX: a' = c a - i s b, b' = c b - i s a; RY: a' = c a - s b, b' = c b + s a
        s, c = sincos
        np.multiply(1j * s if kind is RX else s, v[..., ::-1, :], out=t)
        np.multiply(c, v, out=v)
        if kind is RY:
            np.negative(tb, out=tb)
        v -= t


def _fixed_block(v: np.ndarray, kind: GateKind, alu: _FixedAlu, sincos) -> None:
    """Apply one gate to a block ``v`` of the couple tensor.

    ``v[..., 0, :]``/``v[..., 1, :]`` are the low/high couple amplitudes of
    both planes (``v[0]`` real, ``v[1]`` imaginary), and flipping axis 0
    swaps the planes.  Arithmetic runs on contiguous scratch whose results
    are written back once.
    """
    if sincos is not None:  # rotational; negating a product in ``q`` is exact: only the sums saturate
        s, c = sincos
        if kind is U1:
            v = v[..., 1, :]
        p, q = alu.mul_pair(v, c, s)
        out = v if v.flags.c_contiguous else p  # sums go straight to a contiguous state
        if kind is RX:  # a' = c a - i s b, b' = c b - i s a
            np.negative(q[0], out=q[0])
            np.add(p[..., 0, :], q[::-1, ..., 1, :], out=out[..., 0, :])
            np.add(p[..., 1, :], q[::-1, ..., 0, :], out=out[..., 1, :])
        elif kind is RY:  # a' = c a - s b, b' = c b + s a
            np.subtract(p[..., 0, :], q[..., 1, :], out=out[..., 0, :])
            np.add(p[..., 1, :], q[..., 0, :], out=out[..., 1, :])
        elif kind is RZ:  # a' = (c - i s) a, b' = (c + i s) b
            np.negative(q[..., 1, :], out=q[..., 1, :])
            np.add(p[0], q[1], out=out[0])
            np.subtract(p[1], q[0], out=out[1])
        else:  # U1: b' = (c + i s) b
            np.subtract(p[0], q[1], out=out[0])
            np.add(p[1], q[0], out=out[1])
        alu.sat(out)
        if out is p:
            v[...] = p
        return
    a, b = v[..., 0, :], v[..., 1, :]
    if kind is X:
        t = alu.scratch(1, a.shape)[0]
        t[...] = a
        a[...] = b
        b[...] = t
    elif kind is Y:  # (a, b) -> (-i b, i a) = ((bi, -br), (-ai, ar))
        t = alu.scratch(2, a.shape)
        t[0], t[1] = b[::-1], a  # (bi, br), (ar, ai): the words to negate are t[:, 1]
        alu.neg(t[:, 1])
        a[...], b[...] = t[0], t[1, ::-1]
    elif kind is Z:
        b[...] = alu.neg(b, out=alu.scratch(1, b.shape)[0])
    elif kind in (S, SDG):  # b -> i b = (-bi, br) or -i b = (bi, -br)
        t, k = alu.scratch(1, b.shape)[0], 0 if kind is S else 1  # t[k] takes the negation
        alu.neg(b[1 - k], out=t[k])
        t[1 - k] = b[k]
        b[...] = t
    elif kind is H:
        t, bias = alu.scratch(2, v.shape)
        np.add(a, b, out=t[..., 0, :])
        np.subtract(a, b, out=t[..., 1, :])
        out = v if v.flags.c_contiguous else t  # the rounding's last shift writes a contiguous state
        alu.mul(alu.sat(t), alu.inv_sqrt2, bias, out=out)
        if out is t:
            v[...] = t
    else:  # T, TDG
        (rb, ib), (t, bias) = b, alu.scratch(2, b.shape)
        if kind is T:  # b' = k (rb - ib) + i k (rb + ib)
            np.subtract(rb, ib, out=t[0])
            np.add(rb, ib, out=t[1])
        else:  # b' = k (rb + ib) + i k (ib - rb)
            np.add(rb, ib, out=t[0])
            np.subtract(ib, rb, out=t[1])
        b[...] = alu.mul(alu.sat(t), alu.inv_sqrt2, bias)


def _apply(state: State, kind: GateKind, target: int, control: int | None, sincos, alu: _FixedAlu | None) -> None:
    """Apply one gate in place block by block: a fixed state's planes through ``alu``,
    a float state's plane through one scratch, as blocks share one shape."""
    v = _couple_tensor(state.amp[None] if alu is None else state.raw, target, control)
    scratch = None
    for block in (v,) if v[0].size <= _BLOCK else _blocks(v):
        if alu is not None:
            _fixed_block(block, kind, alu, sincos)
        else:
            scratch = np.empty_like(block) if scratch is None else scratch
            _float_block(block, kind, sincos, scratch)


def _alu(state: State, entries) -> _FixedAlu | None:
    """A fixed ``state``'s ALU over table ``entries``, or None for a float state whose entries a table file may hold."""
    if isinstance(state, FixedState):
        return _FixedAlu(state.fmt, entries)
    if bad := [x for pair in entries for x in pair if not math.isfinite(x)]:
        raise EngineError(f"angle table value {bad[0]!r} is not finite")
    if bad := [x for pair in entries for x in pair if abs(x) > FLOAT_ENTRY_MAX]:
        raise EngineError(f"angle table value {bad[0]!r} out of range for float-reference mode")
    return None


def _table_error(state: State, table: AngleTable) -> str | None:
    """Why ``state``'s backend cannot read ``table``'s entries as stored; None if it can."""
    if isinstance(state, FloatState):
        return None if table.fmt is None else "float backend requires a float-reference angle table"
    if table.fmt is None:
        return "fixed backend requires a fixed-point angle table"
    return None if table.fmt == state.fmt else "angle table format does not match state format"


_KINDS = tuple(GateKind)


def apply_gate(state: State, instr: Instruction, table: AngleTable | None = None) -> State:
    """Apply one decoded instruction in place and return the state."""
    if instr.opcode in ROTATIONAL and table is None:
        raise EngineError(f"{GateKind(instr.opcode).name} requires an angle table")
    if error := field_error(instr.opcode, instr.target, instr.control, instr.imm, state.n_qubits, len(table or ())):
        raise EngineError(error)
    kind, control = _KINDS[instr.opcode], None if instr.control == instr.target else instr.control
    if kind in ROTATIONAL and (error := _table_error(state, table)):
        raise EngineError(error)
    sincos = table.entries[instr.imm] if kind in ROTATIONAL else None
    alu = _alu(state, [sincos] if sincos else ())
    _apply(state, kind, instr.target, control, sincos, alu)
    if alu is not None:
        state.overflow = state.overflow or alu.overflow
    return state


def run(program: CompiledProgram, config: ExecConfig, initial: State | None = None) -> State:
    """Execute a compiled program from |0...0> by default.

    The instruction columns are range-checked once, raising what
    :func:`apply_gate` raises for the first bad instruction, and each
    instruction then goes straight to its kernel.  A fixed run's kernels
    share one ALU, whose sticky flag the state takes at the end.
    """
    n = program.used_qubits
    if n > config.n_qubits:
        raise EngineError(
            f"program uses {n} qubits, architecture supports {config.n_qubits}"
        )
    if initial is None:
        state = initial_state(n, config)
    else:
        if initial.n_qubits != n:
            raise EngineError("initial state size does not match program")
        expect_float = config.is_float_reference
        if expect_float != isinstance(initial, FloatState):
            raise EngineError("initial state backend does not match configuration")
        if isinstance(initial, FixedState) and initial.fmt != config.fixed_format:
            raise EngineError("initial state format does not match configuration")
        state = initial.copy()
    table, ins = program.table, program.instructions
    if len(table) and (error := _table_error(state, table)):  # an empty table is read by no gate
        raise EngineError(error)
    if error := first_field_error(ins, n, len(table)):
        raise EngineError(error[1])
    pairs, alu = table.entries, _alu(state, table.entries)
    columns = (ins.opcode, ins.target, ins.control, ins.imm)
    for opcode, target, control, imm in zip(*(col.tolist() for col in columns)):
        kind = _KINDS[opcode]
        sincos = pairs[imm] if kind in ROTATIONAL else None
        _apply(state, kind, target, None if control == target else control, sincos, alu)
    if alu is not None:
        state.overflow = state.overflow or alu.overflow
    return state


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
    total = probs.sum()
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
