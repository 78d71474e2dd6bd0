"""Shared test utilities: independent oracles and random-circuit generation."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np

import qbemu
from qbemu.engine import EngineError, FixedState
from qbemu.fixedpoint import FixedPointFormat, Rounding
from qbemu.gates import ROTATIONAL, GateApplication, GateKind, gate_matrix


# ---------------------------------------------------------------------------
# Exact-rational fixed-point oracle (independent of qbemu.fixedpoint)
# ---------------------------------------------------------------------------


def oracle_round(x: Fraction, mode: Rounding) -> int:
    """Round an exact rational to an integer under the given tie rule."""
    floor = x.numerator // x.denominator
    if mode is Rounding.TRUNCATION:
        return floor
    rem = x - floor
    half = Fraction(1, 2)
    if mode is Rounding.NEAREST:
        if x >= 0:
            return floor + (1 if rem >= half else 0)
        return -oracle_round(-x, mode)
    if rem > half or (rem == half and floor % 2 == 1):
        return floor + 1
    return floor


def oracle_quantize(x: float, fmt: FixedPointFormat) -> int:
    """Expected raw for from_real, computed with exact rationals."""
    return oracle_round(Fraction(x) * (1 << fmt.fractional_bits), fmt.rounding)


def oracle_mul_raw(a_raw: int, b_raw: int, fmt: FixedPointFormat) -> int:
    """Expected raw product: exact rational product re-quantized."""
    exact = Fraction(a_raw * b_raw, 1 << fmt.fractional_bits)
    return oracle_round(exact, fmt.rounding)


def exact_product_value(a_raw: int, b_raw: int, fmt: FixedPointFormat) -> Fraction:
    return Fraction(a_raw, 1 << fmt.fractional_bits) * Fraction(b_raw, 1 << fmt.fractional_bits)


class OracleAlu:
    """Scalar saturating kernel arithmetic on raw ints, with a sticky flag.

    Products come from :func:`oracle_mul_raw`; every result saturates to the
    format's raw range, as the hardware datapath does.
    """

    def __init__(self, fmt: FixedPointFormat):
        self.fmt = fmt
        self.overflow = False

    def sat(self, raw: int) -> int:
        clipped = min(max(raw, self.fmt.min_raw), self.fmt.max_raw)
        self.overflow |= clipped != raw
        return clipped

    def add(self, a: int, b: int) -> int:
        return self.sat(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.sat(a - b)

    def neg(self, a: int) -> int:
        return self.sat(-a)

    def mul(self, a: int, b: int) -> int:
        return self.sat(oracle_mul_raw(a, b, self.fmt))


def scalar_fixed_kernel(kind, a, b, k, sincos, alu):
    """Category-form kernel over scalar raw values (test-side oracle).

    a and b are (re, im) raw pairs; k is the raw 1/sqrt(2) constant; sincos
    the raw table pair for rotational kinds; alu an :class:`OracleAlu`, which
    rounds one multiplier at a time and records saturation.
    """
    add, sub, mul, neg = alu.add, alu.sub, alu.mul, alu.neg
    (ar, ai), (br, bi) = a, b
    if kind is GateKind.X:
        return (br, bi), (ar, ai)
    if kind is GateKind.Y:
        return (bi, neg(br)), (neg(ai), ar)
    if kind is GateKind.Z:
        return (ar, ai), (neg(br), neg(bi))
    if kind is GateKind.S:
        return (ar, ai), (neg(bi), br)
    if kind is GateKind.SDG:
        return (ar, ai), (bi, neg(br))
    if kind is GateKind.H:
        return (
            (mul(add(ar, br), k), mul(add(ai, bi), k)),
            (mul(sub(ar, br), k), mul(sub(ai, bi), k)),
        )
    if kind is GateKind.T:
        return (ar, ai), (mul(sub(br, bi), k), mul(add(br, bi), k))
    if kind is GateKind.TDG:
        return (ar, ai), (mul(add(br, bi), k), mul(sub(bi, br), k))
    s, c = sincos
    if kind is GateKind.RX:
        return (
            (add(mul(ar, c), mul(bi, s)), sub(mul(ai, c), mul(br, s))),
            (add(mul(br, c), mul(ai, s)), sub(mul(bi, c), mul(ar, s))),
        )
    if kind is GateKind.RY:
        return (
            (sub(mul(ar, c), mul(br, s)), sub(mul(ai, c), mul(bi, s))),
            (add(mul(br, c), mul(ar, s)), add(mul(bi, c), mul(ai, s))),
        )
    if kind is GateKind.RZ:
        return (
            (add(mul(ar, c), mul(ai, s)), sub(mul(ai, c), mul(ar, s))),
            (sub(mul(br, c), mul(bi, s)), add(mul(bi, c), mul(br, s))),
        )
    return (ar, ai), (sub(mul(br, c), mul(bi, s)), add(mul(bi, c), mul(br, s)))


def tie_operand(m: int, fmt: FixedPointFormat) -> int:
    """A raw operand whose exact product with ``m`` lies halfway between two
    representable values, so it exercises the tie rule.  ``m`` must not be a
    whole number (a multiple of ``2**fractional_bits``): those never round."""
    f = fmt.fractional_bits
    zeros = (m & -m).bit_length() - 1
    t = 1 << (f - 1 - zeros)
    assert (t * m) % (1 << f) == 1 << (f - 1)
    return t


# ---------------------------------------------------------------------------
# Couple enumeration (independent of the engine's strided walk)
# ---------------------------------------------------------------------------


def couple_pairs(n: int, target: int, control: int | None = None) -> list[tuple[int, int]]:
    """Pairs ``(i, i + 2**target)`` with bit ``target`` of ``i`` clear and, for a
    controlled gate, bit ``control`` set; ascending in ``i``."""
    step = 1 << target
    return [
        (i, i + step)
        for i in range(1 << n)
        if not i & step and (control is None or (i >> control) & 1)
    ]


def tensordot_apply(amp: np.ndarray, n: int, gate: GateApplication) -> np.ndarray:
    """One gate applied by reshape/tensordot with ``gate_matrix``, independent
    of the engine's couple walk.  Qubit q is bit q of the index, i.e. tensor
    axis n-1-q; a control restricts the update to the slice where it is 1."""
    psi = amp.reshape((2,) * n).copy()
    u = gate_matrix(gate.kind, gate.angle)
    where = [slice(None)] * n
    axis = n - 1 - gate.target
    if gate.control is not None:
        where[n - 1 - gate.control] = 1
        axis -= gate.control > gate.target  # the control axis sits before the target's
    sub = psi[tuple(where)]
    sub[...] = np.moveaxis(np.tensordot(u, sub, axes=([1], [axis])), 0, axis)
    return psi.reshape(-1)


# ---------------------------------------------------------------------------
# Dense tensor-product oracle (independent of the engine's couple walk)
# ---------------------------------------------------------------------------

DENSE_ORACLE_MAX_QUBITS = 10

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _embed(gate: GateApplication, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate: tensor factors from MSQ down to LSQ."""
    u = gate_matrix(gate.kind, gate.angle)
    wires = range(n - 1, -1, -1)
    if gate.control is None:
        return reduce(np.kron, [u if w == gate.target else _I2 for w in wires])
    idle = reduce(np.kron, [_P0 if w == gate.control else _I2 for w in wires])
    active = reduce(np.kron, [_P1 if w == gate.control else (u if w == gate.target else _I2) for w in wires])
    return idle + active


def dense_unitary(gates, n: int) -> np.ndarray:
    """Dense circuit unitary: left-multiply each gate's embedded matrix."""
    if n > DENSE_ORACLE_MAX_QUBITS:
        raise EngineError(f"dense oracle limited to {DENSE_ORACLE_MAX_QUBITS} qubits, got {n}")
    u = np.eye(1 << n, dtype=complex)
    for gate in gates:
        if gate.target >= n or (gate.control is not None and gate.control >= n):
            raise EngineError("gate touches a qubit outside the circuit")
        u = _embed(gate, n) @ u
    return u


def dense_oracle(circuit) -> np.ndarray:
    """Brute-force unitary of a parsed circuit."""
    return dense_unitary(circuit.gates, circuit.qubit_count)


# ---------------------------------------------------------------------------
# Unitary comparison helpers
# ---------------------------------------------------------------------------


def max_dev_up_to_global_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Max elementwise |u - phase*v| for the best single global phase."""
    flat_v = v.ravel()
    k = int(np.argmax(np.abs(flat_v)))
    if abs(flat_v[k]) == 0:
        return float(np.max(np.abs(u - v)))
    phase = u.ravel()[k] / flat_v[k]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


# ---------------------------------------------------------------------------
# Random native circuits
# ---------------------------------------------------------------------------

_KINDS = list(GateKind)


def random_gates(rng: np.random.Generator, n_qubits: int, n_gates: int,
                 controlled_fraction: float = 0.35) -> list[GateApplication]:
    """Uniformly mixed native gate list, controls sprinkled over all opcodes."""
    gates = []
    for _ in range(n_gates):
        kind = _KINDS[rng.integers(len(_KINDS))]
        target = int(rng.integers(n_qubits))
        control = None
        if n_qubits > 1 and rng.random() < controlled_fraction:
            control = int(rng.integers(n_qubits - 1))
            if control >= target:
                control += 1
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind in ROTATIONAL else None
        gates.append(GateApplication(kind, target, control=control, angle=angle))
    return gates


def edge_fixed_state(rng: np.random.Generator, n: int, fmt: FixedPointFormat) -> FixedState:
    """Raw parts drawn from min_raw, max_raw, 0 and random in-range words."""
    words = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=(2, 1 << n))
    pick = rng.integers(0, 4, size=(2, 1 << n))
    raw = np.select([pick == 0, pick == 1, pick == 2], [fmt.min_raw, fmt.max_raw, 0], words)
    return FixedState(n, fmt, raw[0], raw[1])


def gates_as_circuit(gates: list[GateApplication], n_qubits: int):
    """Wrap a raw gate list in a SourceCircuit shell for oracle/compile use."""
    from qbemu.qasm import SourceCircuit

    return SourceCircuit(n_qubits, list(gates))


# ---------------------------------------------------------------------------
# Per-gate compile loop (independent of the columnar compile_circuit)
# ---------------------------------------------------------------------------


def oracle_compile(circuit, config):
    """``(instructions, table)`` of ``circuit``, interning one gate at a time.

    Each rotation's consumed angle -- half the argument of RX/RY/RZ, all of
    U1's -- is interned in gate order, and the 2^Q limit is checked after
    each; raises what ``compile_circuit`` must raise.
    """
    from qbemu.compiler import AngleTable, CompileError, Instruction

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
            imm = table.intern(gate.angle if gate.kind is GateKind.U1 else gate.angle / 2.0)
            if len(table) > limit:
                raise CompileError(
                    f"more than 2^Q distinct angles: table needs {len(table)} entries, "
                    f"Q={config.imm_bits} allows {limit}"
                )
        control = gate.control if gate.control is not None else gate.target
        instructions.append(Instruction(gate.kind, gate.target, control, imm))
    return instructions, table


def format_program(gates, fmt: FixedPointFormat):
    """``(instructions, table)`` of native ``gates`` at any fixed-point format,
    those under the 8 bits an ``ExecConfig`` allows too, interned gate by gate
    as :func:`oracle_compile` does, with no 2^Q limit."""
    from qbemu.compiler import AngleTable, Instruction

    table = AngleTable(fmt)
    instructions = []
    for gate in gates:
        imm = 0
        if gate.kind in ROTATIONAL:
            imm = table.intern(gate.angle if gate.kind is GateKind.U1 else gate.angle / 2.0)
        control = gate.control if gate.control is not None else gate.target
        instructions.append(Instruction(gate.kind, gate.target, control, imm))
    return instructions, table


# ---------------------------------------------------------------------------
# SIMD dispatch
# ---------------------------------------------------------------------------


def outputs_under_both_dispatches(script: str) -> list[str]:
    """Standard output of ``script`` under numpy's default SIMD dispatch, then under its baseline loops."""
    src = str(Path(qbemu.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    baseline = dict(env, NPY_DISABLE_CPU_FEATURES="AVX2 FMA3 AVX512F AVX512_SKX X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    return [
        subprocess.run([sys.executable, "-c", script], env=e, capture_output=True, text=True, check=True).stdout
        for e in (env, baseline)
    ]
