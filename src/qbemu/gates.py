"""Native gate set: opcodes, defining matrices, and datapath operation classes.

The emulated processor executes twelve gates, identified by a 4-bit opcode.
Gates fall into three hardware classes that determine how their 2x2 kernel is
realised on the datapath:

* sign/exchange -- pure negations and register swaps (X, Y, Z, S, Sdg),
* one-multiplier -- an add/subtract followed by one multiplication by the
  shared 1/sqrt(2) constant (H, T, Tdg),
* rotational -- two multiplications per output component, driven by a
  sine/cosine pair looked up from the angle table (RX, RY, RZ, U1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .columns import Columns

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class GateKind(IntEnum):
    """The twelve native gates, numbered by their instruction opcode."""

    X = 0b0000
    Y = 0b0001
    Z = 0b0010
    H = 0b0011
    S = 0b0100
    SDG = 0b0101
    T = 0b0110
    TDG = 0b0111
    RX = 0b1000
    RY = 0b1001
    RZ = 0b1010
    U1 = 0b1011


SIGN_EXCHANGE = frozenset({GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG})
ONE_MULTIPLIER = frozenset({GateKind.H, GateKind.T, GateKind.TDG})
ROTATIONAL = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U1})
IS_ROTATIONAL = np.array([kind in ROTATIONAL for kind in GateKind])  # indexed by opcode


def gate_matrix(kind: GateKind, angle: float | None = None) -> np.ndarray:
    """Defining 2x2 unitary of a native gate."""
    if kind in ROTATIONAL:
        if angle is None:
            raise ValueError(f"{kind.name} requires an angle")
        h = angle / 2.0
        c, s = math.cos(h), math.sin(h)
        if kind is GateKind.RX:
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if kind is GateKind.RY:
            return np.array([[c, -s], [s, c]], dtype=complex)
        if kind is GateKind.RZ:
            return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
        return np.array([[1, 0], [0, math.cos(angle) + 1j * math.sin(angle)]], dtype=complex)
    if angle is not None:
        raise ValueError(f"{kind.name} takes no angle")
    k = INV_SQRT2
    table = {
        GateKind.X: [[0, 1], [1, 0]],
        GateKind.Y: [[0, -1j], [1j, 0]],
        GateKind.Z: [[1, 0], [0, -1]],
        GateKind.H: [[k, k], [k, -k]],
        GateKind.S: [[1, 0], [0, 1j]],
        GateKind.SDG: [[1, 0], [0, -1j]],
        GateKind.T: [[1, 0], [0, k + 1j * k]],
        GateKind.TDG: [[1, 0], [0, k - 1j * k]],
    }
    return np.array(table[kind], dtype=complex)


@dataclass(frozen=True)
class GateApplication:
    """One native gate applied to concrete qubits.

    ``control`` is None for uncontrolled gates.  ``angle`` is present exactly
    for the rotational kinds and is the raw gate argument in radians.
    """

    kind: GateKind
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError("target must be non-negative")
        if self.control is not None:
            if self.control < 0:
                raise ValueError("control must be non-negative")
            if self.control == self.target:
                raise ValueError("control and target must differ")
        if self.kind in ROTATIONAL:
            if self.angle is None:
                raise ValueError(f"{self.kind.name} requires an angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.name} takes no angle")


# Columns of GateApplication rows: ``control`` equals ``target`` for an
# uncontrolled gate, and ``angle`` is 0.0 where the gate takes none.
GATE_FIELDS = {"opcode": np.int64, "target": np.int64, "control": np.int64, "angle": np.float64}


def _gate_row(opcode: int, target: int, control: int, angle: float) -> GateApplication:
    kind = GateKind(opcode)
    return GateApplication(kind, target, None if control == target else control, angle if kind in ROTATIONAL else None)


def gate_columns(columns) -> Columns:
    """Gate columns from one sequence per field of :data:`GATE_FIELDS`."""
    return Columns.of(_gate_row, GATE_FIELDS, columns)

