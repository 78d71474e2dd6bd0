"""Seeded random OpenQASM 2.0 circuits over the native gate set.

A circuit is drawn from a :class:`CircuitSpec` and a seed, and the same pair
always gives the same text.  Gate-class and controlled counts are exact, not
sampled, and gate names are dealt in a fixed rotation within each class,
so the cost of a circuit barely depends on the seed.  The generator also returns the native
gate list it wrote, so checks can compare what the toolchain made of the
text against what was meant, without asking the toolchain.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SIGN_EXCHANGE = "sign_exchange"
ONE_MULTIPLIER = "one_multiplier"
ROTATIONAL = "rotational"
CLASSES = (SIGN_EXCHANGE, ONE_MULTIPLIER, ROTATIONAL)

# OpenQASM names that lower to exactly one native gate.
PLAIN_NAMES = {
    SIGN_EXCHANGE: ("x", "y", "z", "s", "sdg"),
    ONE_MULTIPLIER: ("h", "t", "tdg"),
    ROTATIONAL: ("rx", "ry", "rz", "u1"),
}
CONTROLLED_NAMES = {
    SIGN_EXCHANGE: ("cx",),
    ONE_MULTIPLIER: ("ch",),
    ROTATIONAL: ("crx", "cry", "crz", "cu1"),
}
# Native opcode name (as in qbemu.gates.GateKind) for each source name.
NATIVE_KIND = {
    "x": "X", "y": "Y", "z": "Z", "s": "S", "sdg": "SDG", "h": "H", "t": "T", "tdg": "TDG",
    "rx": "RX", "ry": "RY", "rz": "RZ", "u1": "U1",
    "cx": "X", "ch": "H", "crx": "RX", "cry": "RY", "crz": "RZ", "cu1": "U1",
}

# Angles are multiples of 2*pi/ANGLE_GRID: far enough apart that no two
# quantize to the same sine/cosine pair at 24 bits.
ANGLE_GRID = 1024


@dataclass(frozen=True)
class CircuitSpec:
    """Parameters of one seeded circuit."""

    qubits: int
    gates: int  # native gates after macro expansion
    mix: tuple[float, float, float]  # shares of sign/exchange, one-multiplier, rotational
    controlled: float  # share of gates, in every class, that carry a control qubit
    angle_pool: int  # distinct rotation angles the circuit draws from
    macros: int = 0  # user `gate` definitions; 0 writes every gate inline
    macro_len: int = 4  # native gates per macro body
    macro_share: float = 0.0  # share of native gates reached through macro calls


@dataclass(frozen=True)
class NativeGate:
    kind: str  # GateKind name
    cls: str
    target: int
    control: int | None
    angle: float | None


@dataclass(frozen=True)
class Circuit:
    text: str
    gates: tuple[NativeGate, ...]
    qubits: int


def class_counts(spec: CircuitSpec) -> dict[tuple[str, bool], int]:
    """Exact number of gates per (class, controlled) bucket."""
    per_class = [round(spec.gates * share) for share in spec.mix[:-1]]
    per_class.append(spec.gates - sum(per_class))
    counts = {}
    for cls, n in zip(CLASSES, per_class):
        controlled = round(n * spec.controlled)
        counts[(cls, False)] = n - controlled
        counts[(cls, True)] = controlled
    return counts


def _slots(counts: dict[tuple[str, bool], int]) -> list[tuple[str, bool]]:
    return [bucket for bucket, n in counts.items() for _ in range(n)]


def generate(spec: CircuitSpec, seed: int) -> Circuit:
    """Draw one circuit; equal (spec, seed) give equal results."""
    if spec.qubits < 2:
        raise ValueError("controlled gates need at least two qubits")
    rng = random.Random(f"{seed}:{spec}")
    pool = [math.tau * k / ANGLE_GRID for k in sorted(rng.sample(range(1, ANGLE_GRID), spec.angle_pool))]
    counts = class_counts(spec)
    slots = _slots(counts)
    rng.shuffle(slots)

    # Macro templates are the first slots of the shuffled list, so their class
    # mix follows the circuit's; each is called `calls` times and the rest of
    # every bucket is written inline.
    templates = [slots[m * spec.macro_len : (m + 1) * spec.macro_len] for m in range(spec.macros)]
    calls = 0
    if templates:
        used = {b: 0 for b in counts}
        for template in templates:
            for bucket in template:
                used[bucket] += 1
        want = round(spec.gates * spec.macro_share / (spec.macros * spec.macro_len))
        calls = min([want] + [counts[b] // used[b] for b in used if used[b]])
        for b in used:
            counts[b] -= calls * used[b]
    inline = _slots(counts)
    rng.shuffle(inline)

    # Each bucket deals its gate names round-robin in a fixed order, so which
    # names a circuit holds, and with them its cost, does not depend on the seed.
    dealt = dict.fromkeys(counts, 0)

    def draw_name(bucket):
        cls, controlled = bucket
        names = (CONTROLLED_NAMES if controlled else PLAIN_NAMES)[cls]
        dealt[bucket] += 1
        return names[(dealt[bucket] - 1) % len(names)]

    def draw_operands(n, controlled):
        target, control = rng.sample(range(n), 2)
        return target, control if controlled else None

    # A body op is (name, class, formal target, formal control); formals 0, 1 are p, r.
    bodies = [[(draw_name(b), b[0], *draw_operands(2, b[1])) for b in t] for t in templates]
    statements = [("macro", m) for m in range(len(templates)) for _ in range(calls)]
    statements += [("gate", b) for b in inline]
    rng.shuffle(statements)

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    for m, body in enumerate(bodies):
        ops = []
        n_params = 0
        for name, cls, target, control in body:
            arg = ""
            if cls == ROTATIONAL:
                arg = f"(a{n_params})"
                n_params += 1
            operands = "pr"[target] if control is None else f"{'pr'[control]},{'pr'[target]}"
            ops.append(f"{name}{arg} {operands};")
        params = f"({','.join(f'a{k}' for k in range(n_params))})" if n_params else ""
        lines.append(f"gate m{m}{params} p,r {{ {' '.join(ops)} }}")
    lines.append(f"qreg q[{spec.qubits}];")

    gates: list[NativeGate] = []
    for what, arg in statements:
        if what == "gate":
            name = draw_name(arg)
            target, control = draw_operands(spec.qubits, arg[1])
            angle = rng.choice(pool) if arg[0] == ROTATIONAL else None
            text = f"({angle!r})" if angle is not None else ""
            operands = f"q[{target}]" if control is None else f"q[{control}],q[{target}]"
            lines.append(f"{name}{text} {operands};")
            gates.append(NativeGate(NATIVE_KIND[name], arg[0], target, control, angle))
        else:
            actual = rng.sample(range(spec.qubits), 2)
            angles = []
            for name, cls, target, control in bodies[arg]:
                angle = rng.choice(pool) if cls == ROTATIONAL else None
                if angle is not None:
                    angles.append(angle)
                gates.append(
                    NativeGate(
                        NATIVE_KIND[name],
                        cls,
                        actual[target],
                        None if control is None else actual[control],
                        angle,
                    )
                )
            text = f"({','.join(repr(a) for a in angles)})" if angles else ""
            lines.append(f"m{arg}{text} q[{actual[0]}],q[{actual[1]}];")
    return Circuit("\n".join(lines) + "\n", tuple(gates), spec.qubits)
