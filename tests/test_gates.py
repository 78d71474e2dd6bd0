"""Opcode assignments, matrix identities, and gate-record validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbemu.gates import (
    ONE_MULTIPLIER,
    ROTATIONAL,
    SIGN_EXCHANGE,
    GateApplication,
    GateKind,
    gate_matrix,
)


def test_opcode_assignments():
    assert [(k.name, int(k)) for k in GateKind] == [
        ("X", 0b0000),
        ("Y", 0b0001),
        ("Z", 0b0010),
        ("H", 0b0011),
        ("S", 0b0100),
        ("SDG", 0b0101),
        ("T", 0b0110),
        ("TDG", 0b0111),
        ("RX", 0b1000),
        ("RY", 0b1001),
        ("RZ", 0b1010),
        ("U1", 0b1011),
    ]


def test_operation_classes_partition_the_gate_set():
    assert SIGN_EXCHANGE | ONE_MULTIPLIER | ROTATIONAL == frozenset(GateKind)
    assert not (SIGN_EXCHANGE & ONE_MULTIPLIER)
    assert not (SIGN_EXCHANGE & ROTATIONAL)
    assert not (ONE_MULTIPLIER & ROTATIONAL)


def test_all_matrices_unitary():
    for kind in GateKind:
        angle = 0.7 if kind in ROTATIONAL else None
        u = gate_matrix(kind, angle)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15), kind


def test_involutions_and_phase_relations():
    eye = np.eye(2)
    for kind in (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H):
        u = gate_matrix(kind)
        assert np.allclose(u @ u, eye), kind
    s, t = gate_matrix(GateKind.S), gate_matrix(GateKind.T)
    assert np.allclose(s @ s, gate_matrix(GateKind.Z))
    assert np.allclose(t @ t, s)
    assert np.allclose(gate_matrix(GateKind.SDG), s.conj().T)
    assert np.allclose(gate_matrix(GateKind.TDG), t.conj().T)


def test_phase_gates_are_fixed_angle_u1():
    # S, T and their adjoints are the z-phase rotations by pi/2, pi/4, -pi/2, -pi/4
    for kind, angle in [
        (GateKind.S, math.pi / 2),
        (GateKind.T, math.pi / 4),
        (GateKind.SDG, -math.pi / 2),
        (GateKind.TDG, -math.pi / 4),
    ]:
        assert np.allclose(gate_matrix(kind), gate_matrix(GateKind.U1, angle), atol=1e-15), kind


def test_rz_is_u1_up_to_global_phase():
    theta = 1.234
    rz = gate_matrix(GateKind.RZ, theta)
    u1 = gate_matrix(GateKind.U1, theta)
    phase = np.exp(1j * theta / 2)
    assert np.allclose(phase * rz, u1)


def test_consumed_angle_convention():
    # the compiler stores the angle the datapath consumes: half the argument
    # of RX/RY/RZ, all of U1's
    from qbemu import ExecConfig, compile_circuit, parse

    body = "".join(f"{name}(1.0) q[0];\n" for name in ("rx", "ry", "rz", "u1"))
    circuit = parse(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{body}')
    program = compile_circuit(circuit, ExecConfig(n_qubits=1, rounding="float_reference"))
    assert program.instructions.imm.tolist() == [0, 0, 0, 1]
    assert program.table.entries == [(math.sin(0.5), math.cos(0.5)), (math.sin(1.0), math.cos(1.0))]


def test_matrix_angle_arity():
    with pytest.raises(ValueError):
        gate_matrix(GateKind.RX)
    with pytest.raises(ValueError):
        gate_matrix(GateKind.H, 0.3)


class TestGateApplication:
    def test_angle_exactly_for_rotational(self):
        with pytest.raises(ValueError):
            GateApplication(GateKind.RX, 0)
        with pytest.raises(ValueError):
            GateApplication(GateKind.X, 0, angle=0.3)

    def test_control_must_differ(self):
        with pytest.raises(ValueError):
            GateApplication(GateKind.X, 1, control=1)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            GateApplication(GateKind.X, -1)
        with pytest.raises(ValueError):
            GateApplication(GateKind.X, 0, control=-2)
