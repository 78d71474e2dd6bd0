"""Shipped benchmark circuits: closed-form checks and backend agreement."""

from __future__ import annotations

import math

import numpy as np
import pytest

import qbemu
from qbemu import ExecConfig, compile_circuit, parse_file, run
from qbemu.metrics import report


def _float_state(name: str, imm_bits: int = 6):
    circuit = parse_file(qbemu.fixture_path(name))
    config = ExecConfig(
        n_qubits=circuit.qubit_count, rounding="float_reference", imm_bits=imm_bits
    )
    return circuit, run(compile_circuit(circuit, config), config)


def test_fixture_inventory():
    assert qbemu.fixture_names() == [
        "bell.qasm",
        "ghz4.qasm",
        "qft4.qasm",
        "rot_ladder.qasm",
        "teleport.qasm",
    ]


def test_all_fixtures_compile_and_run_on_both_backends():
    for name in qbemu.fixture_names():
        circuit = parse_file(qbemu.fixture_path(name))
        assert circuit.gates, name
        n = circuit.qubit_count
        fixed_cfg = ExecConfig(n_qubits=n, data_bits=20, rounding="nearest", imm_bits=6)
        float_cfg = ExecConfig(n_qubits=n, rounding="float_reference", imm_bits=6)
        fixed = run(compile_circuit(circuit, fixed_cfg), fixed_cfg)
        ref = run(compile_circuit(circuit, float_cfg), float_cfg)
        assert abs(ref.probabilities().sum() - 1.0) < 1e-12, name
        assert abs(fixed.probabilities().sum() - 1.0) < 1e-3, name
        quality = report(fixed, ref)
        assert quality.fidelity > 0.999, name


def test_ghz4_float_state():
    _, state = _float_state("ghz4.qasm")
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[15] = 2.0**-0.5
    assert np.max(np.abs(state.amp - expected)) < 1e-12


def test_qft4_matches_fourier_column():
    # the circuit prepares |0101> then applies the transform with final bit
    # reversal, so the state must be the x=5 column of the 16-point DFT
    _, state = _float_state("qft4.qasm")
    x = 0b0101
    w = np.exp(2j * np.pi / 16)
    expected = np.array([w ** (x * k) for k in range(16)]) / 4.0
    assert np.max(np.abs(state.amp - expected)) < 1e-12


def test_teleport_delivers_payload_marginal():
    # after deferred-measurement teleportation the ry(0.9) payload sits on
    # q2: P(q2 = 1) = sin^2(0.45) regardless of the q0/q1 outcome
    _, state = _float_state("teleport.qasm")
    probs = np.abs(state.amp) ** 2
    ones = [i for i in range(8) if (i >> 2) & 1]
    assert probs[ones].sum() == pytest.approx(math.sin(0.45) ** 2, abs=1e-12)
    # and q0, q1 are uniformly random: each joint outcome has weight 1/4
    for pattern in range(4):
        weight = sum(probs[i] for i in range(8) if (i & 3) == pattern)
        assert weight == pytest.approx(0.25, abs=1e-12)


def test_rot_ladder_exercises_the_angle_table():
    circuit = parse_file(qbemu.fixture_path("rot_ladder.qasm"))
    config = ExecConfig(n_qubits=4, data_bits=20, rounding="nearest", imm_bits=6)
    program = compile_circuit(circuit, config)
    rotational = [i for i in program.instructions if i.opcode.name in ("RX", "RY", "RZ", "U1")]
    assert len(rotational) > 15
    # repeated angles share slots: strictly fewer table entries than rotations
    assert 1 < len(program.table) < len(rotational)
    assert max(i.imm for i in rotational) == len(program.table) - 1
