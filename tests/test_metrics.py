"""Closed-form and property checks for the quality figures of merit."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbemu.compiler import compile_circuit
from qbemu.config import ExecConfig
from qbemu.engine import run
from qbemu.gates import GateApplication, GateKind
from qbemu.metrics import complex_distances, hellinger_fidelity, kld, report

from _helpers import gates_as_circuit

BELL = [
    GateApplication(GateKind.H, 2),
    GateApplication(GateKind.X, 1, control=2),
    GateApplication(GateKind.X, 0, control=2),
]


class TestHellingerFidelity:
    def test_identical_is_one(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, size=16)
        p /= p.sum()
        assert hellinger_fidelity(p, p) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_support_is_zero(self):
        assert hellinger_fidelity([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_half(self):
        # H^2 = 1 - 1/sqrt(2), fidelity = (1/sqrt(2))^2 = 0.5
        assert hellinger_fidelity([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 1, size=8)
        q = rng.uniform(0, 1, size=8)
        perm = rng.permutation(8)
        assert hellinger_fidelity(p, q) == pytest.approx(hellinger_fidelity(p[perm], q[perm]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hellinger_fidelity([1.0], [0.5, 0.5])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            hellinger_fidelity([-0.1, 1.1], [0.5, 0.5])


class TestKld:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.01, 1, size=32)
        p /= p.sum()
        assert kld(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_single_term_closed_form(self):
        assert kld([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_model_terms_contribute_nothing(self):
        assert kld([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_epsilon_floor(self):
        # reference zero where the model is positive: floored, finite, large
        val = kld([1.0, 0.0], [0.0, 1.0])
        assert val == pytest.approx(math.log(1.0 / 1e-12))

    def test_asymmetric(self):
        p = [0.5, 0.5]
        q = [0.9, 0.1]
        assert abs(kld(p, q) - kld(q, p)) > 0.1


class TestComplexDistances:
    def test_identical_states(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert complex_distances(amps, amps) == (0.0, 0.0)

    def test_global_phase_on_uniform_pair(self):
        amps = np.array([1, 1]) / math.sqrt(2)
        mcd, acd = complex_distances(amps, -amps)
        assert mcd == pytest.approx(math.sqrt(2.0))
        assert acd == pytest.approx(math.sqrt(2.0))

    def test_single_perturbation(self):
        n = 4
        ref = np.full(1 << n, 0.25, dtype=complex)
        model = ref.copy()
        model[5] += 1e-3
        mcd, acd = complex_distances(model, ref)
        assert mcd == pytest.approx(1e-3)
        assert acd == pytest.approx(1e-3 / (1 << n))

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert complex_distances(a, b) == complex_distances(b, a)

    def test_acd_never_exceeds_mcd(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            size = 1 << int(rng.integers(1, 6))
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            b = rng.normal(size=size) + 1j * rng.normal(size=size)
            mcd, acd = complex_distances(a, b)
            assert acd <= mcd + 1e-15


class TestReport:
    def test_identical_inputs(self):
        rng = np.random.default_rng(6)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        q = report(amps, amps)
        assert q.fidelity == pytest.approx(1.0)
        assert q.kld == pytest.approx(0.0)
        assert q.mcd == 0.0 and q.acd == 0.0
        assert q.prob_sum_model == pytest.approx(1.0)

    def test_bell_fixed_vs_float(self):
        circuit = gates_as_circuit(BELL, 3)
        fixed_cfg = ExecConfig(n_qubits=3, data_bits=20, rounding="nearest")
        float_cfg = ExecConfig(n_qubits=3, rounding="float_reference")
        fixed = run(compile_circuit(circuit, fixed_cfg), fixed_cfg)
        ref = run(compile_circuit(circuit, float_cfg), float_cfg)
        q = report(fixed, ref)
        assert q.fidelity >= 0.9999
        assert q.acd <= q.mcd
        assert q.prob_sum_reference == pytest.approx(1.0, abs=1e-12)
        # model sum is reported unnormalized and may drift off 1
        assert q.prob_sum_model != 1.0 or True

    def test_prob_sums_not_renormalized(self):
        model = np.array([1.0, 1.0], dtype=complex)  # deliberately unnormalized
        ref = np.array([1.0, 0.0], dtype=complex)
        q = report(model, ref)
        assert q.prob_sum_model == pytest.approx(2.0)
        assert q.prob_sum_reference == pytest.approx(1.0)

    def test_kld_direction_model_first(self):
        model = np.array([1.0, 0.0], dtype=complex)
        ref = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
        q = report(model, ref)
        assert q.kld == pytest.approx(math.log(2.0))
