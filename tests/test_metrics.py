"""Closed-form and property checks for the quality figures of merit."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qbemu
from qbemu.compiler import compile_circuit
from qbemu.config import ExecConfig
from qbemu.engine import FixedState, FloatState, run
from qbemu.fixedpoint import FixedPointFormat
from qbemu.gates import GateApplication, GateKind
from qbemu.metrics import KLD_EPSILON, QualityReport, complex_distances, hellinger_fidelity, kld, report

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


class TestDegenerateInputs:
    """Inputs no figure is defined on raise one named ``ValueError`` in every figure."""

    FIGURES = {"hellinger_fidelity": hellinger_fidelity, "kld": kld, "complex_distances": complex_distances,
               "report": report}

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_empty_inputs(self, figure):
        with pytest.raises(ValueError, match="^no entries to compare$"):
            self.FIGURES[figure]([], [])

    @pytest.mark.parametrize("figure", ["hellinger_fidelity", "kld"])
    @pytest.mark.parametrize("nan_in", ["model", "reference"])
    def test_nan_probability(self, figure, nan_in):
        inputs = {"model": [0.5, 0.5], "reference": [0.5, 0.5]}
        inputs[nan_in] = [math.nan, 1.0]
        with pytest.raises(ValueError, match="^distribution entries must be non-negative numbers, not NaN$"):
            self.FIGURES[figure](inputs["model"], inputs["reference"])

    @pytest.mark.parametrize("figure", ["complex_distances", "report"])
    @pytest.mark.parametrize("nan_in", ["model", "reference"])
    def test_nan_amplitude(self, figure, nan_in):
        # checked once on the probability sums after the pass, so a NaN anywhere in either state shows
        states = {"model": np.array([0.5, 0.5], dtype=complex), "reference": np.array([0.5, 0.5], dtype=complex)}
        states[nan_in] = np.array([math.nan, 1.0], dtype=complex)
        sums = {which: "nan" if which == nan_in else "0.5" for which in states}
        message = f"^probability sums must be finite: model {sums['model']}, reference {sums['reference']}$"
        with pytest.raises(ValueError, match=message):
            self.FIGURES[figure](states["model"], states["reference"])

    @pytest.mark.parametrize("figure", ["hellinger_fidelity", "kld"])
    def test_distribution_not_one_dimensional(self, figure):
        with pytest.raises(ValueError, match="^distribution must be one-dimensional$"):
            self.FIGURES[figure]([[0.5, 0.5]], [[0.5, 0.5]])

    @pytest.mark.parametrize("figure", ["complex_distances", "report"])
    def test_state_not_one_dimensional(self, figure):
        state = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(ValueError, match="^state must be one-dimensional$"):
            self.FIGURES[figure](state, state)


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


def planes(state) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(state, FixedState):
        return state.re * state.fmt.lsb, state.im * state.fmt.lsb
    return state.amp.real, state.amp.imag


def whole_array_report(model, reference) -> QualityReport:
    """The figures of merit computed over whole arrays, as one formula each."""
    (ar, ai), (br, bi) = planes(model), planes(reference)
    p, r = ar * ar + ai * ai, br * br + bi * bi
    h = np.sum((np.sqrt(p) - np.sqrt(r)) ** 2)
    m = p > 0
    d = np.sqrt((ar - br) ** 2 + (ai - bi) ** 2)
    return QualityReport(
        fidelity=(1 - 0.5 * h) ** 2,
        kld=np.sum(p[m] * np.log(p[m] / np.maximum(r[m], KLD_EPSILON))),
        mcd=d.max(),
        acd=d.mean(),
        prob_sum_model=p.sum(),
        prob_sum_reference=r.sum(),
    )


def state_pair(n: int, model_kind: str, seed: int):
    """A seeded float reference of 2**n amplitudes and an unnormalized model
    (fixed 16-bit or float) near 1.6 times it; each has its own
    zero-probability entries."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    re, im = rng.normal(size=(2, size)) / math.sqrt(2 * size)
    re[::3] = im[::3] = 0.0
    model_re, model_im = 1.6 * (re + 1e-3 * rng.normal(size=(2, size)))
    model_re[1::4] = model_im[1::4] = 0.0
    reference = FloatState(n, re + 1j * im)
    if model_kind == "float":
        return FloatState(n, model_re + 1j * model_im), reference
    fmt = FixedPointFormat(16)
    words = [np.clip(np.round(x / fmt.lsb), fmt.min_raw, fmt.max_raw) for x in (model_re, model_im)]
    return FixedState(n, fmt, *words), reference


class TestBlockedReport:
    """``report`` is one pass over L2-sized blocks; it must give what the
    whole-array formulas give, without a state-sized temporary."""

    @pytest.mark.parametrize("model_kind", ["fixed", "float"])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_equals_whole_array_formulas(self, n, model_kind):
        model, reference = state_pair(n, model_kind, seed=n)
        got, want = report(model, reference), whole_array_report(model, reference)
        assert got.prob_sum_model != pytest.approx(1.0, abs=1e-3)  # unnormalized
        for field, value in vars(want).items():
            assert getattr(got, field) == pytest.approx(float(value), rel=1e-12, abs=0), field

    @pytest.mark.parametrize("n", [1, 14, 15])
    def test_single_figures_share_the_report_terms(self, n):
        model, reference = state_pair(n, "fixed", seed=100 + n)
        q = report(model, reference)
        (ar, ai), (br, bi) = planes(model), planes(reference)
        p, r = ar * ar + ai * ai, br * br + bi * bi
        assert hellinger_fidelity(p, r) == q.fidelity
        assert kld(p, r) == q.kld
        assert complex_distances(model, reference) == (q.mcd, q.acd)

    def test_peak_memory_below_half_a_state(self):
        model, reference = state_pair(18, "fixed", seed=0)
        tracemalloc.start()
        try:
            report(model, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reference.amp.nbytes / 2


DISPATCH_SCRIPT = """
import numpy as np
from qbemu.engine import FixedState, FloatState
from qbemu.fixedpoint import FixedPointFormat
from qbemu.metrics import report

def complex_of(re, im):  # no complex arithmetic: numpy may fuse its products
    amp = np.empty(re.shape, dtype=complex)
    amp.real, amp.imag = re, im
    return amp

for seed in range(12):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    fmt = FixedPointFormat(int(rng.integers(8, 25)))
    re, im = rng.normal(size=(2, 1 << n)) / np.sqrt(2 << n)
    reference = FloatState(n, complex_of(re, im))
    fixed = FixedState(n, fmt, np.round(re / fmt.lsb), np.round(im / fmt.lsb))
    model = FloatState(n, complex_of(re + 1e-3 * rng.normal(size=1 << n), im))
    print(repr(report(fixed, reference)))
    print(repr(report(model, reference)))
"""


def _outputs_under_both_dispatches(script: str) -> list[str]:
    """Standard output of ``script`` under numpy's default SIMD dispatch, then under its baseline loops."""
    src = str(Path(qbemu.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    baseline = dict(env, NPY_DISABLE_CPU_FEATURES="AVX2 FMA3 AVX512F AVX512_SKX X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    return [
        subprocess.run([sys.executable, "-c", script], env=e, capture_output=True, text=True, check=True).stdout
        for e in (env, baseline)
    ]


def test_report_does_not_depend_on_simd_dispatch():
    """Under numpy's default SIMD dispatch and its baseline loops, ``report``
    gives the same figures, bit for bit, except ``kld``, whose ``log`` is
    dispatched."""
    outputs = _outputs_under_both_dispatches(DISPATCH_SCRIPT)
    default, base = (re.sub(r"kld=[^,]*, ", "", out).splitlines() for out in outputs)
    assert len(default) == 24
    assert default == base


PROBABILITIES_SCRIPT = """
import hashlib
import numpy as np
from qbemu.engine import FixedState, FloatState, sample_counts
from qbemu.fixedpoint import FixedPointFormat

fmt = FixedPointFormat(16)
for seed in range(6):
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, 1 << 12)) / np.sqrt(2 << 12)
    amp = np.empty(re.shape, dtype=complex)
    amp.real, amp.imag = re, im
    for state in (FloatState(12, amp), FixedState(12, fmt, np.round(re / fmt.lsb), np.round(im / fmt.lsb))):
        print(hashlib.sha256(state.probabilities().tobytes()).hexdigest(), sample_counts(state, 1000, seed))
"""


def test_probabilities_do_not_depend_on_simd_dispatch():
    """``probabilities``, and so ``sample_counts`` and ``qbemu run --seed``,
    give the same bytes under numpy's default SIMD dispatch and its baseline loops."""
    default, base = (out.splitlines() for out in _outputs_under_both_dispatches(PROBABILITIES_SCRIPT))
    assert len(default) == 12
    assert default == base
