"""Emulation-quality figures of merit against a reference state.

Fidelity and KL divergence compare the |amplitude|^2 distributions; they are
deliberately computed without renormalizing, so a probability sum drifting
away from one (a fixed-point artifact) shows up as a fidelity/KLD excursion
rather than being hidden.  The max/average complex distances compare raw
amplitudes and therefore also see phase errors, including global phase.
All arithmetic is double precision regardless of the model backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import FloatState

KLD_EPSILON = 1e-12


@dataclass(frozen=True)
class QualityReport:
    fidelity: float
    kld: float
    mcd: float
    acd: float
    prob_sum_model: float
    prob_sum_reference: float


def _as_distribution(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("distribution must be one-dimensional")
    if np.any(arr < 0):
        raise ValueError("distribution entries must be non-negative")
    return arr


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")


def hellinger_fidelity(model, reference) -> float:
    """(1 - H^2)^2 with H the Hellinger distance between the distributions."""
    p = _as_distribution(model)
    r = _as_distribution(reference)
    _check_lengths(p, r)
    d = np.sqrt(p)
    d -= np.sqrt(r)
    d *= d
    h2 = 0.5 * float(np.sum(d))
    return (1.0 - h2) ** 2


def kld(model, reference) -> float:
    """Kullback-Leibler divergence D(model || reference).

    Zero model entries contribute nothing; reference entries below
    :data:`KLD_EPSILON` are floored at it to keep the sum finite.
    """
    p = _as_distribution(model)
    r = _as_distribution(reference)
    _check_lengths(p, r)
    mask = p > 0
    p = p[mask]
    terms = np.divide(p, np.maximum(r[mask], KLD_EPSILON))
    np.log(terms, out=terms)
    terms *= p
    return float(np.sum(terms))


def _as_amplitudes(x) -> np.ndarray:
    """A state's complex amplitudes; a float state's are read, not copied."""
    if isinstance(x, FloatState):
        x = x.amp
    elif hasattr(x, "to_complex"):
        x = x.to_complex()
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("state must be one-dimensional")
    return arr


def complex_distances(model, reference) -> tuple[float, float]:
    """Maximum and average |model_i - reference_i| over complex amplitudes."""
    a = _as_amplitudes(model)
    b = _as_amplitudes(reference)
    _check_lengths(a, b)
    d = np.abs(a - b)
    return float(d.max()), float(d.mean())


def report(model_state, reference_state) -> QualityReport:
    """All four figures of merit plus the raw probability sums."""
    model = _as_amplitudes(model_state)
    reference = _as_amplitudes(reference_state)
    _check_lengths(model, reference)
    p = np.abs(model)
    p *= p  # what ``** 2`` computes, without a second array
    r = np.abs(reference)
    r *= r
    mcd, acd = complex_distances(model, reference)
    return QualityReport(
        fidelity=hellinger_fidelity(p, r),
        kld=kld(p, r),
        mcd=mcd,
        acd=acd,
        prob_sum_model=float(p.sum()),
        prob_sum_reference=float(r.sum()),
    )
