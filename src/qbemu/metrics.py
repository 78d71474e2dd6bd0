"""Emulation-quality figures of merit against a reference state.

Fidelity and KL divergence compare the |amplitude|^2 distributions; they are
deliberately computed without renormalizing, so a probability sum drifting
away from one (a fixed-point artifact) shows up as a fidelity/KLD excursion
rather than being hidden.  The max/average complex distances compare raw
amplitudes and therefore also see phase errors, including global phase.
All arithmetic is double precision regardless of the model backend.

Every figure is a sum (or maximum) of per-entry terms, computed block by
block over at most ``engine._BLOCK`` entries with a few reused block-sized
buffers, so no temporary is the size of the state.  Each figure has one
term function, which :func:`report` and the single-figure functions share.
The arithmetic is real: ``p = re^2 + im^2`` and ``|a - b| =
sqrt(dr^2 + di^2)``, which round the same under every SIMD dispatch, and
block sums are added by :func:`math.fsum`.  Only :func:`kld`'s ``log`` may
differ in the last bits between CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine

KLD_EPSILON = 1e-12


@dataclass(frozen=True)
class QualityReport:
    fidelity: float
    kld: float
    mcd: float
    acd: float
    prob_sum_model: float
    prob_sum_reference: float


def _blocks(size: int, count: int):
    """``(slice, buffers)`` per block of at most ``engine._BLOCK`` entries
    covering ``range(size)``: ``count`` float rows of the block's length,
    allocated once and reused by every block."""
    step = min(size, engine._BLOCK)
    buffers = np.empty((count, step))
    for start in range(0, size, step):
        stop = min(start + step, size)
        yield slice(start, stop), buffers[:, : stop - start]


# --- per-block terms: one formula per figure --------------------------------


def _probabilities(re: np.ndarray, im: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``re^2 + im^2`` into ``out``."""
    np.multiply(re, re, out=out)
    out += np.multiply(im, im, out=scratch)
    return out


def _hellinger_term(p: np.ndarray, r: np.ndarray, t: np.ndarray, u: np.ndarray) -> float:
    """Sum of ``(sqrt(p) - sqrt(r))^2`` over one block."""
    np.sqrt(p, out=t)
    t -= np.sqrt(r, out=u)
    t *= t
    return float(t.sum())


def _kld_term(p: np.ndarray, r: np.ndarray, t: np.ndarray) -> float:
    """Sum of ``p log(p / max(r, KLD_EPSILON))`` over one block's ``p > 0``."""
    np.maximum(r, KLD_EPSILON, out=t)
    np.divide(p, t, out=t)  # 0 where p == 0, and it stays 0 below
    np.log(t, out=t, where=p > 0)
    t *= p
    return float(t.sum())


def _distance_term(ar, ai, br, bi, t: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Max and sum of ``|a - b| = sqrt(dr^2 + di^2)`` over one block."""
    np.subtract(ar, br, out=t)
    t *= t
    np.subtract(ai, bi, out=u)
    u *= u
    t += u
    np.sqrt(t, out=t)
    return float(t.max()), float(t.sum())


def _fidelity(h: float) -> float:
    """``(1 - H^2)^2`` from ``h = sum (sqrt(p) - sqrt(r))^2 = 2 H^2``."""
    return (1.0 - 0.5 * h) ** 2


# --- inputs -----------------------------------------------------------------


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not a.size:
        raise ValueError("no entries to compare")


def _distributions(model, reference) -> tuple[np.ndarray, np.ndarray]:
    """The model and reference distributions, checked for shape and entries."""
    p, r = np.asarray(model, dtype=float), np.asarray(reference, dtype=float)
    if p.ndim != 1 or r.ndim != 1:
        raise ValueError("distribution must be one-dimensional")
    if not (np.all(p >= 0) and np.all(r >= 0)):  # False for NaN too
        raise ValueError("distribution entries must be non-negative numbers, not NaN")
    _check_lengths(p, r)
    return p, r


def _planes(x) -> tuple[np.ndarray, np.ndarray, float | None]:
    """A state's real and imaginary planes and the scale that reads them as
    floats: a fixed state's raw words and its lsb, or a float state's (an
    array's) parts as views and ``None``.  Nothing state-sized is copied."""
    if isinstance(x, engine.FixedState):
        return x.raw[0], x.raw[1], x.fmt.lsb
    if isinstance(x, engine.FloatState):
        x = x.amp
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("state must be one-dimensional")
    return arr.real, arr.imag, None


def _read(planes, s: slice, re_out: np.ndarray, im_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block ``s`` of both planes as floats: views, or scaled into the buffers."""
    re, im, scale = planes
    if scale is None:
        return re[s], im[s]
    return np.multiply(re[s], scale, out=re_out), np.multiply(im[s], scale, out=im_out)


# --- figures ----------------------------------------------------------------


def hellinger_fidelity(model, reference) -> float:
    """(1 - H^2)^2 with H the Hellinger distance between the distributions."""
    p, r = _distributions(model, reference)
    return _fidelity(math.fsum(_hellinger_term(p[s], r[s], t, u) for s, (t, u) in _blocks(len(p), 2)))


def kld(model, reference) -> float:
    """Kullback-Leibler divergence D(model || reference).

    Zero model entries contribute nothing; reference entries below
    :data:`KLD_EPSILON` are floored at it to keep the sum finite.
    """
    p, r = _distributions(model, reference)
    return math.fsum(_kld_term(p[s], r[s], t) for s, (t,) in _blocks(len(p), 1))


def complex_distances(model, reference) -> tuple[float, float]:
    """Maximum and average |model_i - reference_i|, :func:`report`'s ``mcd`` and
    ``acd`` from a pass of the distance term alone.  A distance that is not
    finite hands the states to :func:`report`, which refuses a probability sum
    that is not finite, as a NaN or infinite amplitude makes it."""
    a, b = _planes(model), _planes(reference)
    _check_lengths(a[0], b[0])
    maxima, sums = zip(*(
        _distance_term(*_read(a, s, ar, ai), *_read(b, s, br, bi), t, u)
        for s, (ar, ai, br, bi, t, u) in _blocks(len(a[0]), 6)
    ))
    acd = math.fsum(sums) / len(a[0])
    if math.isfinite(acd):  # so is every distance
        return max(maxima), acd
    q = report(model, reference)
    return q.mcd, q.acd


def report(model_state, reference_state) -> QualityReport:
    """All four figures of merit plus the raw probability sums, in one pass
    over both states; a sum that is not finite raises ``ValueError``."""
    a, b = _planes(model_state), _planes(reference_state)
    _check_lengths(a[0], b[0])
    terms = []
    for s, (ar, ai, br, bi, p, r, t, u) in _blocks(len(a[0]), 8):
        (ar, ai), (br, bi) = _read(a, s, ar, ai), _read(b, s, br, bi)
        _probabilities(ar, ai, p, t)
        _probabilities(br, bi, r, t)
        terms.append(
            (
                _hellinger_term(p, r, t, u),
                _kld_term(p, r, t),
                *_distance_term(ar, ai, br, bi, t, u),
                float(p.sum()),
                float(r.sum()),
            )
        )
    h, k, maxima, d, p_sum, r_sum = zip(*terms)
    q = QualityReport(
        fidelity=_fidelity(math.fsum(h)),
        kld=math.fsum(k),
        mcd=max(maxima),
        acd=math.fsum(d) / len(a[0]),
        prob_sum_model=math.fsum(p_sum),
        prob_sum_reference=math.fsum(r_sum),
    )
    if not math.isfinite(q.prob_sum_model) or not math.isfinite(q.prob_sum_reference):
        raise ValueError(f"probability sums must be finite: model {q.prob_sum_model}, reference {q.prob_sum_reference}")
    return q
