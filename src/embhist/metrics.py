"""Evaluation metrics: AUC, LogLoss, Normalized Entropy, transfer ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .nncore import EPS_PROB


@dataclass(frozen=True)
class EvalResult:
    auc: float
    logloss: float
    ne: float
    n_samples: int
    base_rate: float


def midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    # run k of equal sorted values is xs[bounds[k]:bounds[k + 1]]
    bounds = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    ranks = np.empty(len(xs), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0, np.diff(bounds))
    return ranks


def auc(scores, labels) -> float:
    """Rank-based Mann-Whitney AUC; ties get half credit."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: need at least one positive and one negative")
    ranks = midranks(s)
    pos_rank_sum = ranks[y == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels) -> float:
    """Mean clamped binary cross-entropy, natural log."""
    p = np.clip(np.asarray(scores, dtype=np.float64), EPS_PROB, 1.0 - EPS_PROB)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def normalized_entropy(scores, labels) -> float:
    """Mean BCE divided by the entropy of the constant base-rate predictor."""
    y = np.asarray(labels, dtype=np.float64)
    rate = float(y.mean())
    if not 0.0 < rate < 1.0:
        raise MetricError("NE undefined: degenerate base rate")
    denom = -(rate * np.log(rate) + (1.0 - rate) * np.log(1.0 - rate))
    return float(logloss(scores, labels) / denom)


def transfer_ratio(ne_vm_old: float, ne_vm_new: float,
                   ne_fm_old: float, ne_fm_new: float) -> float:
    """Fraction of the teacher's NE improvement captured by the student."""
    d_fm = ne_fm_old - ne_fm_new
    if d_fm == 0.0:
        raise MetricError("transfer ratio undefined: teacher NE delta is zero")
    return (ne_vm_old - ne_vm_new) / d_fm


def evaluate(scores, labels) -> EvalResult:
    y = np.asarray(labels)
    return EvalResult(
        auc=auc(scores, labels),
        logloss=logloss(scores, labels),
        ne=normalized_entropy(scores, labels),
        n_samples=int(len(y)),
        base_rate=float(np.asarray(y, dtype=np.float64).mean()),
    )
