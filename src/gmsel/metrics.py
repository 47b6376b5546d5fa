"""Confusion-based measures, win counting, sign test and Bonferroni correction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionCounts",
    "SignTestResult",
    "confusion",
    "tpr",
    "tnr",
    "gm",
    "f_measure",
    "balanced_auc",
    "win_counts",
    "sign_test",
    "bonferroni",
]


@dataclass(frozen=True)
class ConfusionCounts:
    """Two-class confusion cells: a=TP, b=FN, c=FP, d=TN."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("confusion counts must be nonnegative")


@dataclass(frozen=True)
class SignTestResult:
    wins: int
    losses: int
    ties: int
    p_value: float


def confusion(y_true, y_pred) -> ConfusionCounts:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label sequences must have equal length")
    tpos = y_true == 1
    ppos = y_pred == 1
    return ConfusionCounts(
        a=int(np.sum(tpos & ppos)),
        b=int(np.sum(tpos & ~ppos)),
        c=int(np.sum(~tpos & ppos)),
        d=int(np.sum(~tpos & ~ppos)),
    )


def tpr(c: ConfusionCounts) -> float:
    """True positive rate a/(a+b)."""
    if c.a + c.b < 1:
        raise ValueError("no positive instances in the test set")
    return c.a / (c.a + c.b)


def tnr(c: ConfusionCounts) -> float:
    """True negative rate d/(c+d)."""
    if c.c + c.d < 1:
        raise ValueError("no negative instances in the test set")
    return c.d / (c.c + c.d)


def gm(c: ConfusionCounts) -> float:
    """Geometric mean sqrt(TPR * TNR)."""
    return float(np.sqrt(tpr(c) * tnr(c)))


def f_measure(c: ConfusionCounts) -> float:
    """F1 with the positive class as target; 0 by convention when a = 0."""
    if c.a == 0:
        return 0.0
    return 2 * c.a / (2 * c.a + c.b + c.c)


def balanced_auc(c: ConfusionCounts) -> float:
    """(TPR + TNR)/2: the trapezoidal AUC of a one-operating-point ROC curve."""
    return (tpr(c) + tnr(c)) / 2


def win_counts(gm_matrix) -> np.ndarray:
    """Fractional win totals per method over a trials-by-methods GM matrix.

    Each trial contributes 1/k to each of the k methods tied at the trial
    maximum; totals therefore sum to the number of trials.
    """
    M = np.asarray(gm_matrix, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("gm_matrix must be a nonempty 2-D array")
    best = M.max(axis=1, keepdims=True)
    winners = M == best
    return (winners / winners.sum(axis=1, keepdims=True)).sum(axis=0)


def sign_test(a, b) -> SignTestResult:
    """One-sided sign test for "a beats b" over paired values.

    Ties are discarded; p is the binomial tail P(X >= wins | n, 1/2) over the n
    non-tied pairs, summed in exact integers and rounded once (1.0 if n = 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired value sequences must be equal-length, nonempty")
    wins = int(np.sum(a > b))
    losses = int(np.sum(a < b))
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(wins, n + 1))
    return SignTestResult(wins, losses, a.size - n, tail / 2**n)


def bonferroni(p: float, m: int) -> float:
    """min(1, m * p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if m < 1:
        raise ValueError("m must be a positive integer")
    return min(1.0, m * p)
