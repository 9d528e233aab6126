"""Rank and classification metrics with exact small-sample statistics.

scipy is imported only inside the two large-sample p-value tails:
``spearman`` for n > 8 and ``wilcoxon_one_sided`` for more than
``EXACT_MAX_N`` non-zero pairs.  Every other path, and so every
subcommand that reaches neither tail, runs without loading it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "average_ranks",
    "spearman",
    "BinaryMetrics",
    "binary_metrics",
    "roc_auc",
    "wilcoxon_one_sided",
]


def average_ranks(x):
    """1-based ranks with ties sharing the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y):
    """Spearman rho of two equal-length sequences, with a two-sided p-value.

    rho is the Pearson correlation of average ranks.  For n <= 8 the
    p-value counts, over all permutations of y's ranks at once (one
    (n!, n) array), those whose |rho| reaches the observed one; beyond
    that it uses the t approximation with n - 2 degrees of freedom.
    Average ranks are multiples of 1/2, so every sum of the exact count
    is exact in float64 and independent of its order.
    Constant inputs are rejected (rank correlation undefined).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 3:
        raise ValueError(f"spearman needs n >= 3, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("spearman is undefined for constant input")
    a, b = average_ranks(x), average_ranks(y)
    a, b = a - a.mean(), b - b.mean()
    denom = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    rho = float(np.dot(a, b)) / denom
    if n <= 8:
        perms = np.array(list(itertools.permutations(b)))
        p = int(np.count_nonzero(np.abs(perms @ a / denom) >= abs(rho) - 1e-12)) / len(perms)
    else:
        t2 = rho * rho
        if t2 >= 1.0:
            p = 0.0
        else:
            from scipy.special import stdtr     # what scipy.stats.t.sf evaluates

            t = rho * math.sqrt((n - 2) / (1.0 - t2))
            p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, p


@dataclass(frozen=True)
class BinaryMetrics:
    """Accuracy plus positive-class recall (sensitivity) and negative-class
    recall (specificity); a rate with an empty denominator is None."""

    accuracy: float
    sensitivity: float | None
    specificity: float | None
    n: int


def binary_metrics(actual, predicted):
    """Counts-based metrics of equal-length, non-empty class-index lists;
    class 0 (``pass``) is the positive class."""
    actual = list(actual)
    predicted = list(predicted)
    tp = fn = tn = fp = 0
    for a, p in zip(actual, predicted):
        if a == 0:
            if p == 0:
                tp += 1
            else:
                fn += 1
        else:
            if p == 0:
                fp += 1
            else:
                tn += 1
    acc = (tp + tn) / len(actual)
    sens = tp / (tp + fn) if (tp + fn) > 0 else None
    spec = tn / (tn + fp) if (tn + fp) > 0 else None
    return BinaryMetrics(accuracy=acc, sensitivity=sens, specificity=spec, n=len(actual))


def roc_auc(scores, positive_mask):
    """Probability a positive outranks a negative, ties counted half.

    Computed from average ranks:  AUC = (R+ - n+(n+ + 1)/2) / (n+ n-),
    which equals pairwise counting with half-weight ties exactly.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positive_mask, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(s) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both a positive and a negative example")
    ranks = average_ranks(s)
    r_pos = float(ranks[pos].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# most non-zero pairs whose signed-rank p-value is counted exactly
EXACT_MAX_N = 20


def _signed_rank_tail_exact(ranks2, w2):
    """P(W >= w) for the signed-rank null via subset-sum counting.

    ``ranks2`` are doubled ranks (integers), ``w2`` the doubled observed
    statistic.  Exactly matches enumeration over all sign assignments.
    """
    total = int(sum(ranks2))
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    upto = 0
    for r in ranks2:
        r = int(r)
        upto += r
        counts[r:upto + 1] += counts[0:upto + 1 - r]
    tail = float(counts[int(w2):].sum())
    return tail / float(2 ** len(ranks2))


def wilcoxon_one_sided(before, after):
    """Paired one-sided Wilcoxon signed-rank test of after > before.

    Zero differences are dropped; tied absolute differences share
    average ranks.  W is the rank sum over positive differences.  For at
    most ``EXACT_MAX_N`` remaining pairs the p-value is exact (equal to
    full enumeration of sign assignments); beyond that a normal
    approximation with continuity correction is used.
    """
    b = np.asarray(before, dtype=np.float64)
    a = np.asarray(after, dtype=np.float64)
    if len(b) < 5:
        raise ValueError(f"wilcoxon needs n >= 5 pairs, got {len(b)}")
    d = a - b
    d = d[d != 0.0]
    m = len(d)
    if m == 0:
        raise ValueError("all paired differences are zero; no evidence either way")
    ranks = average_ranks(np.abs(d))
    w = float(ranks[d > 0.0].sum())
    if m <= EXACT_MAX_N:
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        p = _signed_rank_tail_exact(ranks2, np.rint(2.0 * w))
    else:
        mu = m * (m + 1) / 4.0
        sigma2 = float(np.sum(np.square(ranks))) / 4.0
        from scipy.special import ndtr      # what scipy.stats.norm.sf evaluates

        z = (w - mu - 0.5) / math.sqrt(sigma2)
        p = float(ndtr(-z))
    return w, p
