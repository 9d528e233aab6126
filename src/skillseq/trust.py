"""Question-answer trust and the net trust score.

For a prediction with confidence C in the predicted class,

    qa = C**alpha          if the prediction is correct
    qa = (1 - C)**beta     if it is wrong

as in Wong, Wang and Hryniowski 2020 (arXiv:2009.05835), so confident
correct answers earn trust near 1 and confident wrong answers forfeit
it.  A larger ``alpha`` lowers the trust of a correct answer, and a
larger ``beta`` the trust of a wrong one.  Trust densities are Gaussian
KDEs with boundary reflection at 0 and 1 (qa lives in [0, 1] and mass
concentrates at the edges, where an unreflected KDE would leak).  The
per-class trust T_M(z) is the mean qa over trials whose actual class is
z, and

    NTS = sum_z P(z) * T_M(z)

with P(z) the empirical class frequency.  ``build_trust_report`` scores
each record once and takes every mean and density from those values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "qa_trust",
    "trust_values",
    "silverman_bandwidth",
    "trust_density",
    "TrustReport",
    "build_trust_report",
]

GRID_SIZE = 512


def qa_trust(record, z, alpha=1.0, beta=1.0):
    """Trust earned by one answered question (prediction).

    ``z`` is the question's ground-truth class: the record must belong
    to class z's question set (its actual class is z).  A prediction
    matching z earns C**alpha; any other answer forfeits trust as
    (1 - C)**beta, where C is the predicted class's confidence.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError(f"alpha and beta must be > 0, got {alpha}, {beta}")
    if record.confidences is None or record.predicted is None:
        raise ValueError(f"{record.trial_id}: no classification output to trust-score")
    if record.actual is None:
        raise ValueError(f"{record.trial_id}: no ground-truth class")
    if not isinstance(z, (int, np.integer)) or not 0 <= int(z) < len(record.confidences):
        raise ValueError(f"class index {z!r} invalid for {len(record.confidences)} classes")
    if record.actual != int(z):
        raise ValueError(
            f"{record.trial_id}: record belongs to class {record.actual}'s "
            f"question set, not class {int(z)}'s"
        )
    c = float(record.confidences[record.predicted])
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"{record.trial_id}: confidence {c} outside [0, 1]")
    if record.predicted == int(z):
        return c ** alpha
    return (1.0 - c) ** beta


def trust_values(records, alpha=1.0, beta=1.0):
    return np.array([qa_trust(r, r.actual, alpha, beta) for r in records])


def _percentile(s, q):
    """``np.percentile(s, 100 * q)`` of the sorted 1-D array ``s`` by
    numpy's default ``linear`` method, written out because np.percentile
    loads numpy.ma.  A NaN sorts last and makes every percentile NaN."""
    n = len(s)
    if np.isnan(s[-1]):
        return s[-1]
    i = (n - 1) * q
    lo = math.floor(i)
    g = i - lo
    a, b = s[lo], s[min(lo + 1, n - 1)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def silverman_bandwidth(values):
    """0.9 * min(std, IQR/1.34) * n^(-1/5), with a positive fallback
    when the spread collapses (all values equal)."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n < 1:
        raise ValueError("bandwidth needs at least one value")
    std = float(v.std(ddof=1)) if n > 1 else 0.0
    ordered = np.sort(v)
    iqr = float(_percentile(ordered, 0.75) - _percentile(ordered, 0.25))
    spread = [s for s in (std, iqr / 1.34) if s > 0.0]
    a = 0.9 * min(spread) if spread else 0.09
    return a * n ** (-0.2)


def trust_density(values, bandwidth=None):
    """KDE over [0, 1] with reflection at both boundaries, on ``GRID_SIZE``
    points; the bandwidth defaults to Silverman's rule.

    Returns (grid, density); the trapezoid integral of the density over
    the grid is 1 to within truncation error (< 1e-3 for any bandwidth
    below ~0.5, enforced by capping).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("trust_density needs a non-empty 1-D array")
    if not np.all((v >= -1e-12) & (v <= 1.0 + 1e-12)):      # NaN fails too
        raise ValueError("trust values must lie in [0, 1]")
    v = np.clip(v, 0.0, 1.0)
    h = silverman_bandwidth(v) if bandwidth is None else float(bandwidth)
    if h <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {h}")
    h = min(h, 0.5)
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    # kernels at v, plus mirror images across 0 and across 1
    centers = np.concatenate([v, -v, 2.0 - v])
    z = (grid[:, None] - centers[None, :]) / h
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (len(v) * h * np.sqrt(2.0 * np.pi))
    return grid, dens


@dataclass(frozen=True)
class TrustReport:
    """Trust summary of one evaluation run.

    ``curves`` maps a name to a trust density on ``grid``, or to None when
    no record falls in its set: ``correct`` and ``incorrect`` over all
    records, then ``<class>_correct`` and ``<class>_incorrect`` for the
    records of each actual class, in class order.
    """

    alpha: float
    beta: float
    n: int
    class_names: tuple
    class_counts: dict
    t_m: dict                 # class index -> mean trust
    nts: float
    mean_correct: float | None
    mean_incorrect: float | None
    grid: np.ndarray
    curves: dict              # curve name -> density or None


def build_trust_report(records, alpha=1.0, beta=1.0, class_names=None):
    """Trust report of the records that carry a prediction, in one pass.

    Each record is trust-scored once; every mean and density is taken
    over a subset of those values, in record order.  Every class named
    by the confidence vectors must appear among the actuals, since a
    class with no samples has no defined mean trust.
    """
    recs = [r for r in records if r.predicted is not None]
    if not recs:
        raise ValueError("no classification records to build a trust report from")
    qa = trust_values(recs, alpha, beta)
    actual = np.array([r.actual for r in recs])
    correct = np.array([r.predicted for r in recs]) == actual
    classes = sorted(set(actual.tolist()))
    missing = sorted(set(range(len(recs[0].confidences))) - set(classes))
    if missing:
        raise ValueError(f"no samples with actual class(es) {missing}")
    if class_names is None:
        class_names = tuple(str(z) for z in classes)

    def density(mask):
        return trust_density(qa[mask])[1] if mask.any() else None

    def mean(mask):
        return float(qa[mask].mean()) if mask.any() else None

    counts, t_m, nts = {}, {}, 0.0
    curves = {"correct": density(correct), "incorrect": density(~correct)}
    for z in classes:
        member = actual == z
        counts[z] = int(member.sum())
        t_m[z] = mean(member)
        nts += (counts[z] / len(recs)) * t_m[z]
        curves[f"{class_names[z]}_correct"] = density(member & correct)
        curves[f"{class_names[z]}_incorrect"] = density(member & ~correct)
    if len(curves) != 2 + 2 * len(classes):
        raise ValueError("class names must be distinct")
    return TrustReport(
        alpha=alpha, beta=beta, n=len(recs), class_names=tuple(class_names),
        class_counts=counts, t_m=t_m, nts=nts,
        mean_correct=mean(correct), mean_incorrect=mean(~correct),
        grid=np.linspace(0.0, 1.0, GRID_SIZE), curves=curves,
    )
