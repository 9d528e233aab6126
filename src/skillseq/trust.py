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

with P(z) the empirical class frequency.
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
    "conditional_trust_density",
    "trust_spectrum_and_nts",
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
    if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
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


def _correctness_densities(records, alpha, beta):
    """(grid, correct_density, incorrect_density) of the records' trust,
    split by prediction correctness; a side with no members is None."""
    grid = np.linspace(0.0, 1.0, GRID_SIZE)
    dens_c = dens_w = None
    correct = [r for r in records if r.predicted == r.actual]
    wrong = [r for r in records if r.predicted != r.actual]
    if correct:
        grid, dens_c = trust_density(trust_values(correct, alpha, beta))
    if wrong:
        grid, dens_w = trust_density(trust_values(wrong, alpha, beta))
    return grid, dens_c, dens_w


def conditional_trust_density(records, z, alpha=1.0, beta=1.0):
    """Class z's trust densities, split by prediction correctness.

    Returns (grid, correct_density, incorrect_density); a side with no
    members is None.  In the binary case the correct side holds the
    true positives (or true negatives) of class z and the incorrect
    side its misses.
    """
    sub = [r for r in records if r.actual == z]
    if not sub:
        raise ValueError(f"no records with actual class {z!r}")
    return _correctness_densities(sub, alpha, beta)


def trust_spectrum_and_nts(records, alpha=1.0, beta=1.0):
    """Per-class mean trust T_M(z) and the class-frequency-weighted NTS.

    Every class named by the confidence vectors must appear among the
    actuals; a class with no samples has no defined mean trust.
    """
    records = list(records)
    if not records:
        raise ValueError("trust spectrum needs at least one record")
    by_class = {}
    for r in records:
        if r.actual is None:
            raise ValueError(f"{r.trial_id}: no ground-truth class")
        by_class.setdefault(r.actual, []).append(r)
    n_classes = len(records[0].confidences)
    missing = sorted(set(range(n_classes)) - set(by_class))
    if missing:
        raise ValueError(f"no samples with actual class(es) {missing}")
    n = len(records)
    t_m = {}
    nts = 0.0
    for z in sorted(by_class):
        vals = trust_values(by_class[z], alpha, beta)
        t_m[z] = float(vals.mean())
        nts += (len(vals) / n) * t_m[z]
    return t_m, nts


@dataclass(frozen=True)
class TrustReport:
    """Trust summary of one evaluation run."""

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
    density_correct: np.ndarray | None
    density_incorrect: np.ndarray | None
    per_class_densities: dict  # class index -> (correct|None, incorrect|None)


def build_trust_report(records, alpha=1.0, beta=1.0, class_names=None):
    recs = [r for r in records if r.predicted is not None]
    if not recs:
        raise ValueError("no classification records to build a trust report from")
    t_m, nts = trust_spectrum_and_nts(recs, alpha, beta)
    correct = [r for r in recs if r.predicted == r.actual]
    wrong = [r for r in recs if r.predicted != r.actual]
    grid, dens_c, dens_w = _correctness_densities(recs, alpha, beta)
    per_class = {}
    counts = {}
    for z in sorted(t_m):
        counts[z] = sum(1 for r in recs if r.actual == z)
        _, dc, dw = conditional_trust_density(recs, z, alpha, beta)
        per_class[z] = (dc, dw)
    if class_names is None:
        class_names = tuple(str(z) for z in sorted(t_m))
    return TrustReport(
        alpha=alpha, beta=beta, n=len(recs),
        class_names=tuple(class_names),
        class_counts=counts,
        t_m=t_m, nts=nts,
        mean_correct=float(trust_values(correct, alpha, beta).mean()) if correct else None,
        mean_incorrect=float(trust_values(wrong, alpha, beta).mean()) if wrong else None,
        grid=grid,
        density_correct=dens_c,
        density_incorrect=dens_w,
        per_class_densities=per_class,
    )
