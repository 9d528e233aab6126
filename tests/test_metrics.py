"""Rank statistics and binary metrics against brute-force oracles.

Each implementation is compared to an independent reimplementation:
naive O(n^2) rank counting, full permutation enumeration for p-values,
and direct confusion-table arithmetic.
"""

import math
from itertools import permutations, product

import numpy as np
import pytest

from skillseq.metrics import (
    average_ranks,
    binary_metrics,
    roc_auc,
    spearman,
    wilcoxon_one_sided,
)


# --- oracles ---


def naive_average_ranks(x):
    """Rank by pairwise comparison; ties share the mean of their ranks."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(len(x))
    for i, v in enumerate(x):
        less = np.sum(x < v)
        equal = np.sum(x == v)
        out[i] = less + (equal + 1) / 2.0
    return out


def naive_spearman_rho(x, y):
    rx, ry = naive_average_ranks(x), naive_average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def exact_spearman_p(x, y):
    """Two-sided permutation p-value by full enumeration (n <= 8)."""
    observed = abs(naive_spearman_rho(x, y))
    n = len(x)
    hits = total = 0
    for perm in permutations(range(n)):
        r = abs(naive_spearman_rho(x, [y[i] for i in perm]))
        hits += r >= observed - 1e-12
        total += 1
    return hits / total


def loop_spearman_p(x, y):
    """``spearman``'s exact p as one Python loop over every permutation of
    y's average ranks, with its arithmetic: the reference its array pass
    must equal exactly."""
    def pearson(a, b):
        a, b = a - a.mean(), b - b.mean()
        return float(np.dot(a, b)) / math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))

    rx, ry = average_ranks(x), average_ranks(y)
    target = abs(pearson(rx, ry)) - 1e-12
    perms = list(permutations(ry))
    return sum(abs(pearson(rx, np.array(perm))) >= target for perm in perms) / len(perms)


def exact_wilcoxon_p(before, after):
    """P(W+ >= observed) under random signs, zeros dropped, ties mean-ranked."""
    d = np.asarray(after, dtype=np.float64) - np.asarray(before, dtype=np.float64)
    d = d[d != 0.0]
    ranks = naive_average_ranks(np.abs(d))
    w_obs = float(np.sum(ranks[d > 0]))
    n = len(d)
    hits = 0
    for signs in product([0.0, 1.0], repeat=n):
        if float(np.asarray(signs) @ ranks) >= w_obs - 1e-12:
            hits += 1
    return hits / 2 ** n, w_obs


# --- average ranks ---


@pytest.mark.parametrize("seed", range(10))
def test_average_ranks_matches_naive(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 6, size=rng.integers(2, 30)).astype(float)
    np.testing.assert_allclose(average_ranks(x), naive_average_ranks(x),
                               atol=1e-12)


def test_average_ranks_tie_hand_case():
    np.testing.assert_array_equal(average_ranks([10.0, 20.0, 20.0, 30.0]),
                                  [1.0, 2.5, 2.5, 4.0])


# --- spearman ---


def test_spearman_hand_case():
    rho, _ = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    assert rho == pytest.approx(0.8)


def test_spearman_perfect_and_reversed():
    rho, p = spearman([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
    assert rho == pytest.approx(1.0)
    rho, _ = spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
    assert rho == pytest.approx(-1.0)
    # past n = 8 the p-value is the t-tail's, which is 0 at |rho| = 1
    x = np.arange(12.0)
    for y, sign in ((3.0 * x + 1.0, 1.0), (-x, -1.0)):
        rho, p = spearman(x, y)
        assert rho == pytest.approx(sign)
        assert p == 0.0


@pytest.mark.parametrize("seed", range(25))
def test_spearman_rho_matches_naive(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 40))
    x = rng.normal(size=n)
    y = rng.normal(size=n) + 0.5 * x
    rho, _ = spearman(x, y)
    assert rho == pytest.approx(naive_spearman_rho(x, y), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_spearman_small_n_p_is_exact_permutation(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(4, 8))
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    _, p = spearman(x, y)
    assert p == pytest.approx(exact_spearman_p(list(x), list(y)), abs=1e-12)


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("n", range(3, 9))
def test_spearman_exact_p_equals_the_permutation_loop(n, ties):
    rng = np.random.default_rng(300 + n)
    cases = 0
    while cases < 2:
        x, y = ((rng.integers(0, 3, n) if ties else rng.normal(size=n)).astype(float)
                for _ in range(2))
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        _, p = spearman(x, y)
        assert type(p) is float and p == loop_spearman_p(x, y), (x, y)
        cases += 1


def test_spearman_rejects_degenerate_input():
    with pytest.raises(ValueError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0])


# --- binary metrics ---


def test_binary_metrics_hand_case():
    # positive class is index 0: 12 actual positives, 8 negatives
    actual = [0] * 12 + [1] * 8
    predicted = [0] * 9 + [1] * 3 + [1] * 6 + [0] * 2
    m = binary_metrics(actual, predicted)
    assert m.accuracy == pytest.approx(15 / 20)
    assert m.sensitivity == pytest.approx(9 / 12)
    assert m.specificity == pytest.approx(6 / 8)
    assert m.n == 20


def test_binary_metrics_single_class_side_is_none():
    m = binary_metrics([0, 0], [0, 1])
    assert m.sensitivity == pytest.approx(0.5)
    assert m.specificity is None
    assert m.accuracy == pytest.approx(0.5)


@pytest.mark.parametrize("seed", range(10))
def test_binary_metrics_match_confusion_table(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(5, 60))
    actual = rng.integers(0, 2, size=n)
    predicted = rng.integers(0, 2, size=n)
    m = binary_metrics(actual.tolist(), predicted.tolist())
    tp = np.sum((actual == 0) & (predicted == 0))
    tn = np.sum((actual == 1) & (predicted == 1))
    p_count = np.sum(actual == 0)
    n_count = np.sum(actual == 1)
    assert m.accuracy == pytest.approx((tp + tn) / n)
    if p_count:
        assert m.sensitivity == pytest.approx(tp / p_count)
    if n_count:
        assert m.specificity == pytest.approx(tn / n_count)


# --- ROC AUC ---


def naive_auc(scores, positive_mask):
    """Pair counting: P(score_pos > score_neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    pos = scores[positive_mask]
    neg = scores[~positive_mask]
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            wins += sp > sn
            ties += sp == sn
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_hand_case():
    scores = [0.9, 0.4, 0.6, 0.2]
    mask = [True, True, False, False]
    # pairs: (0.9 beats both) + (0.4 beats 0.2 only) = 3/4
    assert roc_auc(scores, mask) == pytest.approx(0.75)


@pytest.mark.parametrize("seed", range(15))
def test_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(4, 50))
    scores = np.round(rng.uniform(size=n), 2)    # force some ties
    mask = rng.integers(0, 2, size=n).astype(bool)
    if mask.all() or not mask.any():
        mask[0] = ~mask[0]
    assert roc_auc(scores, mask) == pytest.approx(naive_auc(scores, mask),
                                                  abs=1e-12)


def test_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [True, True, False, False]) == 0.0


def test_auc_rejects_single_class():
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.6], [True, True])


# --- one-sided Wilcoxon ---


@pytest.mark.parametrize("seed", range(12))
def test_wilcoxon_exact_p_matches_enumeration(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(5, 13))
    before = rng.normal(size=n)
    after = before + rng.normal(0.4, 1.0, size=n)
    if np.all(after == before):
        after[0] += 1.0
    w, p = wilcoxon_one_sided(before, after)
    p_ref, w_ref = exact_wilcoxon_p(before, after)
    assert w == pytest.approx(w_ref)
    assert p == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_all_improved_minimal_p():
    before = [0.1, 0.2, 0.3, 0.4, 0.5]
    after = [0.2, 0.3, 0.4, 0.5, 0.6]
    w, p = wilcoxon_one_sided(before, after)
    assert w == pytest.approx(15.0)
    assert p == pytest.approx(1 / 32)


def test_wilcoxon_zero_differences_dropped():
    before = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    after = [1.0, 2.5, 3.5, 4.5, 5.5, 6.5]
    w, p = wilcoxon_one_sided(before, after)
    w_ref, p_ref = 15.0, 1 / 32
    assert w == pytest.approx(w_ref)
    assert p == pytest.approx(p_ref)


def test_wilcoxon_rejects_too_few_pairs():
    with pytest.raises(ValueError):
        wilcoxon_one_sided([1.0, 2.0], [2.0, 3.0])


def test_wilcoxon_rejects_all_zero_differences():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError):
        wilcoxon_one_sided(x, list(x))


def test_wilcoxon_large_n_uses_normal_tail():
    rng = np.random.default_rng(7)
    n = 40
    before = rng.normal(size=n)
    after = before + rng.normal(0.8, 0.5, size=n)
    w, p = wilcoxon_one_sided(before, after)
    assert 0.0 < p < 0.01


# --- large-sample tails, pinned bit for bit to scipy.stats ---


def _tail_draws(n, seed):
    """Paired samples from independent to strongly related, some with ties."""
    rng = np.random.default_rng(seed)
    for strength in (0.0, 0.3, 1.0, 3.0):
        x = rng.normal(size=n)
        y = strength * x + rng.normal(size=n)
        yield x, y
        yield np.round(x, 1), np.round(y, 1)


@pytest.mark.parametrize("n", range(9, 41))
def test_spearman_t_tail_equals_scipy_stats_bitwise(n):
    from scipy import stats

    for x, y in _tail_draws(n, 900 + n):
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        rho, p = spearman(x, y)
        if rho * rho >= 1.0:
            assert p == 0.0
            continue
        t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        ref = 2.0 * float(stats.t.sf(abs(t), df=n - 2))
        assert float.hex(p) == float.hex(ref), (n, rho)


@pytest.mark.parametrize("n", range(21, 61))
def test_wilcoxon_normal_tail_equals_scipy_stats_bitwise(n):
    from scipy import stats

    for k, (before, delta) in enumerate(_tail_draws(n, 1900 + n)):
        after = before + 0.2 * delta + 0.25 * k
        d = after - before
        d = d[d != 0.0]
        if len(d) <= 20:
            continue
        w, p = wilcoxon_one_sided(before, after)
        ranks = average_ranks(np.abs(d))
        m = len(d)
        z = (w - m * (m + 1) / 4.0 - 0.5) / np.sqrt(float(np.sum(np.square(ranks))) / 4.0)
        ref = float(stats.norm.sf(z))
        assert float.hex(p) == float.hex(ref), (n, w)
