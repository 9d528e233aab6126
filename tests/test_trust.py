"""Question-answer trust, densities, and the net trust score.

The oracle reimplements the trust definitions directly from their
closed forms in Wong, Wang and Hryniowski 2020 (arXiv:2009.05835):
per-sample trust C^alpha on a correct prediction and (1 - C)^beta on an
incorrect one, class trust as the plain average over samples whose
actual class is z, and the net score as the class-frequency-weighted
combination.  The bandwidth oracle takes its IQR from np.percentile.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import skillseq.trust
from skillseq.records import PredictionRecord
from skillseq.trust import (
    build_trust_report,
    qa_trust,
    silverman_bandwidth,
    trust_density,
    trust_values,
)


def rec(actual, predicted, confidence, n_classes=2, i=[0]):
    confs = [(1.0 - confidence) / (n_classes - 1)] * n_classes
    confs[predicted] = confidence
    i[0] += 1
    return PredictionRecord(trial_id=f"T:{i[0]}", subject_id="T",
                            trial_index=i[0], actual=actual,
                            predicted=predicted, confidences=tuple(confs))


def oracle_sample_trust(record, z, alpha, beta):
    c = record.confidences[record.predicted]
    if record.predicted == z:
        return c ** alpha
    return (1.0 - c) ** beta


def oracle_spectrum(records, alpha, beta):
    n_classes = len(records[0].confidences)
    t_m = {}
    for z in range(n_classes):
        members = [r for r in records if r.actual == z]
        t_m[z] = sum(oracle_sample_trust(r, z, alpha, beta)
                     for r in members) / len(members)
    nts = sum(t_m[z] * sum(1 for r in records if r.actual == z)
              for z in t_m) / len(records)
    return t_m, nts


# --- per-sample trust ---


def test_correct_prediction_trust_examples():
    r = rec(actual=0, predicted=0, confidence=0.9)
    assert qa_trust(r) == pytest.approx(0.9)
    assert qa_trust(r, alpha=2.0) == pytest.approx(0.81)


def test_incorrect_prediction_forfeits_trust():
    r = rec(actual=0, predicted=1, confidence=0.9)
    assert qa_trust(r) == pytest.approx(1.0 - 0.9)


def test_beta_shapes_incorrect_branch():
    r = rec(actual=1, predicted=0, confidence=0.8)
    assert qa_trust(r, beta=2.0) == pytest.approx((1 - 0.8) ** 2)


def test_larger_beta_lowers_the_trust_of_a_wrong_answer():
    """beta is a penalty: at C = 0.8, (1 - C)**beta falls from 0.2 through
    0.04 to 0.008 as beta goes 1, 2, 3."""
    r = rec(actual=1, predicted=0, confidence=0.8)
    trusts = [qa_trust(r, beta=b) for b in (1.0, 2.0, 3.0)]
    assert trusts == pytest.approx([0.2, 0.04, 0.008])
    assert trusts[0] > trusts[1] > trusts[2]


def test_alpha_only_touches_correct_branch():
    correct = rec(actual=0, predicted=0, confidence=0.7)
    wrong = rec(actual=0, predicted=1, confidence=0.7)
    assert qa_trust(correct, alpha=3.0) == pytest.approx(0.7 ** 3)
    assert qa_trust(wrong, alpha=3.0) == pytest.approx(qa_trust(wrong))


def test_trust_bounded_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = rng.uniform(0.5, 1.0)
        r = rec(actual=int(rng.integers(2)), predicted=int(rng.integers(2)),
                confidence=c)
        v = qa_trust(r, alpha=rng.uniform(0.2, 3), beta=rng.uniform(0.2, 3))
        assert 0.0 <= v <= 1.0


def test_trust_values_order_follows_records():
    records = [rec(0, 0, 0.9), rec(1, 0, 0.8), rec(0, 0, 0.6)]
    vals = trust_values(records)
    assert vals[0] == pytest.approx(0.9)
    assert vals[1] == pytest.approx(0.2)
    assert vals[2] == pytest.approx(0.6)


# --- spectrum and net score ---


def random_records(n, seed, n_classes=2):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        actual = int(rng.integers(n_classes))
        predicted = actual if rng.uniform() < 0.8 else int(rng.integers(n_classes))
        conf = float(rng.uniform(1.0 / n_classes + 0.01, 0.999))
        out.append(rec(actual, predicted, conf, n_classes))
    # make sure every class occurs as an actual
    for z in range(n_classes):
        out.append(rec(z, z, 0.9, n_classes))
    return out


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
def test_spectrum_matches_oracle_on_1000_records(alpha, beta):
    records = random_records(1000, seed=42)
    report = build_trust_report(records, alpha, beta)
    t_ref, nts_ref = oracle_spectrum(records, alpha, beta)
    for z in t_ref:
        assert report.t_m[z] == pytest.approx(t_ref[z], abs=1e-9)
    assert report.nts == pytest.approx(nts_ref, abs=1e-9)


def test_spectrum_three_classes():
    records = random_records(300, seed=7, n_classes=3)
    report = build_trust_report(records)
    t_ref, nts_ref = oracle_spectrum(records, 1.0, 1.0)
    assert set(report.t_m) == {0, 1, 2}
    for z in t_ref:
        assert report.t_m[z] == pytest.approx(t_ref[z], abs=1e-12)
    assert report.nts == pytest.approx(nts_ref, abs=1e-12)


def test_nts_invariant_to_record_order():
    records = random_records(200, seed=3)
    a = build_trust_report(records).nts
    b = build_trust_report(list(reversed(records))).nts
    assert a == pytest.approx(b, abs=1e-12)


def test_all_correct_confident_gives_full_trust():
    records = [rec(z % 2, z % 2, 0.999999) for z in range(10)]
    assert build_trust_report(records).nts == pytest.approx(1.0, abs=1e-5)


def test_alpha_increase_lowers_trust_on_correct_records():
    records = [rec(0, 0, 0.8), rec(1, 1, 0.7)]
    base = build_trust_report(records, alpha=1.0).nts
    stricter = build_trust_report(records, alpha=2.0).nts
    assert stricter < base


def test_spectrum_requires_every_class_observed():
    records = [rec(0, 0, 0.9), rec(0, 1, 0.6)]
    with pytest.raises(ValueError, match=r"no samples with actual class\(es\) \[1\]"):
        build_trust_report(records)


# --- densities ---


def test_density_integrates_to_one():
    rng = np.random.default_rng(1)
    values = rng.beta(5, 2, size=400)
    grid, dens = trust_density(values)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


def test_density_mass_concentrates_at_data():
    grid, dens = trust_density(np.full(50, 0.9), bandwidth=0.05)
    assert grid[np.argmax(dens)] == pytest.approx(0.9, abs=0.02)


def test_density_reflection_keeps_boundary_mass():
    # all values at the left edge: without reflection half the mass leaks
    grid, dens = trust_density(np.full(40, 0.0), bandwidth=0.05)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)
    assert dens[0] > dens[-1]


@pytest.mark.parametrize("values", [[0.5, math.nan], [math.nan], [-0.5, 0.5], [0.5, 1.5]])
def test_density_refuses_values_outside_the_unit_interval(values):
    with pytest.raises(ValueError, match=r"trust values must lie in \[0, 1\]"):
        trust_density(values)


def test_silverman_bandwidth_formula():
    rng = np.random.default_rng(2)
    v = rng.uniform(size=100)
    iqr = np.subtract(*np.percentile(v, [75, 25]))
    want = 0.9 * min(np.std(v, ddof=1), iqr / 1.34) * 100 ** (-0.2)
    assert silverman_bandwidth(v) == pytest.approx(want, rel=1e-12)
    assert silverman_bandwidth(np.full(30, 0.4)) > 0.0


def percentile_bandwidth(values):
    """Silverman's rule with its IQR from np.percentile."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    std = float(v.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(v, [75.0, 25.0])
    spread = [s for s in (std, float(q75 - q25) / 1.34) if s > 0.0]
    return (0.9 * min(spread) if spread else 0.09) * n ** (-0.2)


# ties from a few repeated values, signed zeros among them
trust_like = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                       st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(trust_like, min_size=1, max_size=80))
@example(values=[0.5])
@example(values=[0.25, 1.0])
@example(values=[0.0, 0.5, 0.5])
@example(values=[-0.0, 0.0, 0.0, 1.0])
@example(values=[0.0, 0.25, 0.5, 0.75, 1.0, math.nan])
@example(values=[0.0, math.inf, 1.0, 1.0])
def test_silverman_bandwidth_matches_percentile_bit_for_bit(values):
    with np.errstate(invalid="ignore"):
        got, want = silverman_bandwidth(values), percentile_bandwidth(values)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def test_conditional_density_filters_on_actual_class():
    records = [rec(0, 0, 0.95)] * 5 + [rec(0, 1, 0.9)] * 5 + [rec(1, 1, 0.8)] * 4
    report = build_trust_report(records)
    grid, dc, dw = report.grid, report.curves["0_correct"], report.curves["0_incorrect"]
    assert dc is not None and dw is not None
    # correct side peaks high, incorrect side peaks low
    assert grid[np.argmax(dc)] > 0.7
    assert grid[np.argmax(dw)] < 0.3
    dc1, dw1 = report.curves["1_correct"], report.curves["1_incorrect"]
    assert dw1 is None          # no wrong predictions among actual-1 records
    assert dc1 is not None


def test_conditional_density_rejects_empty_class():
    records = [rec(0, 0, 0.9)]
    with pytest.raises(ValueError, match=r"no samples with actual class\(es\) \[1\]"):
        build_trust_report(records)


# --- report ---


def test_report_counts_partition_records():
    records = random_records(120, seed=11)
    report = build_trust_report(records)
    assert report.n == len(records)
    assert sum(report.class_counts.values()) == report.n
    t_ref, nts_ref = oracle_spectrum(records, 1.0, 1.0)
    assert report.nts == pytest.approx(nts_ref, abs=1e-12)


def test_report_carries_class_names():
    records = random_records(60, seed=13)
    report = build_trust_report(records, class_names=("pass", "fail"))
    assert report.class_names == ("pass", "fail")


def test_report_scores_each_record_once(monkeypatch):
    calls = []

    def counting_qa_trust(*args):
        calls.append(args[0].trial_id)
        return qa_trust(*args)

    monkeypatch.setattr(skillseq.trust, "qa_trust", counting_qa_trust)
    records = random_records(10, seed=17)
    build_trust_report(records)
    assert sorted(calls) == sorted(r.trial_id for r in records)


def test_report_curves_are_the_densities_of_each_subset():
    """Each curve is trust_density of its subset's trust values, in
    record order, bit for bit; an empty subset has no curve."""
    records = random_records(40, seed=19, n_classes=3)
    records = [r for r in records if not (r.actual == 2 and r.predicted != 2)]
    report = build_trust_report(records, class_names=("a", "b", "c"))
    names = ["correct", "incorrect"] + [f"{c}_{side}" for c in "abc"
                                        for side in ("correct", "incorrect")]
    assert list(report.curves) == names
    qa = trust_values(records)
    ok = [r.predicted == r.actual for r in records]
    subsets = [ok, [not o for o in ok]] + [
        [r.actual == z and o == side for r, o in zip(records, ok)]
        for z in range(3) for side in (True, False)]
    for name, keep in zip(names, subsets):
        want = trust_density(qa[keep])[1] if any(keep) else None
        got = report.curves[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.tobytes() == want.tobytes(), name
    assert report.curves["c_incorrect"] is None
    assert report.mean_correct == float(qa[ok].mean())


def test_report_refuses_repeated_class_names():
    """Curves are keyed by class name, so a repeated name would drop one."""
    with pytest.raises(ValueError, match="class names must be distinct"):
        build_trust_report(random_records(20, seed=23), class_names=("a", "a"))
