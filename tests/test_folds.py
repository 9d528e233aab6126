"""Fold construction: coverage, disjointness, stratification, grouping,
and ``assign``'s dispatch from the scheme token."""

import re

import numpy as np
import pytest

from conftest import make_trial
from skillseq.folds import FoldAssignment, assign, stratified_kfold


def roster(n, pass_fraction=0.9, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"S{i % 7}:{i}" for i in range(n)]
    labels = ["pass" if rng.uniform() < pass_fraction else "fail" for _ in ids]
    # ensure both classes appear
    labels[0], labels[1] = "pass", "fail"
    return ids, labels


def check_partition(assignment, ids):
    """Every id in exactly one test set; train/test disjoint; train+test=all."""
    seen = []
    universe = set(ids)
    for fold in assignment.folds:
        train, test = set(fold.train_ids), set(fold.test_ids)
        assert not train & test
        assert train | test == universe
        seen.extend(fold.test_ids)
    assert sorted(seen) == sorted(ids)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [2, 5, 10])
def test_stratified_partition_properties(k, seed):
    ids, labels = roster(57, seed=seed)
    a = stratified_kfold(ids, labels, k, seed)
    assert len(a.folds) == k
    check_partition(a, ids)


@pytest.mark.parametrize("seed", range(8))
def test_stratified_class_balance_within_one(seed):
    ids, labels = roster(100, seed=seed)
    by_label = {lb: sum(1 for l in labels if l == lb) for lb in set(labels)}
    a = stratified_kfold(ids, labels, 10, seed)
    label_of = dict(zip(ids, labels))
    for lb, total in by_label.items():
        per_fold = [sum(1 for t in f.test_ids if label_of[t] == lb)
                    for f in a.folds]
        assert max(per_fold) - min(per_fold) <= 1, (lb, per_fold)


def test_stratified_deterministic_and_seed_sensitive():
    ids, labels = roster(40)
    a = stratified_kfold(ids, labels, 5, seed=3)
    b = stratified_kfold(ids, labels, 5, seed=3)
    c = stratified_kfold(ids, labels, 5, seed=4)
    assert a.canonical_text() == b.canonical_text()
    assert a.canonical_text() != c.canonical_text()


def test_stratified_rejects_bad_k():
    ids, labels = roster(10)
    with pytest.raises(ValueError):
        stratified_kfold(ids, labels, 1, 0)
    with pytest.raises(ValueError):
        stratified_kfold(ids, labels, 11, 0)


def trials_grid(n_subjects, per_subject):
    out = []
    for s in range(n_subjects):
        for i in range(per_subject):
            out.append(make_trial([1.0, 2.0], subject=f"U{s}", index=i,
                                  label="pass" if (s + i) % 3 else "fail"))
    return out


def test_loso_holds_out_one_trial_index_per_fold():
    trials = trials_grid(4, 12)
    a = assign("loso", trials, seed=7)
    assert (a.scheme, a.seed) == ("loso", 0)
    # folds in numeric order of the trial index: trial9 before trial10
    assert [f.name for f in a.folds] == [f"trial{i}" for i in range(12)]
    check_partition(a, [t.trial_id for t in trials])
    for i, fold in enumerate(a.folds):
        assert {int(tid.split(":")[1]) for tid in fold.test_ids} == {i}
        subjects = {tid.split(":")[0] for tid in fold.test_ids}
        assert len(subjects) == 4


def test_louo_holds_out_one_subject_per_fold():
    trials = trials_grid(6, 4)
    a = assign("louo", trials, seed=7)
    assert (a.scheme, a.seed) == ("louo", 0)
    assert [f.name for f in a.folds] == [f"U{s}" for s in range(6)]
    check_partition(a, [t.trial_id for t in trials])
    for fold in a.folds:
        test_subjects = {tid.split(":")[0] for tid in fold.test_ids}
        train_subjects = {tid.split(":")[0] for tid in fold.train_ids}
        assert test_subjects == {fold.name}
        assert not test_subjects & train_subjects


@pytest.mark.parametrize("scheme, n_subjects, per_subject, refusal", [
    ("loso", 3, 1, "leave-one-supertrial-out needs at least two distinct trial indices"),
    ("louo", 1, 3, "leave-one-user-out needs at least two subjects"),
])
def test_leave_one_out_refuses_a_single_group(scheme, n_subjects, per_subject, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        assign(scheme, trials_grid(n_subjects, per_subject), seed=0)


def test_assign_stratified_is_stratified_kfold_of_ids_and_labels():
    trials = trials_grid(5, 4)
    a = assign("stratified3", trials, seed=4)
    b = stratified_kfold([t.trial_id for t in trials], [t.class_label for t in trials], 3, 4)
    assert a.scheme == "stratified3" and a.seed == 4
    assert a.canonical_text() == b.canonical_text()


def test_canonical_text_round_trip():
    ids, labels = roster(30)
    a = stratified_kfold(ids, labels, 3, seed=9)
    back = FoldAssignment.from_canonical_text(a.canonical_text())
    assert back == a
    assert back.fingerprint() == a.fingerprint()


def test_unrecognized_fold_text_key_is_echoed_bounded():
    key = "k" * 100_000
    with pytest.raises(ValueError, match=re.escape(
            f"fold text line 3: unrecognized key {key[:40]!r}... (100,000 characters)") + "$"):
        FoldAssignment.from_canonical_text(f"scheme = louo\nseed = 0\n{key} = 1\n")


def test_fingerprint_changes_with_membership():
    ids, labels = roster(30)
    a = stratified_kfold(ids, labels, 3, seed=0)
    b = stratified_kfold(ids, labels, 3, seed=1)
    assert a.fingerprint() != b.fingerprint()


def test_assignment_validates_overlap():
    from skillseq.folds import Fold
    with pytest.raises(ValueError, match="overlap"):
        FoldAssignment(scheme="stratified2", seed=0, folds=(
            Fold(name="0", train_ids=("a", "b"), test_ids=("b",)),
        ))


def test_assignment_rejects_empty_test():
    from skillseq.folds import Fold
    with pytest.raises(ValueError, match="empty test"):
        FoldAssignment(scheme="stratified2", seed=0, folds=(
            Fold(name="0", train_ids=("a",), test_ids=()),
        ))


@pytest.mark.parametrize("role, train, test", [
    ("test", ("a", "b"), ("c", "d", "c")),
    ("train", ("a", "b", "a"), ("c",)),
], ids=["test", "train"])
def test_assignment_rejects_an_id_listed_twice(role, train, test):
    from skillseq.folds import Fold
    with pytest.raises(ValueError, match=f"^fold 1: trial (a|c) appears twice in its {role} "
                                         "list$"):
        FoldAssignment(scheme="stratified2", seed=0, folds=(
            Fold(name="0", train_ids=("c", "d"), test_ids=("a", "b")),
            Fold(name="1", train_ids=train, test_ids=test),
        ))
