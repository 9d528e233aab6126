"""Cross-validation folds: the one reader of a scheme token.

``parse_scheme`` is the scheme grammar, ``SCHEME_RULE`` its text in a
settings error, and ``assign`` builds the roster of any valid token:

* ``stratified<k>``: class proportions preserved within one sample per
  fold; assignment shuffled per class under the run seed.
* ``loso``, leave-one-supertrial-out: fold ``trial<i>`` holds out every
  subject's trial with index i, so repetitions of the same exercise
  never split across train and test.
* ``louo``, leave-one-user-out: one fold per subject, named by its id;
  tests generalization to an unseen operator.

The two leave-one-out schemes share one builder; each one's ``_GROUPS``
entry gives a trial's group, a group's fold name, and the refusal of a
dataset with fewer than two groups.  A FoldAssignment is pure data (id
lists), so a persisted assignment can be replayed exactly against the
same dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .data import integer
from .reports import quoted
from .seeding import make_rng, PURPOSE

__all__ = ["FoldAssignment", "SCHEME_RULE", "parse_scheme", "assign", "stratified_kfold"]

SCHEME_RULE = "stratified<k> (k >= 2), loso or louo"

_GROUPS = {
    "loso": (lambda t: t.trial_index, lambda i: f"trial{i}",
             "leave-one-supertrial-out needs at least two distinct trial indices"),
    "louo": (lambda t: t.subject_id, str, "leave-one-user-out needs at least two subjects"),
}


def parse_scheme(token):
    """'stratified<k>' (k >= 2) | 'loso' | 'louo' -> (kind, k or None);
    None for any other token."""
    tail = token[len("stratified"):]
    if token.startswith("stratified") and tail.isdigit() and int(tail) >= 2:
        return "stratified", int(tail)
    return (token, None) if token in _GROUPS else None


@dataclass(frozen=True)
class Fold:
    name: str
    train_ids: tuple
    test_ids: tuple


@dataclass(frozen=True)
class FoldAssignment:
    scheme: str
    seed: int
    folds: tuple

    def __post_init__(self):
        if not self.folds:
            raise ValueError("fold assignment must contain at least one fold")
        for f in self.folds:
            for role, ids in (("test", f.test_ids), ("train", f.train_ids)):
                if len(set(ids)) != len(ids):
                    twice = next(i for k, i in enumerate(ids) if i in ids[:k])
                    raise ValueError(f"fold {f.name}: trial {twice} appears twice in its "
                                     f"{role} list")
            if set(f.train_ids) & set(f.test_ids):
                raise ValueError(f"fold {f.name}: train and test overlap")
            if not f.test_ids:
                raise ValueError(f"fold {f.name}: empty test set")

    def canonical_text(self):
        lines = [f"scheme = {self.scheme}", f"seed = {self.seed}"]
        for f in self.folds:
            lines.append(f"fold {f.name} test = {','.join(f.test_ids)}")
            lines.append(f"fold {f.name} train = {','.join(f.train_ids)}")
        return "\n".join(lines) + "\n"

    def fingerprint(self):
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    @staticmethod
    def from_canonical_text(text):
        """Inverse of canonical_text; round-trips byte-identically."""
        scheme = seed = None
        named = {}
        order = []
        for ln, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            key, sep, value = line.partition(" = ")
            if not sep:
                raise ValueError(f"fold text line {ln}: expected 'key = value'")
            if key == "scheme":
                scheme = value
            elif key == "seed":
                try:
                    seed = integer(value)
                except ValueError as exc:
                    raise ValueError(f"fold text line {ln}: key 'seed': {exc}") from None
            elif key.startswith("fold ") and key.endswith((" test", " train")):
                name, role = key[len("fold "):].rsplit(" ", 1)
                if name not in named:
                    named[name] = {}
                    order.append(name)
                named[name][role] = tuple(v for v in value.split(",") if v)
            else:
                raise ValueError(f"fold text line {ln}: unrecognized key {quoted(key)}")
        if scheme is None or seed is None:
            raise ValueError("fold text lacks scheme or seed")
        folds = []
        for name in order:
            parts = named[name]
            if "test" not in parts or "train" not in parts:
                raise ValueError(f"fold {name}: needs both train and test lines")
            folds.append(Fold(name=name, train_ids=parts["train"], test_ids=parts["test"]))
        return FoldAssignment(scheme=scheme, seed=seed, folds=tuple(folds))


def stratified_kfold(ids, labels, k, seed):
    """k folds of the unique ``ids`` preserving the class proportions of ``labels``.

    Within each class, ids are shuffled under the run seed and dealt to
    folds in chunks of n_c // k, with the first n_c %% k folds taking
    one extra; every trial appears in exactly one test set.
    """
    ids = list(ids)
    labels = list(labels)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(ids) < k:
        raise ValueError(f"cannot make {k} folds from {len(ids)} trials")
    unlabeled = next((i for i, lb in zip(ids, labels) if lb is None), None)
    if unlabeled is not None:
        raise ValueError("stratified folds need a class label on every trial; "
                         f"{unlabeled} has none")
    by_class = {}
    for i, lb in zip(ids, labels):
        by_class.setdefault(lb, []).append(i)
    rng = make_rng(seed, PURPOSE["folds"])
    test_sets = [[] for _ in range(k)]
    for lb in sorted(by_class):
        members = list(by_class[lb])
        rng.shuffle(members)
        n_c = len(members)
        base, extra = divmod(n_c, k)
        start = 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            test_sets[f].extend(members[start:start + size])
            start += size
    all_ids = set(ids)
    folds = []
    for f in range(k):
        test = tuple(test_sets[f])
        in_test = set(test)
        train = tuple(i for i in ids if i not in in_test)
        if not test:
            raise ValueError(f"fold {f} received no test trials; lower k")
        assert set(train) | set(test) == all_ids
        folds.append(Fold(name=str(f), train_ids=train, test_ids=test))
    return FoldAssignment(scheme=f"stratified{k}", seed=seed, folds=tuple(folds))


def assign(scheme, trials, seed):
    """The fold roster of the valid scheme token ``scheme`` over
    ``trials``: ``stratified_kfold`` of their ids and class labels under
    ``seed``, or one fold per ``_GROUPS`` group, in sorted order, under
    seed 0.  A dataset the scheme cannot split is a ValueError."""
    kind, k = parse_scheme(scheme)
    if kind == "stratified":
        return stratified_kfold([t.trial_id for t in trials], [t.class_label for t in trials],
                                k, seed)
    group, fold_name, refusal = _GROUPS[kind]
    groups = sorted({group(t) for t in trials})
    if len(groups) < 2:
        raise ValueError(refusal)
    folds = tuple(Fold(name=fold_name(g),
                       train_ids=tuple(t.trial_id for t in trials if group(t) != g),
                       test_ids=tuple(t.trial_id for t in trials if group(t) == g))
                  for g in groups)
    return FoldAssignment(scheme=kind, seed=0, folds=folds)
