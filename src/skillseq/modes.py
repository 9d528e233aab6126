"""Skill modes: the one table of what a pass/fail class and a regressed
score mean, and the one rule of which trials can train.

Each entry of ``MODES`` gives the head's output units, tail and loss, how
a trial's target is read and when it is unknown, its training-set
faults, the fold metrics and whether a fold writes activation maps.
The model, training, cross-validation, bundle and CLI modules read it;
no other module compares a mode name.  Metrics count known targets only:
an unlabeled or unscored test trial counts neither for nor against a model.
``training_fault`` runs before anything trains: the CLI refuses a
training set by its text, and a fold records it as its failed status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import PASS_FAIL, apply_znorm, class_weights, fit_znorm, invert_znorm, one_hot
from .metrics import binary_metrics, roc_auc, spearman
from .reports import quoted

__all__ = ["Mode", "MODES", "fold_metrics", "training_fault"]


@dataclass(frozen=True)
class Mode:
    """One skill mode of ``MODES``: its head, targets, faults and metrics."""

    units: tuple            # the head's dense outputs: the classes, or one score unit
    classes: tuple | None   # the units of a classifier, None for a regressor
    tail: tuple             # the layer kinds after the dense layer
    head: str               # what a refusal of any other head says it must be
    loss: str               # the head's loss kind
    target: Callable        # trial -> its target, None when it has none
    known: Callable         # prediction record -> whether its target is known
    targets: Callable       # (trials, head config) -> targets, loss weights, strata, stats
    read_out: Callable      # (head output, score stats) -> a record's prediction fields
    faults: tuple           # a training trial without a target; one distinct target ({})
    metrics: tuple          # what ``measure`` computes over known records, in order
    measure: Callable
    cams: bool              # whether a fold writes activation maps


def _class_targets(trials, config):
    labels = [t.class_label for t in trials]
    targets = [one_hot(lb, PASS_FAIL) for lb in labels]
    if config.class_weighting == "balanced":
        by_class = class_weights(labels, PASS_FAIL)
        weights = [by_class[PASS_FAIL.index(lb)] for lb in labels]
    else:
        weights = [1.0] * len(trials)
    return targets, weights, labels, None


def _score_targets(trials, config):
    stats = fit_znorm([t.score for t in trials], ids=[t.trial_id for t in trials])
    return ([np.array([apply_znorm(t.score, stats)]) for t in trials], [1.0] * len(trials),
            [""] * len(trials), stats)


def _class_metrics(records):
    actual = [r.actual for r in records]
    bm = binary_metrics(actual, [r.predicted for r in records])
    try:
        auc = roc_auc(np.array([r.confidences[0] for r in records]),
                      np.array([a == 0 for a in actual]))
    except ValueError:
        auc = None
    return {"accuracy": bm.accuracy, "auc": auc,
            "sensitivity": bm.sensitivity, "specificity": bm.specificity}


def _score_metrics(records):
    try:
        rho, p = spearman([r.true_score for r in records], [r.pred_score for r in records])
    except ValueError:
        rho = p = None
    return {"spearman": rho, "spearman_p": p}


MODES = {
    "classification": Mode(
        units=PASS_FAIL, classes=PASS_FAIL, tail=("softmax",), head="end in a 2-way softmax",
        loss="cosine",
        target=lambda t: t.class_label, known=lambda r: r.actual is not None,
        targets=_class_targets,
        # np.argmax returns the first (lowest) maximum
        read_out=lambda out, _: {"predicted": int(np.argmax(out)),
                                 "confidences": tuple(float(c) for c in out)},
        faults=("training trial without class label", "single-class training data ({})"),
        metrics=("accuracy", "auc", "sensitivity", "specificity"), measure=_class_metrics,
        cams=True),
    "regression": Mode(
        units=("score",), classes=None, tail=(), head="be a single linear unit", loss="mse",
        target=lambda t: t.score, known=lambda r: r.true_score is not None,
        targets=_score_targets,
        read_out=lambda out, stats: {"pred_score": invert_znorm(float(out[0]), stats)},
        faults=("training trial without score", "constant training scores"),
        metrics=("spearman", "spearman_p"), measure=_score_metrics, cams=False),
}


def fold_metrics(mode, records):
    """The metrics of ``mode`` over the records whose target is known;
    each is None when none is."""
    entry = MODES[mode]
    known = [r for r in records if entry.known(r)]
    return entry.measure(known) if known else dict.fromkeys(entry.metrics)


def training_fault(trials, mode=None, minmax=True):
    """The text of the first fault that keeps downsampled ``trials`` from
    training, or None.  In order: fewer than two trials; a channel
    constant over them, when ``minmax`` says the stage fits min-max
    statistics on them; and, when a ``mode`` head trains on them, a trial
    without a target or fewer than two distinct targets."""
    if len(trials) < 2:
        return "training needs at least two trials"
    entry = MODES.get(mode)
    first = trials[0].values[0]
    varies = np.zeros(len(first), dtype=bool)
    targets = set()
    for t in trials:
        if minmax:
            varies |= (t.values != first).any(axis=0)
        if entry:
            targets.add(entry.target(t))
    if minmax and not varies.all():
        name = trials[0].channels[int(np.argmin(varies))]
        return f"channel {quoted(name)} is constant over the training trials"
    if None in targets:
        return entry.faults[0]
    if entry and len(targets) < 2:
        return entry.faults[1].format(*targets)
    return None
