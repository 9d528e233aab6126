"""Cross-validation failure modes: a training set that
``modes.training_fault`` refuses, which fails its fold alone (also inside
the masking study) and reads the same through ``train-classifier``, a
non-finite loss named by fold, stage, epoch and trial, and test trials
without a target, which no metric counts."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from skillseq.cli import dispatch
from skillseq.config import RunSettings
from skillseq.crossval import run_cv, validate_cams
from skillseq.data import DOWNSAMPLED, Dataset, dataset_fingerprint, load_manifest
from skillseq.explain import mask_trial, read_cams_csv
from skillseq.folds import Fold, FoldAssignment
from skillseq.model import prepare_dataset
from skillseq.modes import MODES, training_fault
from skillseq.records import read_records_csv
from skillseq.reports import kv_line
from skillseq.synth import SynthSpec
from skillseq.training import DaeConfig, HeadConfig
from conftest import SMALL_ARCH, make_trial, synth_dataset

SETTINGS = RunSettings(mode="classification", scheme="louo", seed=2,
                       dae=DaeConfig(max_epochs=1), clf=HeadConfig(max_epochs=2),
                       arch=SMALL_ARCH)


def test_failed_guard_fold_is_skipped_by_the_masking_study(tmp_path):
    # only S01 fails, so the fold testing S01 trains on a single class
    synth = synth_dataset(SynthSpec(n_subjects=3, trials_per_subject=6, seed=4))
    dataset = Dataset([replace(t, class_label="fail" if t.subject_id == "S01" else "pass")
                       for t in synth.trials])
    run = run_cv(dataset, SETTINGS, out_dir=str(tmp_path / "run"))
    status = {o.name: o.status for o in run.outcomes}
    assert status == {"S01": "failed: single-class training data (pass)",
                      "S02": "ok", "S03": "ok"}

    study = validate_cams(str(tmp_path / "run"), out_dir=str(tmp_path / "study"),
                          dataset=dataset)
    assert study.before["S01"] is None and study.after["S01"] is None
    assert study.before["S02"] is not None and study.after["S02"] is not None
    text = (tmp_path / "study" / "cam_validation.txt").read_text(encoding="utf-8")
    assert text == study.text
    assert "fold S01 status = skipped: no baseline predictions\n" in text
    assert "fold S02 status" not in text
    # the skipped fold's trials keep their values (all-ones mask); the
    # others are attenuated by their recorded maps
    cams = {}
    for fold in ("S02", "S03"):
        cams.update(read_cams_csv(str(tmp_path / "run" / f"fold_{fold}" / "cams.csv")))
    expected = Dataset([t if t.subject_id == "S01" else mask_trial(t, cams[t.trial_id])
                        for t in prepare_dataset(dataset, SETTINGS.target_hz).trials])
    assert study.masked_sha256 == dataset_fingerprint(expected)


def test_a_replayed_fold_without_training_trials_fails_alone():
    """A replayed roster (a ``folds.txt`` edited by hand) may give a fold
    no training trial: that fold fails by name and the other trains."""
    synth = synth_dataset(SynthSpec(n_subjects=3, trials_per_subject=6, seed=4))
    ids = {s: tuple(t.trial_id for t in synth.trials if t.subject_id == s)
           for s in ("S01", "S02", "S03")}
    folds = (Fold(name="S01", train_ids=(), test_ids=ids["S01"]),
             Fold(name="S02", train_ids=ids["S01"] + ids["S03"], test_ids=ids["S02"]))
    run = run_cv(synth, SETTINGS, fold_assignment=FoldAssignment("louo", 2, folds))
    assert {o.name: o.status for o in run.outcomes} == {
        "S01": "failed: training needs at least two trials", "S02": "ok"}


@pytest.mark.parametrize("stage, flag", [("DAE", "--dae-learning-rate"),
                                         ("head", "--clf-learning-rate")])
def test_non_finite_loss_names_fold_stage_epoch_and_trial(tmp_path, capsys, stage, flag):
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "11", "--n-subjects", "3",
                     "--trials-per-subject", "8", "--pass-fraction", "0.5"]) == 0
    capsys.readouterr()
    # steps of size ~1e300 overflow the activity penalty on the next trial
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = dispatch(["evaluate", "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "run"), "--scheme", "stratified3",
                       "--dae-max-epochs", "1", "--clf-max-epochs", "1",
                       "--arch-enc-width", "2", "--arch-emb-channels", "2",
                       "--arch-clf-width", "2", flag, "1e300"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert len(err) == 1
    assert err[0].startswith(f"error: runtime: fold 0: {stage}: non-finite training loss "
                             "at epoch 1 on trial S")


def test_non_finite_validation_loss_names_the_stage_epoch_and_trial(tmp_path, capsys):
    """Two trials of one class split into one training and one validation
    trial: a step of size ~1e300 leaves the one training loss finite and
    the validation loss not."""
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "1", "--n-subjects", "3",
                     "--trials-per-subject", "4", "--pass-fraction", "0.5"]) == 0
    manifest = _subset(data / "manifest.csv", "S01_000", "S02_000")
    assert {t.class_label for t in load_manifest(str(manifest)).trials} == {"pass"}
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = dispatch(["train-dae", "--manifest", str(manifest), "--out", str(tmp_path / "m"),
                       "--dae-learning-rate", "1e300"])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "error: runtime: DAE: non-finite validation loss at epoch 1 on trial S01:0"]


def _subset(manifest, *stems):
    """A manifest beside ``manifest`` of the trial files whose names start
    with one of ``stems``."""
    rows = manifest.read_text().splitlines(keepends=True)
    path = manifest.parent / "subset.csv"
    path.write_text(rows[0] + "".join(row for row in rows[1:]
                                      if row.split("/")[-1].startswith(stems)))
    return path


def _gx_constant(text):
    """``text`` with every cell of channel ``gx`` set to 100.0."""
    lines = text.split("\n")
    start = next(k for k, line in enumerate(lines) if line.startswith("t,"))
    column = lines[start].split(",").index("gx")
    for k in range(start + 1, len(lines)):
        if lines[k]:
            cells = lines[k].split(",")
            cells[column] = "100.0"
            lines[k] = ",".join(cells)
    return "\n".join(lines)


def _tagged(key, value):
    return lambda text: re.sub(rf"(?m)^# {key}=.*$", f"# {key}={value}", text)


# id -> (mode, subjects, trials per subject, {trial file stem prefix: edit},
#        the folds that fail, the fault); each fault lies in S02 and S03
TRAINING_FAULTS = {
    "too-few": ("classification", 2, 1, {}, ("S01", "S02"),
                "training needs at least two trials"),
    "constant-channel": ("classification", 3, 4, {"S02": _gx_constant, "S03": _gx_constant},
                         ("S01",), "channel 'gx' is constant over the training trials"),
    "unlabeled": ("classification", 3, 4, {"S02_000": _tagged("class", "NA")},
                  ("S01", "S03"), "training trial without class label"),
    "single-class": ("classification", 3, 4,
                     {"S01": _tagged("class", "fail"), "S02": _tagged("class", "pass"),
                      "S03": _tagged("class", "pass")},
                     ("S01",), "single-class training data (pass)"),
    "unscored": ("regression", 3, 4, {"S02_000": _tagged("score", "NA")}, ("S01", "S03"),
                 "training trial without score"),
    "constant-scores": ("regression", 3, 4,
                        {"S02": _tagged("score", "50.0"), "S03": _tagged("score", "50.0")},
                        ("S01",), "constant training scores"),
}


def _faulty_data(tmp_path, case):
    """The synthetic dataset of ``case`` with its edits, and a manifest of
    its S02 and S03 trials alone."""
    _, subjects, trials, edits, _, _ = TRAINING_FAULTS[case]
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "1", "--n-subjects", str(subjects),
                     "--trials-per-subject", str(trials), "--pass-fraction", "0.5"]) == 0
    for path in sorted((data / "trials").iterdir()):
        for stem, edit in edits.items():
            if path.stem.startswith(stem):
                path.write_text(edit(path.read_text()))
    return data / "manifest.csv", _subset(data / "manifest.csv", "S02", "S03")


@pytest.mark.parametrize("case", list(TRAINING_FAULTS))
def test_a_training_fault_reads_the_same_in_train_classifier_and_in_its_fold(tmp_path, capsys,
                                                                            case):
    """``train-classifier`` refuses the faulty S02 and S03 by the same text
    that each ``louo`` fold training on them records as its status, and
    the study finishes."""
    mode, subjects, _, _, failing, fault = TRAINING_FAULTS[case]
    manifest, subset = _faulty_data(tmp_path, case)
    capsys.readouterr()
    assert dispatch(["train-classifier", "--manifest", str(subset), "--out", str(tmp_path / "m"),
                     "--mode", mode, *FAST]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: runtime: {subset}: {fault}"
    run = tmp_path / "run"
    assert dispatch(["evaluate", "--manifest", str(manifest), "--out", str(run),
                     "--mode", mode, "--scheme", "louo", *FAST]) == 0
    metrics = (run / "metrics.txt").read_text(encoding="utf-8")
    for k in range(1, subjects + 1):
        fold = f"S{k:02d}"
        want = f"failed: {fault}" if fold in failing else "ok"
        assert f"fold {fold} status = {want}\n" in metrics


def test_train_classifier_over_a_given_dae_takes_a_constant_channel(tmp_path):
    """Only a stage that fits min-max statistics refuses a constant
    channel: over an autoencoder trained elsewhere the head trains."""
    manifest, subset = _faulty_data(tmp_path, "constant-channel")
    assert dispatch(["train-dae", "--manifest", str(manifest), "--out", str(tmp_path / "dae"),
                     *FAST]) == 0
    assert dispatch(["train-classifier", "--manifest", str(subset), "--out", str(tmp_path / "m"),
                     "--dae", str(tmp_path / "dae" / "dae.skq"), *FAST]) == 0


def _rule_trials(edit=None):
    """Four downsampled trials, two per class, each with its own score;
    ``edit(k, trial)`` changes the k-th."""
    trials = [make_trial(np.column_stack([np.arange(3.0) + k, np.arange(3.0) * k]),
                         index=k, score=float(k), label=("pass", "fail")[k % 2],
                         channels=("gx", "gy"), stage=DOWNSAMPLED) for k in range(4)]
    return [edit(k, t) if edit else t for k, t in enumerate(trials)]


@pytest.mark.parametrize("mode, edit, fault", [
    (None, lambda k, t: t if k == 0 else None, "training needs at least two trials"),
    (None, lambda k, t: replace(t, values=np.full((3, 2), 7.0)),
     "channel 'gx' is constant over the training trials"),
    ("classification", lambda k, t: replace(t, class_label=None if k == 3 else t.class_label),
     "training trial without class label"),
    ("classification", lambda k, t: replace(t, class_label="pass"),
     "single-class training data (pass)"),
    ("regression", lambda k, t: replace(t, score=None if k == 3 else t.score),
     "training trial without score"),
    ("regression", lambda k, t: replace(t, score=50.0), "constant training scores"),
], ids=["too-few", "constant-channel", "unlabeled", "single-class", "unscored",
        "constant-scores"])
def test_training_fault_names_each_fault(mode, edit, fault):
    trials = [t for t in _rule_trials(edit) if t is not None]
    assert training_fault(trials, mode) == fault
    assert training_fault(_rule_trials(), mode) is None


def test_training_fault_names_the_first_fault_and_skips_what_its_stage_does_not_fit():
    """Faults come in order: too few trials, a constant channel, a missing
    target, one distinct target.  A stage that fits no min-max statistics
    checks no channel, and one without a mode no target."""
    trials = _rule_trials(lambda k, t: replace(t, values=np.full((3, 2), 7.0), class_label=None))
    assert training_fault([], "classification") == "training needs at least two trials"
    assert training_fault(trials, "classification") == \
        "channel 'gx' is constant over the training trials"
    assert training_fault(trials, "classification", minmax=False) == \
        "training trial without class label"
    assert training_fault(trials, minmax=False) is None


def _retagged(data, key, edit):
    """Rewrite each trial file of ``data`` with ``edit(subject, trial, line)``
    as its ``# <key>=`` line (None drops the line)."""
    for path in sorted((data / "trials").iterdir()):
        lines = path.read_text().splitlines(keepends=True)
        subject, trial = path.stem.split("_")
        out = []
        for line in lines:
            if line.startswith(f"# {key}="):
                line = edit(subject, int(trial), line)
                if line is None:
                    continue
            out.append(line)
        path.write_text("".join(out))


FAST = ("--dae-max-epochs", "1", "--clf-max-epochs", "1", "--arch-enc-width", "2",
        "--arch-emb-channels", "2", "--arch-clf-width", "2")


@pytest.mark.parametrize("score, failing, status", [
    # S01's first trial has no score: every fold that trains on it fails
    (lambda s, i, line: None if (s, i) == ("S01", 0) else line, ("S02", "S03"),
     "failed: training trial without score"),
    # S02 and S03 share one score: the fold testing S01 trains on them alone
    (lambda s, i, line: line if s == "S01" else "# score=50.0\n", ("S01",),
     "failed: constant training scores"),
], ids=["unscored", "constant"])
def test_a_regression_fold_guard_fails_its_fold_and_the_study_finishes(tmp_path, capsys,
                                                                      score, failing, status):
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "11", "--n-subjects", "3",
                     "--trials-per-subject", "4"]) == 0
    _retagged(data, "score", score)
    run = tmp_path / "run"
    assert dispatch(["evaluate", "--manifest", str(data / "manifest.csv"), "--out", str(run),
                     "--mode", "regression", "--scheme", "louo", *FAST]) == 0
    metrics = (run / "metrics.txt").read_text(encoding="utf-8")
    for fold in ("S01", "S02", "S03"):
        want = status if fold in failing else "ok"
        assert f"fold {fold} status = {want}\n" in metrics
        assert (run / f"fold_{fold}" / "predictions.csv").exists() == (fold not in failing)
    assert f"pooled n = {4 * (3 - len(failing))}\n" in metrics


@pytest.mark.parametrize("mode, key, unknown", [
    ("classification", "class", "# class=NA\n"),
    ("regression", "score", None),
])
def test_metrics_count_only_the_test_trials_whose_target_is_known(tmp_path, mode, key,
                                                                  unknown):
    """S01's first trial has no class (no score), so only the fold testing
    S01 trains.  Its metrics, the pooled ones and the masking study's
    "before" ones measure S01's three other trials alone, as ``predict``'s
    accuracy does; the ``n`` lines count all four."""
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "11", "--n-subjects", "3",
                     "--trials-per-subject", "4"]) == 0
    _retagged(data, key, lambda s, i, line: unknown if (s, i) == ("S01", 0) else line)
    run = tmp_path / "run"
    assert dispatch(["evaluate", "--manifest", str(data / "manifest.csv"), "--out", str(run),
                     "--mode", mode, "--scheme", "louo", *FAST]) == 0
    _, records = read_records_csv(str(run / "fold_S01" / "predictions.csv"))
    assert [r.trial_id for r in records] == ["S01:0", "S01:1", "S01:2", "S01:3"]
    want = MODES[mode].measure(records[1:])
    metrics = (run / "metrics.txt").read_text(encoding="utf-8")
    for line in ("fold S01 status = ok", "fold S01 n = 4", "pooled n = 4",
                 *(kv_line(f"{side} {m}", v) for side in ("fold S01", "pooled")
                   for m, v in want.items())):
        assert line + "\n" in metrics, line
    if mode == "classification":
        # S01's labeled trials all pass: no negatives, so no specificity
        assert "fold S01 accuracy = 0\n" in metrics
        assert "fold S01 specificity = NA\n" in metrics
        study = validate_cams(str(run), out_dir=str(tmp_path / "study"))
        assert study.before["S01"] == want
