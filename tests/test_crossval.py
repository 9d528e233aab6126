"""Cross-validation failure modes: a fold that fails its guard inside the
masking study or in a regression run, and a non-finite loss named by
fold, stage, epoch and trial."""

from dataclasses import replace

import numpy as np
import pytest

from skillseq.cli import dispatch
from skillseq.config import RunSettings
from skillseq.crossval import run_cv, validate_cams
from skillseq.data import Dataset, dataset_fingerprint
from skillseq.explain import mask_trial, read_cams_csv
from skillseq.model import prepare_dataset
from skillseq.synth import SynthSpec
from skillseq.training import DaeConfig, HeadConfig
from conftest import SMALL_ARCH, synth_dataset

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


@pytest.mark.parametrize("stage, flag", [("DAE", "--dae-learning-rate"),
                                         ("head", "--clf-learning-rate")])
def test_non_finite_loss_names_fold_stage_epoch_and_trial(tmp_path, capsys, stage, flag):
    data = tmp_path / "data"
    assert dispatch(["synth", "--out", str(data), "--seed", "11", "--n-subjects", "3",
                     "--trials-per-subject", "8", "--pass-fraction", "0.5"]) == 0
    capsys.readouterr()
    # steps of size ~1e300 overflow the activity penalty on the next trial
    with np.errstate(over="ignore", invalid="ignore"):
        rc = dispatch(["evaluate", "--manifest", str(data / "manifest.csv"),
                       "--out", str(tmp_path / "run"), "--scheme", "stratified3",
                       "--dae-max-epochs", "1", "--clf-max-epochs", "1",
                       "--arch-enc-width", "2", "--arch-emb-channels", "2",
                       "--arch-clf-width", "2", flag, "1e300"])
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert rc == 1
    assert err.startswith(f"error: runtime: fold 0: {stage}: non-finite training loss "
                          "at epoch 1 on trial S")


def _rescored(data, score):
    """Rewrite each trial file of ``data`` with ``score(subject, trial, line)``
    as its ``# score=`` line (None drops the line)."""
    for path in sorted((data / "trials").iterdir()):
        lines = path.read_text().splitlines(keepends=True)
        subject, trial = path.stem.split("_")
        out = []
        for line in lines:
            if line.startswith("# score="):
                line = score(subject, int(trial), line)
                if line is None:
                    continue
            out.append(line)
        path.write_text("".join(out))


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
    _rescored(data, score)
    run = tmp_path / "run"
    assert dispatch(["evaluate", "--manifest", str(data / "manifest.csv"), "--out", str(run),
                     "--mode", "regression", "--scheme", "louo", "--dae-max-epochs", "1",
                     "--clf-max-epochs", "1", "--arch-enc-width", "2",
                     "--arch-emb-channels", "2", "--arch-clf-width", "2"]) == 0
    metrics = (run / "metrics.txt").read_text(encoding="utf-8")
    for fold in ("S01", "S02", "S03"):
        want = status if fold in failing else "ok"
        assert f"fold {fold} status = {want}\n" in metrics
        assert (run / f"fold_{fold}" / "predictions.csv").exists() == (fold not in failing)
    assert f"pooled n = {4 * (3 - len(failing))}\n" in metrics
