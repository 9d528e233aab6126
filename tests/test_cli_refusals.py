"""Refusals that only outside input reaches, each run through ``dispatch``.

Every case asserts the exit code (2 usage, 1 runtime), that no traceback
is printed, and what the one-line ``error:`` message names: the file,
the flag or, where the message names neither, the fragment that says
what was refused.
"""

import hashlib
import os
import re
import shutil
import struct
from types import SimpleNamespace

import pytest

from skillseq.cli import dispatch

# one DAE and one head epoch at the narrowest widths: these runs only
# need to reach their refusal
FAST = ("--dae-max-epochs", "1", "--clf-max-epochs", "1", "--arch-enc-width", "2",
        "--arch-emb-channels", "2", "--arch-clf-width", "2")


def synth(out, subjects, trials):
    assert dispatch(["synth", "--out", str(out), "--seed", "5", "--n-subjects", str(subjects),
                     "--trials-per-subject", str(trials), "--pass-fraction", "0.5"]) == 0
    return out / "manifest.csv"


def edited(manifest, out, first=None, every=None):
    """A copy of ``manifest``'s dataset under ``out``, with ``first``
    applied to the text of its first trial file and ``every`` to all."""
    shutil.copytree(manifest.parent, out)
    for k, path in enumerate(sorted((out / "trials").iterdir())):
        text = path.read_text()
        if every:
            text = every(text)
        if first and k == 0:
            text = first(text)
        path.write_text(text)
    return out / "manifest.csv"


def without_last_channel(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" if not line.startswith("#") else line + "\n"
                   for line in text.splitlines())


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A synthetic dataset of 2 subjects x 4 trials."""
    return synth(tmp_path_factory.mktemp("refusals") / "data", 2, 4)


@pytest.fixture(scope="module")
def runs(data, tmp_path_factory):
    """A classification and a regression run over ``data``."""
    root = tmp_path_factory.mktemp("refusal_runs")
    for mode in ("classification", "regression"):
        assert dispatch(["evaluate", "--manifest", str(data), "--out", str(root / mode),
                         "--scheme", "louo", "--mode", mode, *FAST]) == 0
    return root


def bundle_file(path, body):
    """``body`` written as a bundle file with a valid checksum."""
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def rate_zero(ctx):
    manifest = edited(ctx.data, ctx.tmp / "d", first=lambda t: t.replace("# rate_hz=1.0",
                                                                         "# rate_hz=0"))
    return ["ingest-check", "--manifest", manifest]


def louo_one_subject(ctx):
    return ["evaluate", "--manifest", synth(ctx.tmp / "d", 1, 4), "--scheme", "louo", *FAST]


def stratified5_two_by_three(ctx):
    return ["evaluate", "--manifest", synth(ctx.tmp / "d", 2, 3), "--scheme", "stratified5",
            *FAST]


def loso_one_index(ctx):
    return ["evaluate", "--manifest", synth(ctx.tmp / "d", 2, 1), "--scheme", "loso", *FAST]


def train_classifier(first, mode="classification"):
    def build(ctx):
        manifest = edited(ctx.data, ctx.tmp / "d", first=first)
        return ["train-classifier", "--manifest", manifest, "--out", ctx.tmp / "out",
                "--mode", mode, *FAST]
    return build


def trust_on(first_row):
    """``trust`` on a records file whose first row is ``first_row``."""
    def build(ctx):
        records = ctx.tmp / "records.csv"
        records.write_text("trial_id,subject,trial,actual,predicted,conf_pass,conf_fail,"
                           f"true_score,pred_score\n{first_row}\n"
                           "S01:1,S01,1,1,0,0.75,0.25,,\n")
        return ["trust", "--records", records, "--out", ctx.tmp / "trust"]
    return build


def cam_overlay_three_channels(ctx):
    manifest = edited(ctx.data, ctx.tmp / "d", every=without_last_channel)
    assert dispatch(["train-classifier", "--manifest", str(manifest),
                     "--out", str(ctx.tmp / "m"), *FAST]) == 0
    return ["cam", "--bundle", ctx.tmp / "m" / "skill.skq", "--manifest", manifest,
            "--out", ctx.tmp / "cams.csv", "--overlay-dir", ctx.tmp / "svg"]


def predict_with(body):
    def build(ctx):
        bundle = bundle_file(ctx.tmp / "b.skq", body)
        return ["predict", "--bundle", bundle, "--manifest", ctx.data,
                "--out", ctx.tmp / "r.csv"]
    return build


def short_bundle(ctx):
    bundle = ctx.tmp / "b.skq"
    bundle.write_bytes(b"SKSQ" + bytes(30))
    return ["predict", "--bundle", bundle, "--manifest", ctx.data, "--out", ctx.tmp / "r.csv"]


def config_with(body):
    def build(ctx):
        config = ctx.tmp / "run.conf"
        config.write_text(body)
        return ["evaluate", "--config", config, "--manifest", ctx.data, *FAST]
    return build


def config_directory(ctx):
    return ["evaluate", "--config", ctx.tmp, "--manifest", ctx.data, *FAST]


def validate_cam(run, drop=None, name="metrics.txt", edit=None):
    """``validate-cam`` on a copy of a run without the file ``drop`` and
    with ``edit`` applied to the text of ``name``; a changed ``folds.txt``
    gets its new fingerprint recorded in ``metrics.txt``."""
    def build(ctx):
        copy = ctx.tmp / "run"
        shutil.copytree(ctx.runs / run, copy)
        if drop:
            os.remove(copy / drop)
        if edit:
            path = copy / name
            path.write_text(edit(path.read_bytes().decode("utf-8")), newline="")
        if name == "folds.txt":
            digest = hashlib.sha256((copy / name).read_bytes()).hexdigest()
            metrics = copy / "metrics.txt"
            metrics.write_text(re.sub(r"(?m)^folds_sha256 = .*$", f"folds_sha256 = {digest}",
                                      metrics.read_text()))
        return ["validate-cam", "--run", copy, "--out", ctx.tmp / "study"]
    return build


def no_folds_line(text):
    return re.sub(r"(?m)^folds_sha256 = .*\n", "", text)


def unknown_training_trial(text):
    return re.sub(r"(?m)^(fold S01 train = .*)$", r"\1,S09:0", text)


def first_test_trial_dropped(text):
    return re.sub(r"(?m)^fold S01 test = [^,]*,", "fold S01 test = ", text)


def mixed_class_indices(text):
    """The second row of the first map names the other class."""
    lines = text.split("\r\n")
    cells = lines[2].split(",")
    cells[1] = str(1 - int(cells[1]))
    lines[2] = ",".join(cells)
    return "\r\n".join(lines)


def trust_on_scores(ctx):
    return ["trust", "--records", ctx.runs / "regression" / "fold_S01" / "predictions.csv",
            "--out", ctx.tmp / "trust"]


META_ARRAY = b"[]"
BAD_MAGIC = b"SKSQ"[::-1] + bytes(64)
ARRAY_META = (b"SKSQ" + struct.pack("<IQ", 1, len(META_ARRAY)) + META_ARRAY
              + struct.pack("<I", 0))

# id -> (argv builder, exit code, a fragment of the message)
CASES = {
    "rate-hz-zero": (rate_zero, 1, "S01_000.csv: sample_rate_hz must be finite and > 0"),
    "louo-one-subject": (louo_one_subject, 1, "leave-one-user-out needs at least two subjects"),
    "stratified5-2x3": (stratified5_two_by_three, 1, "fold 3 received no test trials"),
    "loso-one-index": (loso_one_index, 1,
                       "leave-one-supertrial-out needs at least two distinct trial indices"),
    "unlabeled-trial": (train_classifier(lambda t: re.sub(r"# class=\w+\n", "", t)), 1,
                        "S01:0: unlabeled trial in classification training"),
    "unknown-class": (train_classifier(lambda t: re.sub(r"# class=\w+", "# class=good", t)),
                      1, "S01:0: unknown class 'good'"),
    "unscored-trial": (train_classifier(lambda t: re.sub(r"# score=.*\n", "", t),
                                        "regression"), 1,
                       "S01:0: unscored trial in regression training"),
    "trust-without-actual": (trust_on("S01:0,S01,0,,0,0.75,0.25,,"), 1,
                             "records.csv: S01:0: no ground-truth class"),
    "trust-confidences-sum": (trust_on("S01:0,S01,0,0,0,0.5,0.6,,"), 1,
                              "records.csv line 2: confidences must sum to 1, got 1.1"),
    "overlay-three-channels": (cam_overlay_three_channels, 1,
                               "need an even channel count to pair coordinates, got 3"),
    "bundle-bad-magic": (predict_with(BAD_MAGIC), 1, "b.skq: not a bundle file (bad magic)"),
    "bundle-too-short": (short_bundle, 1, "b.skq: too short to contain a bundle"),
    "bundle-meta-array": (predict_with(ARRAY_META), 1,
                          "b.skq: bad metadata: not a JSON object"),
    "config-empty-key": (config_with("seed = 1\n= 3\n"), 2, "run.conf line 2: empty key"),
    "config-directory": (config_directory, 2, "cannot read config file"),
    "synth-pass-duration": (lambda ctx: ["synth", "--out", ctx.tmp / "d",
                                         "--pass-duration", "1,2,3"], 2,
                            "flag --pass-duration: key 'pass_duration': "
                            "expected 'low,high', got '1,2,3'"),
    "no-subcommand": (lambda ctx: [], 2, "a subcommand is required"),
    "evaluate-no-manifest": (lambda ctx: ["evaluate", *FAST], 2,
                             "no dataset manifest; pass --manifest"),
    "train-dae-no-out": (lambda ctx: ["train-dae", "--manifest", ctx.data, *FAST], 2,
                         "no output directory; pass --out"),
    "validate-cam-regression": (validate_cam("regression"), 1,
                                "run.cfg: the masking study applies to classification runs, "
                                "not regression"),
    "validate-cam-no-run": (lambda ctx: ["validate-cam", "--run", ctx.tmp / "none"], 2,
                            "run directory not found:"),
    "validate-cam-no-metrics": (validate_cam("classification", drop="metrics.txt"), 2,
                                "is missing baseline artifact metrics.txt"),
    "validate-cam-no-folds-line": (validate_cam("classification", edit=no_folds_line), 1,
                                   "metrics.txt: no folds_sha256 line"),
    "validate-cam-unknown-trial": (validate_cam("classification", name="folds.txt",
                                                edit=unknown_training_trial), 1,
                                   "fold S01 references unknown trial S09:0"),
    "validate-cam-unmapped-trial": (validate_cam("classification",
                                                 drop="fold_S01/predictions.csv",
                                                 name="folds.txt",
                                                 edit=first_test_trial_dropped), 1,
                                    "no activation map for 1 trials, e.g. S01:0"),
    "validate-cam-mixed-classes": (validate_cam("classification", name="fold_S01/cams.csv",
                                                edit=mixed_class_indices), 1,
                                   "cams.csv: S01:0 mixes class indices"),
    "cam-unknown-target-class": (lambda ctx: ["cam", "--bundle",
                                              ctx.runs / "classification" / "fold_S01"
                                              / "bundle.skq", "--manifest", ctx.data,
                                              "--out", ctx.tmp / "c.csv",
                                              "--target-class", "good"], 2,
                                 "--target-class 'good' is neither a class name nor an index"),
    "trust-on-scores": (trust_on_scores, 2,
                        "predictions.csv: no classification records with confidences"),
    "train-dae-one-trial": (lambda ctx: ["train-dae", "--manifest", synth(ctx.tmp / "d", 1, 1),
                                         "--out", ctx.tmp / "out", *FAST], 1,
                            "training needs at least two trials"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_refusal_reached_from_outside_exits_by_name(case, data, runs, tmp_path, capsys):
    build, code, fragment = CASES[case]
    ctx = SimpleNamespace(tmp=tmp_path, data=data, runs=runs)
    argv = [str(a) for a in build(ctx)]
    capsys.readouterr()
    assert dispatch(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("error: usage: " if code == 2 else "error: runtime: "), last
    assert fragment in last, last
