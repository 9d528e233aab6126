"""Run settings: the run.cfg snapshot, source precedence, config-file
errors, and replay of a finished run, mostly driven through the CLI."""

import dataclasses
import os
import re
import shutil
import tempfile

import pytest
from dataclasses import replace
from hypothesis import given, settings as hyp_settings, strategies as st

from skillseq import crossval
from skillseq.cli import dispatch
from skillseq.config import (RUN_KEYS, SYNTH_KEYS, RunConfig, RunSettings, SynthSpec,
                             read_config_file, read_run_cfg, resolve_run_config, write_run_cfg)
from skillseq.data import load_manifest, parse_trial_csv, write_trial_csv
from skillseq.folds import Fold, FoldAssignment
from skillseq.model import ArchConfig, prepare_dataset
from skillseq.training import DaeConfig, HeadConfig

DEFAULT_SETTINGS = RunSettings(mode="classification", scheme="stratified10", seed=0,
                               dae=DaeConfig(), clf=HeadConfig())

CUSTOM_SETTINGS = RunSettings(
    mode="regression", scheme="louo", seed=7, target_hz=2.5,
    dae=DaeConfig(learning_rate=0.003, max_epochs=9, patience=2, loss="mse", l2=0.0,
                  noise_sigma=0.05, val_fraction=0.2),
    clf=HeadConfig(learning_rate=1e-4, max_epochs=40, patience=5, l2=3e-6,
                   val_fraction=0.25, class_weighting="none"),
    arch=ArchConfig(enc_width=12, emb_channels=4, kernel_size=3, reduction=4,
                    clf_width=8, clf_dilation=1),
)

DEFAULT_RUN_CFG = """\
arch_clf_dilation = 2
arch_clf_width = 16
arch_emb_channels = 8
arch_enc_width = 16
arch_kernel_size = 5
arch_reduction = 2
clf_class_weighting = balanced
clf_l2 = 1e-05
clf_learning_rate = 0.0002
clf_max_epochs = 300
clf_patience = 20
clf_val_fraction = 0.1
dae_l2 = 1e-05
dae_learning_rate = 0.001
dae_loss = bce
dae_max_epochs = 100
dae_noise_sigma = 0.001
dae_patience = 4
dae_val_fraction = 0.1
dataset_sha256 = abababababababababababababababababababababababababababababababab
mode = classification
scheme = stratified10
seed = 0
target_hz = 1.0
"""

CUSTOM_RUN_CFG = """\
arch_clf_dilation = 1
arch_clf_width = 8
arch_emb_channels = 4
arch_enc_width = 12
arch_kernel_size = 3
arch_reduction = 4
clf_class_weighting = none
clf_l2 = 3e-06
clf_learning_rate = 0.0001
clf_max_epochs = 40
clf_patience = 5
clf_val_fraction = 0.25
dae_l2 = 0.0
dae_learning_rate = 0.003
dae_loss = mse
dae_max_epochs = 9
dae_noise_sigma = 0.05
dae_patience = 2
dae_val_fraction = 0.2
dataset_sha256 = 0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f
manifest = /data/study/manifest.csv
mode = regression
scheme = louo
seed = 7
target_hz = 2.5
"""

# capped recipe for the tiny end-to-end runs below
TINY_RUN = ("--scheme", "stratified3", "--dae-max-epochs", "2", "--clf-max-epochs", "3",
            "--arch-enc-width", "8", "--arch-clf-width", "8")
# even smaller, for the runs that only check which seed was resolved
FAST_RUN = ("--scheme", "stratified3", "--dae-max-epochs", "1", "--clf-max-epochs", "1",
            "--arch-enc-width", "2", "--arch-emb-channels", "2", "--arch-clf-width", "2")


def snapshot_text(settings, dataset_sha256, manifest=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        write_run_cfg(path, RunConfig(settings, manifest=manifest,
                                      dataset_sha256=dataset_sha256))
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")


def run_cli(*argv):
    return dispatch([str(a) for a in argv])


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("SKILLSEQ_SEED", raising=False)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_data")
    assert dispatch(["synth", "--out", str(out), "--seed", "11", "--n-subjects", "3",
                     "--trials-per-subject", "8", "--pass-fraction", "0.5"]) == 0
    return str(out / "manifest.csv")


@pytest.fixture(scope="module")
def tiny_run(tiny_manifest, tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("tiny_run") / "run")
    assert run_cli("evaluate", "--manifest", tiny_manifest, "--out", run_dir,
                   "--seed", 3, *TINY_RUN) == 0
    return run_dir


@pytest.fixture(scope="module")
def tiny_regression_run(tiny_manifest, tmp_path_factory):
    """The tiny run in regression mode."""
    run_dir = str(tmp_path_factory.mktemp("tiny_regression_run") / "run")
    assert run_cli("evaluate", "--manifest", tiny_manifest, "--out", run_dir,
                   "--seed", 3, "--mode", "regression", *TINY_RUN) == 0
    return run_dir


# each mode's tiny run fixture
MODE_RUNS = {"classification": "tiny_run", "regression": "tiny_regression_run"}


# --- the run.cfg snapshot ---


def test_default_settings_snapshot_is_golden():
    assert snapshot_text(DEFAULT_SETTINGS, "ab" * 32) == DEFAULT_RUN_CFG


def test_custom_settings_snapshot_is_golden():
    text = snapshot_text(CUSTOM_SETTINGS, "0f" * 32, "/data/study/manifest.csv")
    assert text == CUSTOM_RUN_CFG


def positive(hi):
    return st.floats(min_value=1e-12, max_value=hi, allow_nan=False, allow_infinity=False)


def non_negative(hi):
    return st.floats(min_value=0.0, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    mode = draw(st.sampled_from(["classification", "regression"]))
    common = dict(
        learning_rate=draw(positive(10.0)),
        max_epochs=draw(st.integers(1, 10_000)),
        patience=draw(st.integers(1, 1_000)),
        l2=draw(non_negative(1.0)),
        val_fraction=draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True,
                                    exclude_max=True)),
    )
    dae = DaeConfig(**common, loss=draw(st.sampled_from(["bce", "mse"])),
                    noise_sigma=draw(non_negative(1.0)))
    common["learning_rate"] = draw(positive(10.0))
    clf = HeadConfig(**common, class_weighting=draw(st.sampled_from(["balanced", "none"])))
    reduction = draw(st.integers(1, 4))
    arch = ArchConfig(enc_width=reduction * draw(st.integers(1, 8)),
                      emb_channels=draw(st.integers(1, 32)),
                      kernel_size=2 * draw(st.integers(0, 5)) + 1,
                      reduction=reduction,
                      clf_width=reduction * draw(st.integers(1, 8)),
                      clf_dilation=draw(st.integers(1, 8)))
    scheme = draw(st.sampled_from(["loso", "louo"])
                  | st.integers(2, 99).map(lambda k: f"stratified{k}"))
    settings = RunSettings(mode=mode, scheme=scheme, seed=draw(st.integers(0, 2 ** 63)),
                           dae=dae, clf=clf, target_hz=draw(positive(1e4)), arch=arch)
    manifest = draw(st.none() | st.from_regex(r"/[A-Za-z0-9_./ -]*[A-Za-z0-9_]",
                                              fullmatch=True))
    sha = draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64))
    return RunConfig(settings, manifest=manifest, dataset_sha256=sha)


@hyp_settings(max_examples=60, deadline=None)
@given(run=run_configs())
def test_run_cfg_round_trips(run):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.cfg"), os.path.join(tmp, "b.cfg")
        write_run_cfg(first, run)
        back = read_run_cfg(first)
        assert back == run
        write_run_cfg(second, back)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


@pytest.mark.parametrize("part, name, value", [
    ("dae", "seed", 4), ("clf", "seed", 4),
    ("dae", "class_weighting", "none"), ("clf", "noise_sigma", 0.5),
])
def test_run_settings_reject_fields_a_run_does_not_use(part, name, value):
    """A stage's config has no field for what its stage never reads, and
    fold seeds are arguments, not fields."""
    with pytest.raises(TypeError, match=name):
        {"dae": DaeConfig, "clf": HeadConfig}[part](**{name: value})


@pytest.mark.parametrize("flag", ["--dae-class-weighting", "--clf-noise-sigma"])
def test_removed_training_flags_are_unknown(tiny_manifest, tmp_path, capsys, flag):
    rc = run_cli("evaluate", "--manifest", tiny_manifest, "--out", tmp_path / "run",
                 flag, "none" if "weighting" in flag else "0.5")
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train-dae", "evaluate"])
def test_dae_cosine_loss_is_a_usage_error(tiny_manifest, tmp_path, capsys, command):
    rc = run_cli(command, "--manifest", tiny_manifest, "--out", tmp_path / "run",
                 "--dae-loss", "cosine")
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: usage: flag --dae-loss: key 'dae_loss': must be bce or mse, got 'cosine'")
    assert not (tmp_path / "run").exists()


# --- precedence: flag > file > SKILLSEQ_SEED > default ---


def resolved_seed(manifest, run_dir, *extra):
    assert run_cli("evaluate", "--manifest", manifest, "--out", run_dir,
                   *FAST_RUN, *extra) == 0
    with open(os.path.join(run_dir, "run.cfg"), encoding="utf-8") as fh:
        seeds = [line for line in fh.read().splitlines() if line.startswith("seed = ")]
    assert len(seeds) == 1
    return int(seeds[0].split(" = ")[1])


def test_seed_precedence(tiny_manifest, tmp_path, monkeypatch):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("# file layer\nseed = 6\n", encoding="utf-8")
    assert resolved_seed(tiny_manifest, tmp_path / "default") == 0
    monkeypatch.setenv("SKILLSEQ_SEED", "5")
    assert resolved_seed(tiny_manifest, tmp_path / "env") == 5
    assert resolved_seed(tiny_manifest, tmp_path / "file", "--config", cfg) == 6
    assert resolved_seed(tiny_manifest, tmp_path / "flag", "--config", cfg,
                         "--seed", 8) == 8


def test_file_value_overrides_default_and_flag_overrides_file(tiny_manifest, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = louo\ndae_max_epochs = 1\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("evaluate", "--config", cfg, "--manifest", tiny_manifest, "--out", out,
                   *FAST_RUN) == 0
    text = (out / "run.cfg").read_text(encoding="utf-8")
    assert "scheme = stratified3\n" in text      # flag beats file
    assert "dae_max_epochs = 1\n" in text


# --- config-file errors: file, line and key named; exit code 2 ---


@pytest.mark.parametrize("body, line, key", [
    ("seed = 1\nbogus_key = 2\n", 2, "bogus_key"),
    ("seed = 1\nmode = classify\nseed = 2\n", 3, "seed"),
    ("# header\n\nscheme = louo\ndae_max_epochs = many\n", 4, "dae_max_epochs"),
    ("dae_learning_rate = nan\n", 1, "dae_learning_rate"),
    ("seed = 2\ntarget_hz = inf\n", 2, "target_hz"),
])
def test_bad_config_file_is_a_usage_error(tiny_manifest, tmp_path, capsys, body, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body, encoding="utf-8")
    rc = run_cli("evaluate", "--config", cfg, "--manifest", tiny_manifest,
                 "--out", tmp_path / "run")
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert rc == 2
    assert err.startswith("error: usage: ")
    assert str(cfg) in err
    assert f"line {line}" in err
    assert f"'{key}'" in err
    assert not (tmp_path / "run").exists()


# --- one bad value per bounded setting: exit 2, naming the setting ---

RECIPE_BOUNDS = [("learning_rate", "0"), ("max_epochs", "0"), ("max_epochs", "10001"),
                 ("patience", "0"), ("patience", "10001"), ("val_fraction", "0.5"), ("l2", "-1")]
RUN_BOUNDS = (
    [(f"{stage}_{name}", value) for stage in ("dae", "clf") for name, value in RECIPE_BOUNDS]
    + [("dae_loss", "hinge"), ("dae_noise_sigma", "-1"), ("clf_class_weighting", "auto")]
    + [(f"arch_{name}", "0") for name in ("enc_width", "emb_channels", "kernel_size",
                                          "reduction", "clf_width", "clf_dilation")]
    + [("arch_kernel_size", "4"), ("seed", "-1"), ("target_hz", "0"),
       ("scheme", "stratified1"), ("mode", "pairs")])
SYNTH_BOUNDS = [("n_subjects", "0"), ("trials_per_subject", "0"), ("pass_fraction", "1.5"),
                ("sample_rate_hz", "0"), ("missing_fraction", "1"), ("subject_bias", "-1"),
                ("subject_bias", "7"), ("seed", "-1"), ("pass_duration", "10,5"),
                ("fail_duration", "0,5"), ("distractor_prob", "5"), ("pass_jitter", "-3"),
                ("fail_jitter", "-1")]


def refused(capsys, command, argv, file_flag, source, key, value):
    """The last stderr line of ``command`` given ``key = value`` from
    ``source`` ("flag", or "file" through ``file_flag``), which must exit 2
    without a traceback, naming the key after where its value was set."""
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv = [*argv, f"{flag}={value}"]
        origin = f"flag {flag}"
    else:
        cfg = os.path.join(os.path.dirname(argv[-1]), "bad.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"# one bad value\n{key} = {value}\n")
        argv = [*argv, file_flag, cfg]
        origin = f"{cfg} line 2"
    rc = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith(f"error: usage: {origin}: key '{key}': must be "), last
    return last


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key, value", RUN_BOUNDS, ids=[f"{k}={v}" for k, v in RUN_BOUNDS])
def test_a_run_setting_out_of_bounds_names_its_key(tiny_manifest, tmp_path, capsys, key, value,
                                                   source):
    refused(capsys, "evaluate", ["--manifest", tiny_manifest, "--out", tmp_path / "run"],
            "--config", source, key, value)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key, value", SYNTH_BOUNDS, ids=[f"{k}={v}" for k, v in SYNTH_BOUNDS])
def test_a_generator_setting_out_of_bounds_names_its_key(tmp_path, capsys, key, value, source):
    refused(capsys, "synth", ["--out", tmp_path / "data"], "--spec", source, key, value)
    assert not (tmp_path / "data").exists()


def test_a_bad_value_in_a_config_file_names_the_file_and_line(tiny_manifest, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dae_learning_rate = -1\n", encoding="utf-8")
    assert run_cli("evaluate", "--config", cfg, "--manifest", tiny_manifest,
                   "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: usage: {cfg} line 1: key 'dae_learning_rate': must be > 0, got -1.0")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["evaluate", "synth"])
def test_a_bad_seed_from_the_environment_names_the_variable(tiny_manifest, tmp_path, capsys,
                                                            monkeypatch, command):
    monkeypatch.setenv("SKILLSEQ_SEED", "-1")
    argv = ["--manifest", tiny_manifest] if command == "evaluate" else []
    assert run_cli(command, *argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: usage: environment SKILLSEQ_SEED: key 'seed': must be >= 0, got -1")
    monkeypatch.setenv("SKILLSEQ_SEED", "x")
    assert run_cli(command, *argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: usage: environment SKILLSEQ_SEED: key 'seed': expected an integer, got 'x'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, flags, message", [
    ("", ("--arch-reduction", "3"),
     "flag --arch-reduction: key 'arch_reduction': must divide enc_width 16, got 3 "
     "(default: key 'arch_enc_width')"),
    ("arch_enc_width = 6\n", ("--arch-reduction", "4"),
     "flag --arch-reduction: key 'arch_reduction': must divide enc_width 6, got 4 "
     "({cfg} line 1: key 'arch_enc_width')"),
    ("arch_reduction = 4\narch_enc_width = 8\n", ("--arch-clf-width", "6"),
     "{cfg} line 1: key 'arch_reduction': must divide clf_width 6, got 4 "
     "(flag --arch-clf-width: key 'arch_clf_width')"),
], ids=["flag-and-default", "flag-and-file", "file-and-flag"])
def test_a_rule_across_keys_names_where_each_was_set(tiny_manifest, tmp_path, capsys,
                                                     body, flags, message):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text(body, encoding="utf-8")
    assert run_cli("evaluate", "--config", cfg, "--manifest", tiny_manifest,
                   "--out", tmp_path / "run", *flags) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: usage: " + message.format(cfg=cfg))
    assert not (tmp_path / "run").exists()


def test_only_the_value_that_wins_is_checked(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dae_learning_rate = -1\nseed = 4\n", encoding="utf-8")
    run = resolve_run_config(read_config_file(cfg, RUN_KEYS), {"dae_learning_rate": 0.01},
                             env={"SKILLSEQ_SEED": "-1"})
    assert (run.settings.dae.learning_rate, run.settings.seed) == (0.01, 4)


def test_a_bad_value_in_a_run_cfg_names_its_line(tiny_run, tmp_path, capsys):
    run_dir = doctored_run(tiny_run, tmp_path,
                           lambda text: text.replace("dae_patience = 4\n", "dae_patience = 0\n"),
                           "run.cfg")
    assert run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study") == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: usage: {run_dir / 'run.cfg'} line 18: key 'dae_patience': "
        "must be >= 1 and <= 10000, got 0")
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("command", ["predict", "cam"])
def test_a_scoring_rate_out_of_bounds_names_its_flag(tiny_run, tiny_manifest, tmp_path, capsys,
                                                     command):
    assert run_cli(command, "--bundle", os.path.join(tiny_run, "fold_0", "bundle.skq"),
                   "--manifest", tiny_manifest, "--out", tmp_path / "out.csv",
                   "--target-hz", "0") == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: usage: flag --target-hz: key 'target_hz': must be > 0, got 0.0")
    assert not (tmp_path / "out.csv").exists()


def _field_keys(settings, part=""):
    for f in dataclasses.fields(settings):
        if f.default_factory is not dataclasses.MISSING:
            yield from _field_keys(f.default_factory, f.name)
        else:
            yield f"{part}_{f.name}" if part else f.name


def _help_options(command, capsys):
    assert run_cli(command, "--help") == 0
    return re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.M)


def test_the_key_tables_are_the_settings_fields_in_help_order(capsys):
    """Every settings field has its key, flag and run.cfg line, and the
    explicit keys are only the run's files and the dropped ``clf_loss``."""
    run_keys = list(_field_keys(RunSettings))
    assert list(RUN_KEYS) == ["manifest", "out", "dataset_sha256", *run_keys, "clf_loss"]
    assert list(SYNTH_KEYS) == list(_field_keys(SynthSpec))
    for command, keys in (("evaluate", ["manifest", "out", *run_keys]),
                          ("synth", list(SYNTH_KEYS))):
        flags = ["--" + k.replace("_", "-") for k in keys]
        assert [o for o in _help_options(command, capsys) if o in flags] == flags, command
    snapshot = [line.split(" = ")[0] for line in snapshot_text(RunSettings(), "ab" * 32)
                .splitlines()]
    assert snapshot == sorted(run_keys + ["dataset_sha256"])


HUGE = 131_073


@pytest.mark.parametrize("command, body, named", [
    # a value parser: the file, the line and the key
    ("evaluate", "seed = " + "1" * HUGE + "\n", ("line 1: key 'seed': expected an integer",)),
    # a line that is no 'key = value'
    ("synth", "x" * HUGE + "\n", ("line 1: expected 'key = value'",)),
    # a checked flag
    ("gradcheck", None, ("argument --seed: expected an integer >= 0",)),
], ids=["value", "line", "flag"])
def test_a_huge_bad_value_is_shortened_in_the_message(tiny_manifest, tmp_path, capsys,
                                                      command, body, named):
    cfg = tmp_path / "huge.cfg"
    if command == "evaluate":
        argv = ["--config", cfg, "--manifest", tiny_manifest, "--out", tmp_path / "run"]
    elif command == "synth":
        argv = ["--spec", cfg, "--out", tmp_path / "data"]
    else:
        argv = ["--seed", "1" * HUGE]
    if body is not None:
        cfg.write_text(body, encoding="utf-8")
        named += (str(cfg),)
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert len(err) < 1_000
    last = err.strip().splitlines()[-1]
    assert last.startswith("error: usage: ")
    for text in named + (f"... ({HUGE:,} characters)",):
        assert text in last
    assert not (tmp_path / "run").exists() and not (tmp_path / "data").exists()


# --- replay of a finished run ---


@pytest.mark.parametrize("mode", list(MODE_RUNS))
def test_replay_from_run_cfg_is_byte_identical(mode, request, tmp_path):
    run = request.getfixturevalue(MODE_RUNS[mode])
    replay = str(tmp_path / "replay")
    assert run_cli("evaluate", "--config", os.path.join(run, "run.cfg"),
                   "--out", replay) == 0
    first, second = tree_bytes(run), tree_bytes(replay)
    assert sorted(first) == sorted(second)
    assert {"run.cfg", "folds.txt", "metrics.txt", "fold_0/bundle.skq",
            "fold_0/predictions.csv"} <= set(first)
    assert ("fold_0/cams.csv" in first) == (mode == "classification")
    for name in first:
        assert first[name] == second[name], name


# the tiny run's run.cfg as written while the head's loss was a run key
PARENT_FORMAT_RUN_CFG = """\
arch_clf_dilation = 2
arch_clf_width = 8
arch_emb_channels = 8
arch_enc_width = 8
arch_kernel_size = 5
arch_reduction = 2
clf_class_weighting = balanced
clf_l2 = 1e-05
clf_learning_rate = 0.0002
clf_loss = cosine
clf_max_epochs = 3
clf_patience = 20
clf_val_fraction = 0.1
dae_l2 = 1e-05
dae_learning_rate = 0.001
dae_loss = bce
dae_max_epochs = 2
dae_noise_sigma = 0.001
dae_patience = 4
dae_val_fraction = 0.1
dataset_sha256 = {sha}
manifest = {manifest}
mode = classification
scheme = stratified3
seed = 3
target_hz = 1.0
"""


def parent_format_run_cfg(tiny_run, loss="cosine"):
    run = read_run_cfg(os.path.join(tiny_run, "run.cfg"))
    return PARENT_FORMAT_RUN_CFG.format(sha=run.dataset_sha256, manifest=run.manifest).replace(
        "clf_loss = cosine", f"clf_loss = {loss}")


def test_a_run_cfg_naming_the_modes_head_loss_replays_byte_identically(tiny_run, tiny_study,
                                                                       tmp_path):
    """An older run.cfg's ``clf_loss`` line that names the mode's loss
    reads and changes nothing: ``evaluate --config`` over it writes the
    run byte for byte, with a run.cfg that drops the line, and
    ``validate-cam`` over a run holding it writes the study byte for byte."""
    text = parent_format_run_cfg(tiny_run)
    with open(os.path.join(tiny_run, "run.cfg"), encoding="utf-8") as fh:
        assert fh.read() == text.replace("clf_loss = cosine\n", "")
    old = tmp_path / "old.cfg"
    old.write_text(text, encoding="utf-8")
    assert run_cli("evaluate", "--config", old, "--out", tmp_path / "replay") == 0
    assert tree_bytes(tmp_path / "replay") == tree_bytes(tiny_run)
    run_dir = doctored_run(tiny_run, tmp_path, lambda _: text, "run.cfg")
    assert run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study") == 0
    assert tree_bytes(tmp_path / "study") == tree_bytes(tiny_study)


@pytest.mark.parametrize("body, flags, line, mode", [
    ("seed = 1\nclf_loss = mse\n", (), 2, "classification"),
    ("clf_loss = cosine\nmode = regress\n", (), 1, "regression"),
    ("clf_loss = cosine\n", ("--mode", "regression"), 1, "regression"),
    ("clf_loss = hinge\n", (), 1, "classification"),
])
def test_a_clf_loss_line_naming_another_loss_is_a_usage_error(tiny_manifest, tmp_path, capsys,
                                                              body, flags, line, mode):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(body, encoding="utf-8")
    rc = run_cli("evaluate", "--config", cfg, "--manifest", tiny_manifest,
                 "--out", tmp_path / "run", *flags)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith(f"error: usage: {cfg} line {line}: key 'clf_loss': a {mode} head ")
    assert not (tmp_path / "run").exists()


def test_validate_cam_refuses_a_run_cfg_naming_another_head_loss(tiny_run, tmp_path, capsys):
    run_dir = doctored_run(tiny_run, tmp_path, lambda _: parent_format_run_cfg(tiny_run, "mse"),
                           "run.cfg")
    assert run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study") == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: usage: {run_dir / 'run.cfg'} line 10: key 'clf_loss': a classification "
        f"head trains on cosine loss, not 'mse' ({run_dir / 'run.cfg'} line 23: key 'mode')")
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("command", ["train-classifier", "evaluate"])
def test_clf_loss_is_no_flag(tiny_manifest, tmp_path, capsys, command):
    rc = run_cli(command, "--manifest", tiny_manifest, "--out", tmp_path / "run",
                 "--clf-loss", "cosine")
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: usage: unrecognized arguments: --clf-loss cosine")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mode", list(MODE_RUNS))
def test_jobs_2_matches_jobs_1(mode, request, tiny_manifest, tmp_path):
    run = request.getfixturevalue(MODE_RUNS[mode])
    parallel = str(tmp_path / "jobs2")
    assert run_cli("evaluate", "--manifest", tiny_manifest, "--out", parallel,
                   "--seed", 3, "--mode", mode, "--jobs", 2, *TINY_RUN) == 0
    first, second = tree_bytes(run), tree_bytes(parallel)
    assert sorted(first) == sorted(second)
    assert {"metrics.txt", "fold_2/bundle.skq", "fold_2/predictions.csv"} <= set(first)
    assert ("fold_2/cams.csv" in first) == (mode == "classification")
    for name in first:
        assert first[name] == second[name], name


@pytest.fixture(scope="module")
def tiny_study(tiny_run, tmp_path_factory):
    study = str(tmp_path_factory.mktemp("tiny_study") / "study")
    assert run_cli("validate-cam", "--run", tiny_run, "--out", study) == 0
    return study


def test_validate_cam_jobs_2_matches_jobs_1(tiny_run, tiny_study, tmp_path):
    parallel = str(tmp_path / "jobs2")
    assert run_cli("validate-cam", "--run", tiny_run, "--out", parallel, "--jobs", 2) == 0
    first, second = tree_bytes(tiny_study), tree_bytes(parallel)
    assert sorted(first) == sorted(second)
    assert {"cam_validation.txt", "masked/metrics.txt", "masked/fold_2/bundle.skq",
            "masked/fold_2/cams.csv"} <= set(first)
    for name in first:
        assert first[name] == second[name], name


def test_validate_cam_rerun_is_byte_identical(tiny_run, tiny_study, tmp_path):
    rerun = str(tmp_path / "rerun")
    assert run_cli("validate-cam", "--run", tiny_run, "--out", rerun) == 0
    first, second = tree_bytes(tiny_study), tree_bytes(rerun)
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name


def test_jobs_progress_prints_each_fold_as_it_finishes(tiny_manifest, tmp_path,
                                                      monkeypatch, capsys):
    """``evaluate --jobs 2 --verbose`` prints one ``fold <name>: <status>``
    line per fold, in fold order, before the next fold's outcome is read."""
    class LazyPool:
        """Runs each fold in-process when the map's next outcome is read."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    run_fold = crossval._run_fold

    def announced(task):
        print(f"train {task[2].name}")
        return run_fold(task)

    monkeypatch.setattr(crossval, "_process_pool", LazyPool)
    monkeypatch.setattr(crossval, "_run_fold", announced)
    assert run_cli("evaluate", "--manifest", tiny_manifest, "--out", tmp_path / "run",
                   "--jobs", 2, "--verbose", *FAST_RUN) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("train ", "fold "))]
    assert lines == [line for k in range(3) for line in (f"train {k}", f"fold {k}: ok")]


def test_pool_starts_no_more_workers_than_folds(tiny_manifest, tmp_path, monkeypatch):
    """``--jobs N`` asks for at most one worker per fold, however large N
    is, in ``evaluate`` and in ``validate-cam``."""
    sizes = []

    class SerialPool:
        """Records the pool size asked for and runs the folds in-process,
        so no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(crossval, "_process_pool", SerialPool)
    for jobs in (8, 1000000):
        assert run_cli("evaluate", "--manifest", tiny_manifest, "--out", tmp_path / f"run{jobs}",
                       "--jobs", jobs, *FAST_RUN) == 0
    assert run_cli("validate-cam", "--run", tmp_path / "run1000000", "--out", tmp_path / "study",
                   "--jobs", 1000000) == 0
    assert sizes == [3, 3, 3]


def test_a_test_trial_reaches_nothing_of_its_fold_but_its_own_outputs(request, tiny_manifest,
                                                                      tmp_path):
    """Fold isolation, the baseline half: perturbing one test trial of a
    fold leaves the fold's bundle and the other test trials' prediction
    rows and maps byte-identical, in either mode.  Each fold is retrained
    alone and its files written as ``run_cv`` writes them."""
    for mode, fixture in MODE_RUNS.items():
        run = request.getfixturevalue(fixture)
        settings = read_run_cfg(os.path.join(run, "run.cfg")).settings
        stage2 = prepare_dataset(load_manifest(tiny_manifest), settings.target_hz)
        by_id = {t.trial_id: t for t in stage2.trials}
        assignment = crossval._build_assignment(stage2, settings, tiny_manifest)
        with open(os.path.join(run, "folds.txt"), encoding="utf-8") as fh:
            assert assignment.canonical_text() == fh.read()
        outputs = (["predictions.csv", "cams.csv"] if mode == "classification"
                   else ["predictions.csv"])
        for k, fold in enumerate(assignment.folds):
            victim = fold.test_ids[0]
            values = by_id[victim].values.copy()
            values[4:54] += 1000.0   # past every channel's maximum, so leaked stats would show
            test = [replace(by_id[t], values=values) if t == victim else by_id[t]
                    for t in fold.test_ids]
            outcome = crossval._run_fold((settings, k, fold,
                                          [by_id[t] for t in fold.train_ids], test))
            crossval._persist_fold(str(tmp_path / mode), settings, fold, outcome)
            was = tree_bytes(os.path.join(run, f"fold_{fold.name}"))
            now = tree_bytes(tmp_path / mode / f"fold_{fold.name}")
            assert sorted(now) == sorted(["bundle.skq", *outputs])
            assert now["bundle.skq"] == was["bundle.skq"], (mode, fold.name)
            for name in outputs:
                assert _rows_without(was[name], victim) == _rows_without(now[name], victim), \
                    (mode, fold.name, name)
                assert was[name] != now[name], (mode, fold.name, name)


def _rows_without(blob, trial_id):
    return [line for line in blob.decode("utf-8").splitlines()
            if not line.startswith(trial_id + ",")]


@pytest.mark.parametrize("edit, line, key", [
    ("drop", None, "dae_patience"),
    ("append", 26, "clf_noise_sigma"),
    ("append", 26, "out"),
])
def test_validate_cam_reads_run_cfg_strictly(tiny_run, tmp_path, capsys, edit, line, key):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run, run_dir)
    cfg = run_dir / "run.cfg"
    lines = cfg.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 25
    if edit == "drop":
        lines = [ln for ln in lines if not ln.startswith(f"{key} = ")]
    else:
        lines.append(f"{key} = 1")
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert rc == 2
    assert str(cfg) in err
    assert f"'{key}'" in err
    if line is not None:
        assert f"line {line}" in err
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("row, message", [
    ("{tid},0,0,not-a-float,0.5", ", column 'raw': expected a number, got 'not-a-float'"),
    ("{tid},0,0", ": expected 5 fields, got 3"),
    ("{tid},0,zero,0.5,0.5", ", column 't': expected an integer, got 'zero'"),
])
def test_validate_cam_names_a_bad_cams_csv_line(tiny_run, tmp_path, capsys, row, message):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run, run_dir)
    cams = run_dir / "fold_0" / "cams.csv"
    lines = cams.read_bytes().decode("utf-8").split("\r\n")
    lines[4] = row.format(tid=lines[4].split(",")[0])
    cams.write_bytes("\r\n".join(lines).encode("utf-8"))
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: runtime: {cams} line 5{message}")


@pytest.mark.parametrize("name, cut, message", [
    ("predictions.csv", "trial", "predictions do not cover the test set of fold 0"),
    ("cams.csv", "trial", "activation maps do not cover the test set of fold 0"),
    ("cams.csv", "step", "{tid} has a map of {steps} steps for a trial of {frames} frames"),
], ids=["predictions", "cams", "cams-step"])
def test_validate_cam_refuses_a_fold_file_unlike_its_test_trials(tiny_run, tmp_path, capsys,
                                                                 name, cut, message):
    """A fold file without one of the fold's test trials, or with a map
    one step short, is refused naming the file."""
    with open(os.path.join(tiny_run, "fold_0", name), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if cut == "trial":
        tid = lines[1].split(",")[0]
        kept = [line for line in lines if not line.startswith(tid + ",")]
    else:
        tid, kept = lines[-1].split(",")[0], lines[:-1]
    frames = sum(line.startswith(tid + ",") for line in lines)
    run_dir = doctored_run(tiny_run, tmp_path, lambda text: "\n".join(kept) + "\n",
                           f"fold_0/{name}")
    assert run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study") == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: runtime: {run_dir / 'fold_0' / name}: "
        + message.format(tid=tid, steps=frames - 1, frames=frames))
    assert not (tmp_path / "study").exists()


def test_changed_dataset_is_refused(tiny_manifest, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(tiny_manifest), data)
    manifest = str(data / "manifest.csv")
    run_dir = str(tmp_path / "run")
    assert run_cli("evaluate", "--manifest", manifest, "--out", run_dir, *FAST_RUN) == 0

    trial_path = str(data / "trials" / "S01_000.csv")
    trial = parse_trial_csv(trial_path)
    write_trial_csv(replace(trial, values=trial.values + 0.5), trial_path)
    capsys.readouterr()

    rc = run_cli("evaluate", "--config", os.path.join(run_dir, "run.cfg"),
                 "--out", tmp_path / "replay")
    err = capsys.readouterr().err
    assert rc == 2
    assert "fingerprint" in err
    assert not (tmp_path / "replay").exists()

    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    err = capsys.readouterr().err
    assert rc == 2
    assert "fingerprint" in err
    assert not (tmp_path / "study").exists()


def doctored_run(tiny_run, tmp_path, edit, name="folds.txt"):
    """A copy of the tiny run whose ``name`` file's text is ``edit(text)``."""
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run, run_dir)
    path = run_dir / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return run_dir


def test_validate_cam_refuses_a_test_id_listed_twice(tiny_run, tmp_path, capsys):
    def duplicate(text):
        lines = text.splitlines(keepends=True)
        assert lines[2].startswith("fold 0 test = ") and "S02:5" in lines[2]
        lines[2] = lines[2].rstrip("\n") + ",S02:5\n"
        return "".join(lines)

    run_dir = doctored_run(tiny_run, tmp_path, duplicate)
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: runtime: {run_dir / 'folds.txt'}: fold 0: trial S02:5 appears twice in "
        "its test list")
    assert not (tmp_path / "study").exists()


def test_validate_cam_names_the_line_of_a_bad_fold_seed(tiny_run, tmp_path, capsys):
    def bad_seed(text):
        lines = text.splitlines(keepends=True)
        assert lines[1].startswith("seed = ")
        lines[1] = "seed = x\n"
        return "".join(lines)

    run_dir = doctored_run(tiny_run, tmp_path, bad_seed)
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: runtime: {run_dir / 'folds.txt'}: fold text line 2: key 'seed': "
        "expected an integer, got 'x'")
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("name", ["run.cfg", "folds.txt", "fold_0/predictions.csv",
                                  "fold_0/cams.csv"])
def test_validate_cam_names_a_run_file_that_is_not_utf8(tiny_run, tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    shutil.copytree(tiny_run, run_dir)
    path = run_dir / name
    path.write_bytes(b"\xff" + path.read_bytes())
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    # run.cfg is a config file, and every malformed config file is a usage error
    kind, code = ("usage", 2) if name == "run.cfg" else ("runtime", 1)
    assert rc == code
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: {kind}: {path} line 1: not UTF-8 text (byte 0xff at offset 0: "
        "invalid start byte)")
    assert not (tmp_path / "study").exists()


def test_evaluate_config_that_is_not_utf8_is_a_usage_error(tiny_manifest, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 3\nscheme = stratified3\n# caf\xe9\n")
    rc = run_cli("evaluate", "--config", cfg, "--manifest", tiny_manifest,
                 "--out", tmp_path / "run")
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: usage: {cfg} line 3: not UTF-8 text (byte 0xe9 at offset 35: "
        "invalid continuation byte)")
    assert not (tmp_path / "run").exists()


def test_validate_cam_refuses_folds_that_differ_from_metrics(tiny_run, tmp_path, capsys):
    def move_one_test_id(text):
        """Fold 0's first test trial moves to fold 1's test list."""
        assignment = FoldAssignment.from_canonical_text(text)
        first, second = assignment.folds[:2]
        tid = first.test_ids[0]
        folds = (Fold(first.name, first.train_ids + (tid,), first.test_ids[1:]),
                 Fold(second.name, tuple(i for i in second.train_ids if i != tid),
                      second.test_ids + (tid,))) + assignment.folds[2:]
        return replace(assignment, folds=folds).canonical_text()

    run_dir = doctored_run(tiny_run, tmp_path, move_one_test_id)
    changed = FoldAssignment.from_canonical_text(
        (run_dir / "folds.txt").read_text(encoding="utf-8")).fingerprint()
    recorded = next(line for line in (run_dir / "metrics.txt").read_text(
        encoding="utf-8").splitlines() if line.startswith("folds_sha256 = "))[15:]
    assert changed != recorded
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: usage: {run_dir / 'folds.txt'} has fingerprint {changed}, but "
        f"{run_dir / 'metrics.txt'} records folds_sha256 {recorded}; refusing to pair folds")
    assert not (tmp_path / "study").exists()


@pytest.mark.parametrize("edit, message", [
    # another fingerprint: both values in full, since they may share a prefix
    (lambda sha: "f" * 64, "dataset fingerprint {sha} does not match the dataset_sha256 "
                           "{bad} of {cfg}; refusing to pair folds"),
    # not a fingerprint at all: the file and line
    (lambda sha: f"{sha},dataset_sha256 = {sha}",
     "{cfg} line {line}: key 'dataset_sha256': expected 64 lowercase hex digits, got '{bad}'"),
])
def test_validate_cam_names_the_run_cfg_of_a_wrong_dataset_fingerprint(tiny_run, tmp_path,
                                                                       capsys, edit, message):
    with open(os.path.join(tiny_run, "run.cfg"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = next(n for n, text in enumerate(lines, 1) if text.startswith("dataset_sha256 = "))
    sha = lines[line - 1][len("dataset_sha256 = "):]
    bad = edit(sha)
    run_dir = doctored_run(tiny_run, tmp_path, lambda text: text.replace(sha, bad), "run.cfg")
    rc = run_cli("validate-cam", "--run", run_dir, "--out", tmp_path / "study")
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: usage: " + message.format(
        sha=sha, bad=bad, cfg=run_dir / "run.cfg", line=line)
    assert not (tmp_path / "study").exists()
