"""CLI input checks: a missing input file or a bad flag value is a usage
error (exit 2); a malformed input file is a runtime error (exit 1) whose
message names the file and line.  A head trained over a given
autoencoder sees its inputs as the bundle it ships will scale them."""

import os
from dataclasses import replace

import numpy as np
import pytest

from skillseq.bundle import load_bundle, save_bundle
from skillseq.cli import dispatch
from skillseq.config import resolve_run_config
from skillseq.data import fit_minmax, load_manifest, write_manifest, write_trial_csv
from skillseq.explain import read_cams_csv
from skillseq.layers import LayerSpec, init_stack_params
from skillseq.records import PredictionRecord, read_records_csv, write_records_csv
from skillseq.model import ModelBundle, prepare_dataset
from skillseq.training import train_classifier


@pytest.fixture(scope="module")
def scoring_inputs(tmp_path_factory, small_classifier):
    root = tmp_path_factory.mktemp("scoring")
    bundle = root / "skill.skq"
    save_bundle(small_classifier[0], bundle)
    assert dispatch(["synth", "--out", str(root / "data"), "--seed", "2",
                     "--n-subjects", "1", "--trials-per-subject", "2"]) == 0
    return {"bundle": str(bundle), "manifest": str(root / "data" / "manifest.csv")}


def scoring_argv(command, paths, out):
    return [command, "--bundle", paths["bundle"], "--manifest", paths["manifest"],
            "--out", str(out)]


@pytest.mark.parametrize("command", ["predict", "cam"])
def test_scoring_inputs_are_usable(scoring_inputs, tmp_path, command):
    assert dispatch(scoring_argv(command, scoring_inputs, tmp_path / "out.csv")) == 0


@pytest.mark.parametrize("command", ["predict", "cam"])
@pytest.mark.parametrize("missing", ["bundle", "manifest"])
def test_missing_scoring_input_is_a_usage_error(scoring_inputs, tmp_path, capsys,
                                                command, missing):
    paths = dict(scoring_inputs, **{missing: str(tmp_path / f"no_such_{missing}")})
    rc = dispatch(scoring_argv(command, paths, tmp_path / "out.csv"))
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert rc == 2
    assert err == f"error: usage: {missing} not found: {paths[missing]}"
    assert not (tmp_path / "out.csv").exists()


def test_cam_maps_the_predicted_class_of_a_label_the_bundle_lacks(scoring_inputs, tmp_path):
    trials = load_manifest(scoring_inputs["manifest"]).trials
    trials[0] = replace(trials[0], class_label="expert")
    paths = [tmp_path / f"trial{i}.csv" for i in range(len(trials))]
    for trial, path in zip(trials, paths):
        write_trial_csv(trial, path)
    write_manifest([(p, t.subject_id, t.trial_index) for t, p in zip(trials, paths)],
                   tmp_path / "manifest.csv")
    inputs = dict(scoring_inputs, manifest=str(tmp_path / "manifest.csv"))
    assert dispatch(scoring_argv("predict", inputs, tmp_path / "records.csv")) == 0
    assert dispatch(scoring_argv("cam", inputs, tmp_path / "cams.csv")) == 0
    _, records = read_records_csv(tmp_path / "records.csv")
    cams = read_cams_csv(tmp_path / "cams.csv")
    assert records[0].actual is None
    assert cams[records[0].trial_id].class_index == records[0].predicted
    assert cams[records[1].trial_id].class_index == records[1].actual


@pytest.mark.parametrize("command", ["predict", "cam", "train-classifier"])
def test_channels_unlike_the_bundles_are_a_runtime_error_naming_both_files(
        scoring_inputs, small_dae, tmp_path, capsys, command):
    """A manifest whose channels are not the ones the bundle was fit on
    exits 1 with one line naming the manifest, the trial and the bundle."""
    trials = [replace(t, channels=("p", "q", "r", "s"))
              for t in load_manifest(scoring_inputs["manifest"]).trials]
    paths = [tmp_path / f"trial{i}.csv" for i in range(len(trials))]
    for trial, path in zip(trials, paths):
        write_trial_csv(trial, path)
    manifest = str(tmp_path / "manifest.csv")
    write_manifest([(p, t.subject_id, t.trial_index) for t, p in zip(trials, paths)], manifest)
    if command == "train-classifier":
        bundle = str(tmp_path / "dae.skq")
        save_bundle(small_dae[0], bundle)
        argv = [command, "--manifest", manifest, "--dae", bundle, "--out", str(tmp_path / "out")]
    else:
        bundle = scoring_inputs["bundle"]
        argv = scoring_argv(command, dict(scoring_inputs, manifest=manifest),
                            tmp_path / "out")
    fit_on = load_bundle(bundle).minmax.channels
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: runtime: {manifest}: channel mismatch: {trials[0].trial_id} has "
        f"('p', 'q', 'r', 's'), bundle {bundle} was fit on {fit_on}"]
    assert not (tmp_path / "out").exists()


def last_error(capsys):
    return capsys.readouterr().err.strip().splitlines()[-1]


def test_a_bundle_of_the_wrong_mode_is_a_usage_error_naming_it(scoring_inputs, small_dae,
                                                               tmp_path, capsys):
    dae, skill = str(tmp_path / "dae.skq"), scoring_inputs["bundle"]
    save_bundle(small_dae[0], dae)
    assert dispatch(scoring_argv("predict", dict(scoring_inputs, bundle=dae),
                                 tmp_path / "records.csv")) == 2
    assert last_error(capsys) == (
        f"error: usage: predict needs a classification or regression bundle, not {dae}")
    assert dispatch(["train-classifier", "--manifest", scoring_inputs["manifest"], "--dae", skill,
                     "--out", str(tmp_path / "skill")]) == 2
    assert last_error(capsys) == (
        f"error: usage: --dae {skill} has mode 'classification', not autoencoder")


@pytest.fixture(scope="module")
def records_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records_csv([PredictionRecord(f"S1:{i}", "S1", i, actual=i % 2, predicted=i // 2 % 2,
                                        confidences=(0.25 + 0.125 * i, 0.75 - 0.125 * i))
                       for i in range(4)], path)
    return str(path)


def trust_argv(records_file, out, *flags):
    return ["trust", "--records", records_file, "--out", str(out), *flags]


def test_trust_takes_positive_exponents(records_file, tmp_path):
    out = tmp_path / "trust"
    assert dispatch(trust_argv(records_file, out, "--alpha", "0.5", "--beta", "2")) == 0
    assert "alpha = 0.5\nbeta = 2\n" in (out / "trust.txt").read_text()


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
@pytest.mark.parametrize("value, joined", [
    ("nan", False), ("inf", False), ("-inf", True), ("0", False), ("-0.0", True),
    ("-1", False), ("abc", False)])
def test_trust_exponent_must_be_finite_and_positive(records_file, tmp_path, capsys,
                                                    flag, value, joined):
    out = tmp_path / "trust"
    flags = [f"{flag}={value}"] if joined else [flag, value]
    rc = dispatch(trust_argv(records_file, out, *flags))
    assert rc == 2
    assert last_error(capsys) == (f"error: usage: argument {flag}: "
                                  f"expected a finite number > 0, got '{value}'")
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    ("S:0,S,0,0,0,0.9", "line 6: expected 9 fields, got 6"),
    ("S:0,S,0,0,0,abc,0.5,,", "line 6, column 'conf_pass': expected a finite number, got 'abc'"),
    ("S:0,S,0,7,0,0.5,0.5,,",
     "line 6, column 'actual': expected a class index from 0 to 1, got '7'"),
    ("S03:0,S03,-1,0,0,0.5,0.5,,", "line 6, column 'trial_id': expected 'S03:-1' from "
     "columns 'subject' and 'trial', got 'S03:0'"),
    ("S1:5,S2,5,0,0,0.5,0.5,,", "line 6, column 'trial_id': expected 'S2:5' from "
     "columns 'subject' and 'trial', got 'S1:5'"),
    pytest.param("S:0,S,0,0,0," + "a" * 100_000 + ",0.5,,",
                 f"line 6, column 'conf_pass': expected a finite number, got {'a' * 40!r}... "
                 "(100,000 characters)", id="long-cell"),
])
def test_bad_records_row_is_a_runtime_error_naming_file_and_line(records_file, tmp_path,
                                                                 capsys, row, message):
    records = tmp_path / "records.csv"
    with open(records_file) as fh:
        records.write_text(fh.read() + row + "\n")
    assert dispatch(trust_argv(str(records), tmp_path / "trust")) == 1
    assert last_error(capsys) == f"error: runtime: {records} {message}"


@pytest.mark.parametrize("cells, column, value", [("0.5,0.6,-0.1", "conf_c", "-0.1"),
                                                  ("0.5,1.5,-1.0", "conf_b", "1.5")])
def test_a_confidence_outside_the_unit_interval_is_refused_in_any_column(tmp_path, capsys,
                                                                         cells, column, value):
    """Each confidence lies in [0, 1], not only the predicted class's: a
    row whose confidences sum to 1 with one outside [0, 1] is refused,
    naming the file, the line and the column."""
    records = tmp_path / "records.csv"
    records.write_text(
        "trial_id,subject,trial,actual,predicted,conf_a,conf_b,conf_c,true_score,pred_score\n"
        f"S01:0,S01,0,0,0,{cells},,\n"
        "S01:1,S01,1,1,1,0.25,0.5,0.25,,\n"
        "S01:2,S01,2,2,2,0.25,0.25,0.5,,\n")
    assert dispatch(trust_argv(str(records), tmp_path / "trust")) == 1
    assert last_error(capsys) == (f"error: runtime: {records} line 2, column '{column}': "
                                  f"expected a number in [0, 1], got '{value}'")
    assert not (tmp_path / "trust").exists()


def test_repeated_records_trial_is_a_runtime_error_naming_both_lines(records_file, tmp_path,
                                                                    capsys):
    records = tmp_path / "records.csv"
    with open(records_file) as fh:
        lines = fh.read().splitlines()
    records.write_text("\n".join(lines + [lines[1]]) + "\n")
    assert dispatch(trust_argv(str(records), tmp_path / "trust")) == 1
    assert last_error(capsys) == (f"error: runtime: {records} line 6: duplicate trial_id "
                                  f"'S1:0' (first on line 2)")
    assert not (tmp_path / "trust").exists()


@pytest.mark.parametrize("cells, column", [
    ("conf_a,conf_a", "conf_a"),
    ("conf_,conf_b", "conf_"),
    ("conf_a/b,conf_c", "conf_a/b"),
    ("conf_a\\b,conf_c", "conf_a\\b"),
    ("conf_a\0b,conf_c", "conf_a\0b"),
    ('"conf_a\nb",conf_c', "conf_a\nb"),
], ids=["repeated", "empty", "slash", "backslash", "nul", "newline"])
def test_records_class_name_must_be_unique_printable_and_not_a_path(records_file, tmp_path,
                                                                   capsys, cells, column):
    """A class name names report lines and density files, so a bad one
    is refused before anything is written."""
    records = tmp_path / "records.csv"
    with open(records_file) as fh:
        records.write_text(fh.read().replace("conf_pass,conf_fail", cells, 1))
    assert dispatch(trust_argv(str(records), tmp_path / "trust")) == 1
    assert last_error(capsys) == (f"error: runtime: {records}, column {column!r}: expected a "
                                  "unique, non-empty, printable class name without '/' or "
                                  "'\\'")
    assert not (tmp_path / "trust").exists()


def test_long_records_header_is_echoed_bounded(tmp_path, capsys):
    records = tmp_path / "records.csv"
    header = "trial_id,subject,trial,actual,predicted," + "a" * 100_000 + ",true_score,pred_score"
    records.write_text(header + "\n")
    assert dispatch(trust_argv(str(records), tmp_path / "trust")) == 1
    assert last_error(capsys) == (f"error: runtime: {records}: unexpected records header "
                                  f"{header[:40]!r}... (100,062 characters)")


def test_out_of_memory_is_a_runtime_error(tmp_path, capsys):
    """numpy refuses a 582 TiB request at once, so nothing large is
    allocated."""
    assert dispatch(["synth", "--out", str(tmp_path / "data"), "--n-subjects", "2",
                     "--trials-per-subject", "4"]) == 0
    rc = dispatch(["train-dae", "--manifest", str(tmp_path / "data" / "manifest.csv"),
                   "--out", str(tmp_path / "dae"), "--arch-emb-channels", "1000000000000"])
    assert rc == 1
    assert last_error(capsys).startswith("error: runtime: ")


def test_repeated_manifest_trial_is_a_runtime_error_naming_both_lines(scoring_inputs,
                                                                     tmp_path, capsys):
    base = os.path.dirname(scoring_inputs["manifest"])
    with open(scoring_inputs["manifest"]) as fh:
        header, first, *rest = fh.read().splitlines()
    rows = [os.path.join(base, row) for row in [first, *rest, first]]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join([header, *rows]) + "\n")
    trial_id = load_manifest(scoring_inputs["manifest"]).trials[0].trial_id
    assert dispatch(["ingest-check", "--manifest", str(manifest)]) == 1
    assert last_error(capsys) == (f"error: runtime: {manifest} line {len(rows) + 1}: "
                                  f"duplicate trial {trial_id} (first on line 2)")


def test_stratified_folds_name_the_first_unlabeled_trial(tmp_path, capsys):
    assert dispatch(["synth", "--out", str(tmp_path / "data"), "--seed", "2",
                     "--n-subjects", "2", "--trials-per-subject", "3"]) == 0
    manifest = tmp_path / "data" / "manifest.csv"
    second = load_manifest(str(manifest)).trials[1]
    path = tmp_path / "data" / "trials" / f"{second.subject_id}_{second.trial_index:03d}.csv"
    text = path.read_text()
    path.write_text(text.replace(f"# class={second.class_label}\n", "# class=NA\n", 1))
    out = tmp_path / "run"
    assert dispatch(["evaluate", "--manifest", str(manifest), "--scheme", "stratified3",
                     "--out", str(out)]) == 1
    assert last_error(capsys) == ("error: runtime: stratified folds need a class label on "
                                  f"every trial; {second.trial_id} has none")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, value, expected", [
    (["gradcheck", "--configs", "0"], "--configs", "0", "an integer >= 1"),
    (["gradcheck", "--configs", "2.5"], "--configs", "2.5", "an integer >= 1"),
    (["gradcheck", "--seed", "-1"], "--seed", "-1", "an integer >= 0"),
    (["gradcheck", "--seed", "x"], "--seed", "x", "an integer >= 0"),
    (["evaluate", "--jobs", "0"], "--jobs", "0", "an integer >= 1"),
    (["validate-cam", "--run", "r", "--jobs=-3"], "--jobs", "-3", "an integer >= 1"),
])
def test_numeric_flags_are_usage_errors_naming_the_flag(capsys, argv, flag, value, expected):
    assert dispatch(argv) == 2
    assert last_error(capsys) == f"error: usage: argument {flag}: expected {expected}, got '{value}'"


def test_a_checked_integer_flag_takes_an_integer_no_float_holds(capsys):
    """Only a float flag must be finite: a 400-digit seed is still an
    integer >= 0."""
    assert dispatch(["gradcheck", "--configs", "1", "--seed", "1" * 400]) == 0
    assert capsys.readouterr().out.endswith("status = pass\n")


@pytest.mark.parametrize("last_row, message", [
    (b"1,3,inf\n", "line 6, column 'y': non-finite value 'inf'"),
    (b"1,\xff,2\n", "line 6: not UTF-8 text (byte 0xff at offset 49: invalid start byte)"),
])
@pytest.mark.parametrize("command", ["ingest-check", "predict"])
def test_bad_trial_file_is_a_runtime_error_naming_it(scoring_inputs, tmp_path, capsys,
                                                     last_row, message, command):
    trial = tmp_path / "trial.csv"
    trial.write_bytes(b"# subject=S1\n# trial=0\n# rate_hz=1\nt,x,y\n0,1,2\n" + last_row)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,subject,trial\ntrial.csv,S1,0\n")
    if command == "ingest-check":
        argv = [command, "--manifest", str(manifest)]
    else:
        argv = scoring_argv(command, dict(scoring_inputs, manifest=str(manifest)),
                            tmp_path / "out.csv")
    assert dispatch(argv) == 1
    assert last_error(capsys) == f"error: runtime: {trial} {message}"


@pytest.mark.parametrize("target_hz, why", [("1e-310", "not finite"), ("1e300", "< 1")])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_a_target_rate_without_a_stride_is_a_runtime_error(scoring_inputs, tmp_path, capsys,
                                                          command, target_hz, why):
    """A finite rate > 0 can still leave no usable stride: rate / target_hz
    overflows to infinity or rounds below 1.  Either is one runtime error
    line naming the manifest, the first trial and both rates, not a
    traceback."""
    manifest = scoring_inputs["manifest"]
    first = load_manifest(manifest).trials[0]
    out = tmp_path / "out"
    if command == "predict":
        argv = scoring_argv(command, scoring_inputs, out)
    else:
        argv = [command, "--manifest", scoring_inputs["manifest"], "--out", str(out)]
    assert dispatch(argv + ["--target-hz", target_hz]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: runtime: {manifest}: {first.trial_id}: cannot downsample "
        f"{first.sample_rate_hz} Hz to {float(target_hz)} Hz (stride {why})"]
    assert not out.exists()


def test_train_classifier_over_a_given_dae_trains_under_the_bundle_minmax(tmp_path):
    """With ``--dae`` the skill bundle ships the autoencoder's min-max, so
    the head trains on inputs scaled by it, not by statistics fitted on
    this manifest: the bundle is the one ``train_classifier`` makes from
    the manifest's downsampled trials and the DAE."""
    data = {"a": ["--seed", "1"], "b": ["--seed", "2", "--subject-bias", "2.0"]}
    for name, flags in data.items():
        assert dispatch(["synth", "--out", str(tmp_path / name), "--n-subjects", "3",
                         "--trials-per-subject", "4", "--pass-fraction", "0.5"] + flags) == 0
    recipe = {"seed": 5, "dae_max_epochs": 1, "clf_max_epochs": 2, "arch_enc_width": 4,
              "arch_clf_width": 4}
    flags = [x for k, v in recipe.items() for x in (f"--{k.replace('_', '-')}", str(v))]
    manifest = str(tmp_path / "b" / "manifest.csv")
    assert dispatch(["train-dae", "--manifest", str(tmp_path / "a" / "manifest.csv"),
                     "--out", str(tmp_path / "dae")] + flags) == 0
    dae_path = str(tmp_path / "dae" / "dae.skq")
    assert dispatch(["train-classifier", "--manifest", manifest, "--dae", dae_path,
                     "--out", str(tmp_path / "skill")] + flags) == 0

    dae, skill = load_bundle(dae_path), load_bundle(str(tmp_path / "skill" / "skill.skq"))
    settings = resolve_run_config(None, recipe).settings
    trials = prepare_dataset(load_manifest(manifest), settings.target_hz).trials
    assert not np.allclose(fit_minmax(trials).mins, dae.minmax.mins)
    want, _ = train_classifier(dae, trials, settings.clf, settings.seed, settings.arch,
                               settings.mode)
    assert skill.minmax.to_dict() == dae.minmax.to_dict()
    assert sorted(skill.weights) == sorted(want.weights)
    for k, v in want.weights.items():
        assert skill.weights[k].tobytes() == v.tobytes(), k


@pytest.mark.parametrize("widths", [(8,), (16, 8)], ids=["one-conv", "conv-conv"])
def test_train_classifier_takes_the_embedding_width_from_the_encoder_walk(
        small_dae, tmp_path, capsys, widths):
    """A head over a given autoencoder takes its input width from the
    channels that flow out of the encoder, whatever the encoder's layers:
    a one-conv encoder, or two convolutions in a row."""
    assert dispatch(["synth", "--out", str(tmp_path / "data"), "--n-subjects", "2",
                     "--trials-per-subject", "4", "--pass-fraction", "0.5"]) == 0
    minmax = small_dae[0].minmax
    encoder, channels = [], len(minmax.channels)
    for width in widths:
        encoder.append(LayerSpec("conv1d", in_channels=channels, out_channels=width,
                                 kernel_size=3))
        channels = width
    groups = {"encoder": tuple(encoder),
              "decoder": (LayerSpec("conv1d", in_channels=channels,
                                    out_channels=len(minmax.channels), kernel_size=3),
                          LayerSpec("sigmoid"))}
    rng = np.random.default_rng(0)
    weights = {f"{g}/{k}": v for g, specs in groups.items()
               for k, v in init_stack_params(specs, rng).items()}
    dae = tmp_path / "dae.skq"
    save_bundle(ModelBundle(mode="autoencoder", groups=groups, weights=weights,
                            minmax=minmax), dae)
    assert dispatch(["train-classifier", "--manifest", str(tmp_path / "data" / "manifest.csv"),
                     "--dae", str(dae), "--out", str(tmp_path / "skill"),
                     "--clf-max-epochs", "1"]) == 0, capsys.readouterr().err
    skill = load_bundle(str(tmp_path / "skill" / "skill.skq"))
    assert skill.groups["head"][0].in_channels == widths[-1]


@pytest.mark.parametrize("mode, value, choices", [
    ("classification", "7", "'pass', 'fail', 0, 1"),
    ("classification", "2", "'pass', 'fail', 0, 1"),
    ("classification", "-1", "'pass', 'fail', 0, 1"),
    ("regression", "1", "0"),
    ("regression", "-1", "0"),
])
def test_out_of_range_target_class_is_a_usage_error(scoring_inputs, small_regressor, tmp_path,
                                                    capsys, mode, value, choices):
    paths = dict(scoring_inputs)
    if mode == "regression":
        paths["bundle"] = str(tmp_path / "regressor.skq")
        save_bundle(small_regressor[0], paths["bundle"])
    argv = scoring_argv("cam", paths, tmp_path / "cams.csv") + ["--target-class", value]
    assert dispatch(argv) == 2
    assert last_error(capsys) == (f"error: usage: --target-class {value} is out of range; "
                                  f"choose one of: {choices}")
    assert not (tmp_path / "cams.csv").exists()


@pytest.mark.parametrize("value, index", [("fail", 1), ("1", 1), ("0", 0)])
def test_target_class_by_name_or_index(scoring_inputs, tmp_path, value, index):
    argv = scoring_argv("cam", scoring_inputs, tmp_path / "cams.csv") + ["--target-class", value]
    assert dispatch(argv) == 0
    assert {cam.class_index for cam in read_cams_csv(tmp_path / "cams.csv").values()} == {index}
