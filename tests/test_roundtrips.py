"""Property tests for the persisted formats: trial CSV, fold text, bundles.

Each writer's output must read back to an equal value; floating-point
values come back bit for bit.
"""

import hashlib
import re
import struct
import sys
from dataclasses import asdict
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skillseq.bundle as bundle_format
from skillseq.bundle import (BUNDLE_VERSION, BundleFormatError, BundleTruncatedError,
                             BundleVersionError, load_bundle, save_bundle)
from skillseq.cli import dispatch
from skillseq.data import (PASS_FAIL, MinMaxStats, ScoreStats, Trial, parse_trial_csv,
                           write_trial_csv)
from skillseq.folds import Fold, FoldAssignment
from skillseq.layers import LayerSpec, init_stack_params
from skillseq.model import ArchConfig, ModelBundle, decoder_specs, encoder_specs, head_specs
from skillseq.reports import quoted

names = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
                min_size=1, max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


# characters that a name in a trial file cannot carry: separators, quotes
# and line breaks; trial-field names mix them with edge spaces and "NA"
UNREADABLE = ',"\r\n\x0c\x85\u2028'
field_names = st.one_of(st.just("NA"),
                        st.text("aN A#=\t" + UNREADABLE, min_size=1, max_size=6))


def readable(name):
    """True when a trial file reads ``name`` back as written."""
    return name == name.strip() and not set(name) & set(UNREADABLE)


@st.composite
def raw_trial_fields(draw):
    """The fields of a raw trial; one in five has a non-finite score or rate."""
    channels = tuple(draw(st.lists(st.one_of(names, field_names).filter(lambda n: n != "t"),
                                   min_size=1, max_size=4, unique=True)))
    n_frames = draw(st.integers(1, 12))
    cells = draw(st.lists(st.one_of(finite, st.none()),
                          min_size=n_frames * len(channels),
                          max_size=n_frames * len(channels)))
    values = np.array([np.nan if c is None else c for c in cells]).reshape(n_frames, -1)
    fields = dict(subject_id=draw(st.one_of(names, field_names)),
                  trial_index=draw(st.integers(0, 10 ** 6)),
                  sample_rate_hz=draw(st.floats(1e-3, 1e4)), channels=channels,
                  values=values, score=draw(st.one_of(st.none(), finite)),
                  class_label=draw(st.one_of(st.none(), st.sampled_from(PASS_FAIL), names,
                                             field_names)))
    fault = draw(st.sampled_from([None] * 8 + ["score", "sample_rate_hz"]))
    if fault:
        fields[fault] = draw(non_finite)
    return fields


@settings(max_examples=200, deadline=None)
@given(fields=raw_trial_fields())
def test_trial_csv_round_trips(fields, tmp_path_factory):
    """A trial is written and read back exactly, or refused before any
    file exists when one of its names, a subject holding ' = ', or a class
    label other than pass or fail, would not read back.  A trial with
    a non-finite score or rate, which its file could not hold, cannot be
    built at all."""
    for name, message in (("sample_rate_hz", "sample_rate_hz must be finite and > 0"),
                          ("score", "score must be finite or None")):
        if fields[name] is not None and not np.isfinite(fields[name]):
            with pytest.raises(ValueError, match=f"^{message}, got "):
                Trial(**fields)
            return
    trial = Trial(**fields)
    path = tmp_path_factory.mktemp("trial") / "trial.csv"
    writable = (all(map(readable, (trial.subject_id, *trial.channels)))
                and " = " not in trial.subject_id and trial.class_label in (None, *PASS_FAIL))
    if not writable:
        with pytest.raises(ValueError, match=f"^{re.escape(trial.trial_id)}: cannot write "):
            write_trial_csv(trial, path)
        assert not path.exists()
        return
    write_trial_csv(trial, path)
    back = parse_trial_csv(path)
    assert (back.subject_id, back.trial_index, back.channels, back.class_label, back.stage) \
        == (trial.subject_id, trial.trial_index, trial.channels, trial.class_label, trial.stage)
    assert _bits([back.sample_rate_hz]) == _bits([trial.sample_rate_hz])
    assert (back.score is None) == (trial.score is None)
    if trial.score is not None:
        assert _bits([back.score]) == _bits([trial.score])
    assert _bits(back.values) == _bits(trial.values)   # empty cells read back as np.nan


@st.composite
def fold_assignments(draw):
    ids = draw(st.lists(names, min_size=1, max_size=12, unique=True))
    fold_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    folds = []
    for name in fold_names:
        test = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        train = [i for i in ids if i not in test and draw(st.booleans())]
        folds.append(Fold(name=name, train_ids=tuple(train), test_ids=tuple(test)))
    return FoldAssignment(scheme=draw(st.sampled_from(["stratified3", "loso", "louo"])),
                          seed=draw(st.integers(-2 ** 40, 2 ** 40)), folds=tuple(folds))


@settings(max_examples=100, deadline=None)
@given(assignment=fold_assignments())
def test_fold_text_round_trips(assignment):
    text = assignment.canonical_text()
    back = FoldAssignment.from_canonical_text(text)
    assert back == assignment
    assert back.canonical_text() == text


@st.composite
def bundles(draw):
    arch = ArchConfig(enc_width=draw(st.sampled_from([2, 4])), emb_channels=draw(st.integers(1, 3)),
                      kernel_size=draw(st.sampled_from([1, 3])), clf_width=2)
    n_channels = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["autoencoder", "classification", "regression"]))
    groups = {"encoder": encoder_specs(arch, n_channels)}
    if mode == "autoencoder":
        groups["decoder"] = decoder_specs(n_channels, arch)
    else:
        groups["head"] = head_specs(arch, mode)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = {}
    for group, specs in groups.items():
        for k, v in init_stack_params(specs, rng).items():
            v = v * 2.0 ** rng.integers(-1070, 1000, size=v.shape)   # subnormal to huge
            weights[f"{group}/{k}"] = np.where(rng.random(v.shape) < 0.1, -0.0, v)
    channels = tuple(f"c{i}" for i in range(n_channels))
    mins = rng.normal(size=n_channels)
    return ModelBundle(
        mode=mode, groups=groups, weights=weights,
        minmax=MinMaxStats(channels, mins, mins + rng.uniform(0.5, 10.0, size=n_channels),
                           ("S1:0", "S1:1")),   # load_bundle requires max > min
        score_stats=ScoreStats(draw(finite), draw(finite), ("S1:0",))
        if mode == "regression" else None)


@settings(max_examples=50, deadline=None)
@given(bundle=bundles())
def test_bundle_round_trips_bit_identically(bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "b.skq"
    save_bundle(bundle, path)
    back = load_bundle(path)
    assert (back.mode, back.groups, back.class_names) \
        == (bundle.mode, bundle.groups, bundle.class_names)
    assert sorted(back.weights) == sorted(bundle.weights)
    for name, arr in bundle.weights.items():
        assert back.weights[name].shape == arr.shape
        assert _bits(back.weights[name]) == _bits(arr), name
    assert back.minmax.channels == bundle.minmax.channels
    assert back.minmax.source_ids == bundle.minmax.source_ids
    assert _bits(back.minmax.mins) == _bits(bundle.minmax.mins)
    assert _bits(back.minmax.maxs) == _bits(bundle.minmax.maxs)
    assert back.score_stats == bundle.score_stats


# --- structural faults behind a valid checksum ---
#
# The body below holds two arrays: "a" with shape (2,) and "enc/w" with
# shape (2, 3).  Its byte offsets: magic 0, version 4, metadata length 8,
# metadata 16, array count 18; "a": name length 22, name 24, ndim 25,
# dim 26, data 34; "enc/w": name length 50, name 52, ndim 57, dims 58 and
# 66, data 74; end 122.


def _array_bytes(name, arr):
    nb = name.encode("utf-8")
    return (struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
            + b"".join(struct.pack("<Q", d) for d in arr.shape) + arr.astype("<f8").tobytes())


def _crafted_body(version=BUNDLE_VERSION):
    meta = b"{}"
    return (b"SKSQ" + struct.pack("<I", version) + struct.pack("<Q", len(meta)) + meta
            + struct.pack("<I", 2) + _array_bytes("a", np.array([1.5, -2.0]))
            + _array_bytes("enc/w", np.arange(6.0).reshape(2, 3)))


def _load_crafted(tmp_path, body):
    path = tmp_path / "crafted.skq"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(BundleFormatError) as excinfo:
        load_bundle(path)
    return path, excinfo


def test_crafted_body_has_the_documented_length():
    assert len(_crafted_body()) == 122


@pytest.mark.parametrize("cut, message", [
    (12, "needed 8 bytes for metadata length at offset 8, file has 4 left"),
    (17, "needed 2 bytes for metadata at offset 16, file has 1 left"),
    (20, "needed 4 bytes for array count at offset 18, file has 2 left"),
    (51, "needed 2 bytes for array name length at offset 50, file has 1 left"),
    (55, "needed 5 bytes for array name at offset 52, file has 3 left"),
    (57, "needed 1 bytes for array ndim at offset 57, file has 0 left"),
    (62, "needed 8 bytes for array dim at offset 58, file has 4 left"),
    (70, "needed 8 bytes for array dim at offset 66, file has 4 left"),
    (114, "needed 48 bytes for array 'enc/w' data at offset 74, file has 40 left"),
    (33, "needed 8 bytes for array dim at offset 26, file has 7 left"),
    (40, "needed 16 bytes for array 'a' data at offset 34, file has 6 left"),
], ids=["metadata-length", "metadata", "array-count", "name-length", "name", "ndim",
        "first-dim", "second-dim", "data", "first-array-dim", "first-array-data"])
def test_truncated_body_names_the_field_and_offset(tmp_path, cut, message):
    path, excinfo = _load_crafted(tmp_path, _crafted_body()[:cut])
    assert excinfo.type is BundleTruncatedError
    assert str(excinfo.value) == f"{path}: truncated bundle: {message}"


def test_unsupported_version_is_refused(tmp_path):
    path, excinfo = _load_crafted(tmp_path, _crafted_body(version=2))
    assert excinfo.type is BundleVersionError
    assert str(excinfo.value) == f"{path}: format version 2 unsupported (expected 1)"


def test_trailing_bytes_are_refused(tmp_path):
    path, excinfo = _load_crafted(tmp_path, _crafted_body() + b"xyz")
    assert excinfo.type is BundleFormatError
    assert str(excinfo.value) == f"{path}: 3 unexpected trailing bytes"


# --- metadata faults behind a valid checksum ---


@pytest.fixture(scope="module")
def skill_inputs(tmp_path_factory, small_classifier):
    root = tmp_path_factory.mktemp("meta")
    assert dispatch(["synth", "--out", str(root / "data"), "--seed", "2",
                     "--n-subjects", "1", "--trials-per-subject", "2"]) == 0
    return small_classifier[0], str(root / "data" / "manifest.csv")


def _unknown_key(meta):
    meta["groups"]["encoder"][1]["stride"] = 2


def _null_trainable(meta):
    meta["trainable"] = None


def _string_groups(meta):
    meta["groups"] = "x"


def _kernel_size_disagrees(meta):
    meta["groups"]["encoder"][1]["kernel_size"] = 1


def _short_mins(meta):
    meta["minmax"]["mins"] = meta["minmax"]["mins"][:-1]


def _no_mode(meta):
    del meta["mode"]


def _empty_range(meta):
    meta["minmax"]["maxs"][2] = meta["minmax"]["mins"][2]


def _inverted_range(meta):
    meta["minmax"]["maxs"][1] = -1.0


def _null_minmax(meta):
    meta["minmax"] = None


def _channels_on_a_selu(meta):
    meta["groups"]["encoder"][2]["in_channels"] = 7


def _even_kernel(meta):
    meta["groups"]["encoder"][1]["kernel_size"] = 2


def _reduction_not_dividing(meta):
    meta["groups"]["encoder"][3]["reduction"] = 4


@pytest.mark.parametrize("edit, message", [
    (_unknown_key, "bad metadata: 'groups.encoder[1].stride' is not a known key"),
    (_null_trainable, "bad metadata: 'trainable' must be {{\"encoder\":false,\"head\":true}} "
                      "for mode 'classification', got 'null'"),
    (_string_groups, "bad metadata: 'groups' must be an object, got 'x'"),
    (_kernel_size_disagrees, "array 'encoder/1.w' has shape (3, 4, 6); its layer needs (1, 4, 6)"),
    (_short_mins,
     "bad metadata: 'minmax.mins' must be a list of 4 values, each a number, got '[{mins}]'"),
    (_no_mode, "bad metadata: 'mode' is missing"),
    (_empty_range, "bad metadata: 'minmax.maxs[2]' must exceed minmax.mins[2] ({min2}) "
                   "for channel '{ch2}', got {min2}"),
    (_inverted_range, "bad metadata: 'minmax.maxs[1]' must exceed minmax.mins[1] ({min1}) "
                      "for channel '{ch1}', got -1.0"),
    (_null_minmax, "bad metadata: 'minmax' must be an object, got 'None'"),
    (_channels_on_a_selu, "bad metadata: 'groups.encoder[2]' is not a valid layer: selu does "
                          "not read in_channels, which must stay 0, got 7"),
    (_even_kernel, "bad metadata: 'groups.encoder[1]' is not a valid layer: kernel_size must "
                   "be odd, got 2"),
    (_reduction_not_dividing, "bad metadata: 'groups.encoder[3]' is not a valid layer: "
                              "reduction 4 must divide channel count 6"),
], ids=["unknown-spec-key", "null-trainable", "string-groups", "kernel-size", "short-mins",
        "no-mode", "empty-range", "inverted-range", "null-minmax", "channels-on-a-selu",
        "even-kernel", "reduction-not-dividing"])
def test_metadata_fault_is_a_runtime_error_naming_the_field(skill_inputs, tmp_path, capsys,
                                                            edit, message):
    bundle, manifest = skill_inputs
    meta = bundle_format._meta_dict(bundle)
    mm = meta["minmax"]
    fields = {"mins": ", ".join(map(repr, mm["mins"][:-1])), "min1": repr(mm["mins"][1]),
              "min2": repr(mm["mins"][2]), "ch1": mm["channels"][1], "ch2": mm["channels"][2]}
    edit(meta)
    path = tmp_path / "skill.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(bundle, path)
    rc = dispatch(["predict", "--bundle", str(path), "--manifest", manifest,
                   "--out", str(tmp_path / "records.csv")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err == f"error: runtime: {path}: {message.format(**fields)}"


@pytest.mark.parametrize("kind, edit, field", [
    ("classification", lambda meta: meta["trainable"].update(head=False), "trainable"),
    ("classification", lambda meta: meta["trainable"].update(head=1), "trainable"),
    ("classification", lambda meta: meta["trainable"].update(encoder=True), "trainable"),
    ("classification", lambda meta: meta.update(class_names=["good", "bad"]), "class_names"),
    ("classification", lambda meta: meta.update(class_names=None), "class_names"),
    ("regression", lambda meta: meta.update(class_names=["pass", "fail"]), "class_names"),
    ("autoencoder", lambda meta: meta["trainable"].update(encoder=True), "trainable"),
], ids=["untrainable-head", "numeric-flag", "trainable-encoder", "other-class-names",
        "null-class-names", "regression-class-names", "trainable-dae-encoder"])
def test_metadata_the_mode_fixes_holds_nothing_else(small_classifier, small_regressor,
                                                    small_dae, skill_inputs, tmp_path, capsys,
                                                    kind, edit, field):
    """A bundle whose ``trainable`` flags or class names differ from what
    its mode fixes exits 1, naming the file and the field: a skill bundle
    under ``predict`` and ``cam``, an autoencoder under
    ``train-classifier --dae``."""
    bundle = {"classification": small_classifier, "regression": small_regressor,
              "autoencoder": small_dae}[kind][0]
    manifest = skill_inputs[1]
    meta = bundle_format._meta_dict(bundle)
    want = bundle_format._canonical(meta[field])
    edit(meta)
    path = tmp_path / "b.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(bundle, path)
    if kind == "autoencoder":
        runs = [["train-classifier", "--manifest", manifest, "--dae", str(path),
                 "--out", str(tmp_path / "skill")]]
    else:
        scoring = ["--bundle", str(path), "--manifest", manifest]
        runs = [["predict", *scoring, "--out", str(tmp_path / "records.csv")],
                ["cam", *scoring, "--out", str(tmp_path / "cams.csv")]]
    for argv in runs:
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == (f"error: runtime: {path}: bad metadata: '{field}' must be {want} "
                       f"for mode '{kind}', got {quoted(bundle_format._canonical(meta[field]))}")
    assert not [out for out in ("skill", "records.csv", "cams.csv") if (tmp_path / out).exists()]


def test_a_huge_bad_value_is_quoted_bounded(small_classifier, tmp_path):
    """A bad metadata value is quoted shortened, however long it is."""
    bundle = small_classifier[0]
    meta = bundle_format._meta_dict(bundle)
    meta["minmax"]["mins"] = [0.0] * 100_000
    path = tmp_path / "skill.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(bundle, path)
    with pytest.raises(BundleFormatError) as excinfo:
        load_bundle(path)
    message = str(excinfo.value)
    assert message.startswith(f"{path}: bad metadata: 'minmax.mins' must be a list of")
    assert len(message) < 300


@pytest.mark.parametrize("kind, edit, field, shown", [
    ("classification", lambda meta: meta["minmax"]["mins"].__setitem__(0, 10 ** 4000),
     "minmax.mins[0]", "'1000000000000000000000000000000000000000'... (4,001 characters)"),
    ("classification", lambda meta: meta["minmax"]["maxs"].__setitem__(3, -10 ** 309),
     "minmax.maxs[3]", "'-100000000000000000000000000000000000000'... (311 characters)"),
    ("classification", lambda meta: meta["minmax"]["maxs"].__setitem__(1, float("inf")),
     "minmax.maxs[1]", "'inf'"),
    ("regression", lambda meta: meta["score_stats"].update(std=10 ** 400), "score_stats.std",
     "'1000000000000000000000000000000000000000'... (401 characters)"),
    ("classification", lambda meta: meta["groups"]["encoder"][0].update(sigma=10 ** 400),
     "groups.encoder[0].sigma", "'1000000000000000000000000000000000000000'... (401 characters)"),
], ids=["huge-min", "huge-negative-max", "infinite-max", "huge-std", "huge-sigma"])
def test_a_number_beyond_float_range_is_refused_naming_the_field(
        small_classifier, small_regressor, skill_inputs, tmp_path, capsys, kind, edit, field,
        shown):
    """A JSON number no finite float holds is refused, naming the file and
    the field, and quoted shortened; ``predict`` exits 1 without a
    traceback."""
    bundle = {"classification": small_classifier, "regression": small_regressor}[kind][0]
    meta = bundle_format._meta_dict(bundle)
    edit(meta)
    path = tmp_path / "skill.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(bundle, path)
    assert dispatch(["predict", "--bundle", str(path), "--manifest", skill_inputs[1],
                     "--out", str(tmp_path / "records.csv")]) == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"error: runtime: {path}: bad metadata: '{field}' must lie within float range, "
        f"got {shown}")
    assert not (tmp_path / "records.csv").exists()


def test_a_huge_unknown_key_is_quoted_bounded(small_classifier, tmp_path):
    bundle = small_classifier[0]
    meta = bundle_format._meta_dict(bundle)
    meta["minmax"]["k" * 100_000] = 0
    path = tmp_path / "skill.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(bundle, path)
    with pytest.raises(BundleFormatError) as excinfo:
        load_bundle(path)
    assert str(excinfo.value) == (f"{path}: bad metadata: 'minmax.{'k' * 33}'... "
                                  "(100,007 characters) is not a known key")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on the digits of an integer's text")
def test_an_integer_of_too_many_digits_is_a_bad_metadata_block(small_classifier, tmp_path,
                                                               monkeypatch):
    bundle = small_classifier[0]
    meta = bundle_format._meta_dict(bundle)
    meta["minmax"]["mins"][0] = 10 ** 5000
    path = tmp_path / "skill.skq"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
            save_bundle(bundle, path)
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(BundleFormatError,
                       match=f"^{re.escape(str(path))}: bad metadata block \\(Exceeds the limit"):
        load_bundle(path)


def _drop_group(group):
    return lambda meta, weights: meta["groups"].pop(group)


def _second_dense(meta, weights):
    meta["groups"]["head"].insert(5, asdict(LayerSpec("dense", in_channels=2, out_channels=2)))


def _append_softmax(meta, weights):
    meta["groups"]["head"].append(asdict(LayerSpec("softmax")))


@pytest.mark.parametrize("kind, edit, message", [
    ("classification", _drop_group("encoder"), "bundle must contain an encoder group"),
    ("autoencoder", _drop_group("decoder"), "autoencoder bundle needs a decoder group"),
    ("classification", _drop_group("head"), "classification bundle needs a head group"),
    ("classification", _second_dense, "head must contain exactly one dense layer"),
    ("classification", lambda meta, weights: meta["groups"]["head"].pop(),
     "classification head must end in a 2-way softmax"),
    ("regression", _append_softmax, "regression head must be a single linear unit"),
    ("classification", lambda meta, weights: weights.pop("head/4.b"),
     "missing weight array 'head/4.b'"),
    ("classification", lambda meta, weights: meta.update(mode="bogus"),
     "unknown mode 'bogus'; expected one of ('autoencoder', 'classification', 'regression')"),
    ("classification", lambda meta, weights: meta.update(mode="m" * 400),
     f"unknown mode {'m' * 40!r}... (400 characters); expected one of ('autoencoder', "
     "'classification', 'regression')"),
], ids=["no-encoder", "autoencoder-without-decoder", "no-head", "two-dense-layers",
        "classifier-without-softmax", "regressor-with-softmax", "missing-array", "unknown-mode",
        "huge-unknown-mode"])
def test_a_bundle_the_model_refuses_is_a_format_error_naming_the_file(
        small_classifier, small_regressor, small_dae, tmp_path, kind, edit, message):
    """Groups, heads and arrays that ``ModelBundle`` refuses, read from a
    written bundle file."""
    bundle = {"classification": small_classifier, "regression": small_regressor,
              "autoencoder": small_dae}[kind][0]
    meta, weights = bundle_format._meta_dict(bundle), dict(bundle.weights)
    edit(meta, weights)
    path = tmp_path / "b.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(SimpleNamespace(weights=weights), path)
    with pytest.raises(BundleFormatError) as excinfo:
        load_bundle(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_a_regression_bundle_without_score_statistics_is_refused(small_regressor, tmp_path):
    bundle = small_regressor[0]
    meta = bundle_format._meta_dict(bundle)
    meta["score_stats"] = None
    path = tmp_path / "skill.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(bundle, path)
    with pytest.raises(BundleFormatError,
                       match=re.escape(f"{path}: bad metadata: 'score_stats' must be an object")):
        load_bundle(path)


# --- layer specs that do not chain, each matching its own weights ---


@pytest.mark.parametrize("group, layer, in_channels, message", [
    ("head", 4, 3, "group 'head' layer 4 (dense): in_channels 3, but 6 channels flow into it"),
    ("head", 0, 2, "group 'head' layer 0 (conv1d): in_channels 2, but 4 channels flow into it"),
    ("encoder", 1, 3,
     "group 'encoder' layer 1 (conv1d): in_channels 3, but 4 channels flow into it"),
], ids=["within-group", "across-groups", "minmax-to-encoder"])
def test_specs_that_do_not_chain_are_a_runtime_error_naming_the_layer(
        skill_inputs, tmp_path, capsys, group, layer, in_channels, message):
    bundle, manifest = skill_inputs
    meta = bundle_format._meta_dict(bundle)
    meta["groups"][group][layer]["in_channels"] = in_channels
    key = f"{group}/{layer}.w"
    w = bundle.weights[key]
    narrowed = w[:in_channels] if w.ndim == 2 else w[:, :in_channels]
    crafted = ModelBundle(**{**vars(bundle), "weights": {**bundle.weights, key: narrowed}})
    path = tmp_path / "skill.skq"
    with mock.patch.object(bundle_format, "_meta_dict", return_value=meta):
        save_bundle(crafted, path)
    rc = dispatch(["predict", "--bundle", str(path), "--manifest", manifest,
                   "--out", str(tmp_path / "records.csv")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err == f"error: runtime: {path}: {message}"


def _reordered(bundle, group, order):
    """``bundle`` with ``group``'s layers in ``order`` (indices into the
    group, repeats allowed), each with its own weights."""
    layers, params = bundle.groups[group], bundle.group_params(group)
    weights = {k: v for k, v in bundle.weights.items() if not k.startswith(f"{group}/")}
    for new, old in enumerate(order):
        weights.update({f"{group}/{new}.{k.split('.', 1)[1]}": v for k, v in params.items()
                        if k.startswith(f"{old}.")})
    return {**vars(bundle), "groups": {**bundle.groups, group: tuple(layers[i] for i in order)},
            "weights": weights}


@pytest.mark.parametrize("group, order, message", [
    ("head", (0, 1, 3, 2, 4, 5),
     "group 'head' layer 3 (residual-scse-block) cannot take one vector per trial"),
    ("head", (0, 1, 2, 4, 5), "group 'head' layer 3 (dense) cannot take a sequence"),
    ("head", (0, 1, 2, 3, 3, 4, 5), "group 'head' layer 4 (gap) cannot take one vector per trial"),
    ("encoder", (0, 1, 2, 3, 4, 5, 5), None),
], ids=["block-after-gap", "no-gap", "two-gaps", "repeated-selu"])
def test_a_layer_takes_sequences_before_the_gap_and_vectors_after(small_classifier, group,
                                                                  order, message):
    """A skill head pools over time once; the layers before its ``gap``
    take (T, C) sequences and the ones after it one vector per trial."""
    fields = _reordered(small_classifier[0], group, order)
    if message is None:
        ModelBundle(**fields)
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelBundle(**fields)


def test_only_a_head_pools_over_time(small_dae):
    dae = small_dae[0]
    fields = {**vars(dae), "groups": {**dae.groups, "encoder": dae.groups["encoder"]
                                      + (LayerSpec("gap"),)}}
    with pytest.raises(ValueError, match=r"group 'encoder' layer 6 \(gap\): only a head pools"):
        ModelBundle(**fields)
