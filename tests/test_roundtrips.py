"""Property tests for the persisted formats: trial CSV, fold text, bundles.

Each writer's output must read back to an equal value; floating-point
values come back bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skillseq.bundle import load_bundle, save_bundle
from skillseq.data import MinMaxStats, ScoreStats, Trial, parse_trial_csv, write_trial_csv
from skillseq.folds import Fold, FoldAssignment
from skillseq.layers import init_stack_params
from skillseq.model import ArchConfig, ModelBundle, decoder_specs, encoder_specs, head_specs

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
                  class_label=draw(st.one_of(st.none(), names, field_names)))
    fault = draw(st.sampled_from([None] * 8 + ["score", "sample_rate_hz"]))
    if fault:
        fields[fault] = draw(non_finite)
    return fields


@settings(max_examples=200, deadline=None)
@given(fields=raw_trial_fields())
def test_trial_csv_round_trips(fields, tmp_path_factory):
    """A trial is written and read back exactly, or refused before any
    file exists when one of its names would not read back.  A trial with
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
    label = () if trial.class_label is None else (trial.class_label,)
    writable = (all(map(readable, (trial.subject_id, *trial.channels, *label)))
                and trial.class_label != "NA")
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
        groups["head"] = head_specs(arch, 2 if mode == "classification" else 1,
                                    mode == "classification")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = {}
    for group, specs in groups.items():
        for k, v in init_stack_params(specs, rng).items():
            v = v * 2.0 ** rng.integers(-1070, 1000, size=v.shape)   # subnormal to huge
            weights[f"{group}/{k}"] = np.where(rng.random(v.shape) < 0.1, -0.0, v)
    channels = tuple(f"c{i}" for i in range(n_channels))
    return ModelBundle(
        mode=mode, groups=groups, weights=weights,
        trainable={g: mode == "autoencoder" or g == "head" for g in groups},
        minmax=MinMaxStats(channels, rng.normal(size=n_channels),
                           rng.normal(size=n_channels) + 5.0, ("S1:0", "S1:1")),
        score_stats=ScoreStats(draw(finite), draw(finite), ("S1:0",))
        if mode == "regression" else None,
        class_names=("pass", "fail") if mode == "classification" else None)


@settings(max_examples=50, deadline=None)
@given(bundle=bundles())
def test_bundle_round_trips_bit_identically(bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "b.skq"
    save_bundle(bundle, path)
    back = load_bundle(path)
    assert (back.mode, back.groups, back.trainable, back.class_names) \
        == (bundle.mode, bundle.groups, bundle.trainable, bundle.class_names)
    assert sorted(back.weights) == sorted(bundle.weights)
    for name, arr in bundle.weights.items():
        assert back.weights[name].shape == arr.shape
        assert _bits(back.weights[name]) == _bits(arr), name
    assert back.minmax.channels == bundle.minmax.channels
    assert back.minmax.source_ids == bundle.minmax.source_ids
    assert _bits(back.minmax.mins) == _bits(bundle.minmax.mins)
    assert _bits(back.minmax.maxs) == _bits(bundle.minmax.maxs)
    assert back.score_stats == bundle.score_stats
