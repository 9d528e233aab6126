"""Data pipeline: trial files, gap filling, resampling, normalization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_trial
from skillseq.data import (
    DOWNSAMPLED,
    FILLED,
    NORMALIZED,
    PASS_FAIL,
    RAW,
    Dataset,
    Trial,
    TrialFormatError,
    apply_minmax,
    apply_znorm,
    class_weights,
    dataset_fingerprint,
    downsample,
    fill_gaps,
    fit_minmax,
    fit_znorm,
    invert_znorm,
    load_manifest,
    one_hot,
    parse_trial_csv,
    parse_trial_text,
    prepare_stage2,
    write_manifest,
    write_trial_csv,
)


# --- trial files ---


def test_trial_csv_round_trip(tmp_path):
    values = np.array([[1.0, 2.0], [np.nan, 4.0], [5.0, 6.0]])
    trial = make_trial(values, subject="S9", index=3, rate=30.0,
                       channels=("ax", "ay"), score=17.5, label="fail")
    path = tmp_path / "trial.csv"
    write_trial_csv(trial, path)
    back = parse_trial_csv(path)
    assert back.subject_id == "S9"
    assert back.trial_index == 3
    assert back.sample_rate_hz == 30.0
    assert back.score == 17.5
    assert back.class_label == "fail"
    assert back.channels == ("ax", "ay")
    assert back.stage == RAW
    np.testing.assert_array_equal(back.values, values)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_write_trial_csv_rejects_an_infinite_cell(tmp_path, bad):
    values = np.array([[1.0, 2.0], [np.nan, 4.0], [5.0, bad]])
    trial = make_trial(values, subject="S9", index=3, channels=("ax", "ay"))
    path = tmp_path / "trial.csv"
    with pytest.raises(ValueError, match=re.escape(
            f"S9:3 frame 2, channel 'ay': cannot write non-finite value {bad!r}")):
        write_trial_csv(trial, path)
    assert not path.exists()


def test_write_trial_csv_rejects_a_subject_holding_the_pair_separator(tmp_path):
    trial = make_trial(np.ones((2, 1)), subject="a = b", index=3)
    path = tmp_path / "trial.csv"
    with pytest.raises(ValueError, match=re.escape(
            "a = b:3: cannot write subject 'a = b', which holds ' = '") + "$"):
        write_trial_csv(trial, path)
    assert not path.exists()


def test_trial_text_optional_fields_absent():
    text = ("# subject=A\n# trial=0\n# rate_hz=2.0\n"
            "t,x\n0,1.0\n1,2.0\n")
    t = parse_trial_text(text)
    assert t.score is None and t.class_label is None
    np.testing.assert_array_equal(t.values[:, 0], [1.0, 2.0])


@pytest.mark.parametrize("text,fragment", [
    ("# subject=A\n# rate_hz=1\nt,x\n0,1\n", "missing required header"),
    ("# subject=A\n# trial=zero\n# rate_hz=1\nt,x\n0,1\n",
     "trial': expected an integer, got 'zero'$"),
    ("# subject=A\n# trial=0\n# rate_hz=fast\nt,x\n0,1\n",
     "rate_hz': expected a finite number, got 'fast'$"),
    ("# subject=A\n# trial=0\n# rate_hz=inf\nt,x\n0,1\n",
     "rate_hz': expected a finite number, got 'inf'$"),
    ("# subject=A\n# trial=0\n# rate_hz=1\n# score=nan\nt,x\n0,1\n",
     "line 4: key 'score': expected a finite number or NA, got 'nan'$"),
    ("# bogus=1\nt,x\n0,1\n", "line 1: unknown key 'bogus'$"),
    ("# subject=A\n# subject=B\n# trial=0\n# rate_hz=1\nt,x\n0,1\n",
     "line 2: duplicate key 'subject' \\(first set on line 1\\)$"),
    pytest.param("# subject=a = b\n# trial=0\n# rate_hz=1\nt,x\n0,1\n",
                 "line 1: key 'subject': expected an id without ' = ', got 'a = b'$",
                 id="subject-with-separator"),
    pytest.param("# subject=A\n# trial=0\n# rate_hz=1\n# class=good\nt,x\n0,1\n",
                 "line 4: key 'class': expected pass, fail or NA, got 'good'$", id="class"),
    pytest.param("# subject=A\n# class\nt,x\n0,1\n",
                 "line 2: expected 'key = value', got 'class'$", id="header-without-equals"),
    pytest.param("# = pass\nt,x\n0,1\n", "line 1: empty key$", id="empty-header-key"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nx,y\n0,1\n", "first column must be 't'"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,x\n0,1,2\n", "duplicate channel"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y,y,x\n0,1,2,3,4\n",
     "line 4: duplicate channel name 'y'$"),
    pytest.param("# subject=A\n# trial=0\n# rate_hz=1\nt," + "a" * 100_000 + "," + "a" * 100_000
                 + "\n0,1,2\n", re.escape(f"line 4: duplicate channel name {'a' * 40!r}... "
                                           "(100,000 characters)") + "$", id="long-channel-name"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,1,2\n1,3,abc\n",
     "line 6, column 'y': expected a finite number, got 'abc'"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,,2\n1, ,z \n",
     "line 6, column 'y': expected a finite number, got 'z '"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x\n0,1\n1.5,2\n",
     "line 6, column 't': expected an integer, got '1.5'"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x\n3,1\n3,2\n",
     "line 6, column 't': timestamp 3 not increasing"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,1,2\n\n2,3\n",
     "line 7: expected 3 fields, got 2"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,1,2\n\n1,3, -inf \n",
     "line 7, column 'y': expected a finite number, got ' -inf '"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x\n0,1\n1,nan\n",
     "line 6, column 'x': expected a finite number, got 'nan'"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,,2\n1,3, NaN \n",
     "line 6, column 'y': expected a finite number, got ' NaN '"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,1,2\n1,,-nan\n",
     "line 6, column 'y': expected a finite number, got '-nan'"),
    ("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,,2\n1,Infinity,\n",
     "line 6, column 'x': expected a finite number, got 'Infinity'"),
    pytest.param("# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n0,1,2\n1,3,4\n2,nan,5\n3,6,7\n4,8\n",
                 "line 7, column 'x': expected a finite number, got 'nan'", id="two-faults"),
    pytest.param("# subject=A\n# trial=0\n# rate_hz=" + "f" * 100_000 + "\nt,x\n0,1\n",
                 re.escape(f"line 3: key 'rate_hz': expected a finite number, got {'f' * 40!r}... "
                           "(100,000 characters)") + "$", id="long-header-value"),
    pytest.param("# subject=A\n# trial=0\n# rate_hz=1\nt,x\n0,1\n1," + "z" * 100_000 + "\n",
                 re.escape(f"line 6, column 'x': expected a finite number, got {'z' * 40!r}... "
                           "(100,000 characters)") + "$", id="long-cell"),
    pytest.param("# subject=A\n# trial=0\n# rate_hz=1\nt,x\n0,1\n1," + "0" * 131073 + "\n",
                 re.escape("line 6: field larger than field limit (131072)"),
                 id="oversized-field"),
])
def test_trial_text_diagnostics(text, fragment):
    with pytest.raises(TrialFormatError, match=fragment):
        parse_trial_text(text)


def test_trial_text_cells_keep_csv_quoting_and_blank_cells():
    text = ('# subject=A\n# trial=0\n# rate_hz=1\nt,x,y\n'
            '0, 1.5 ,"2.5"\n1,,\n\n2,"-0.0", 7\n')
    values = parse_trial_text(text).values
    np.testing.assert_array_equal(values, [[1.5, 2.5], [np.nan, np.nan], [-0.0, 7.0]])
    assert np.signbit(values[2, 0])


def test_non_utf8_trial_file_names_file_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"# subject=A\n# trial=0\n# rate_hz=1\nt,x\n0,1\n1,\xff\n")
    with pytest.raises(TrialFormatError, match=re.escape(
            f"{path} line 6: not UTF-8 text (byte 0xff at offset 44: invalid start byte)")):
        parse_trial_csv(path)


def test_trial_text_origin_in_message():
    with pytest.raises(TrialFormatError, match="somewhere.csv"):
        parse_trial_text("# trial=0\nt,x\n0,1\n", origin="somewhere.csv")


# --- gap filling ---


def test_fill_gaps_interior_mean_and_edge_hold():
    t = make_trial([1.0, np.nan, np.nan, 5.0, np.nan])
    filled = fill_gaps(t)
    np.testing.assert_array_equal(filled.values[:, 0], [1.0, 3.0, 3.0, 5.0, 5.0])
    assert filled.stage == FILLED


def test_fill_gaps_leading_gap_copies_first_observation():
    t = make_trial([np.nan, np.nan, 7.0, 8.0])
    np.testing.assert_array_equal(fill_gaps(t).values[:, 0], [7.0, 7.0, 7.0, 8.0])


def test_fill_gaps_no_gaps_is_value_identity():
    vals = np.arange(8.0).reshape(4, 2)
    filled = fill_gaps(make_trial(vals))
    np.testing.assert_array_equal(filled.values, vals)


def test_fill_gaps_rejects_empty_channel():
    t = make_trial(np.full((3, 1), np.nan))
    with pytest.raises(ValueError, match="no observed values"):
        fill_gaps(t)


def test_fill_gaps_rejects_already_filled():
    t = make_trial([1.0, 2.0], stage=FILLED)
    with pytest.raises(ValueError, match="fill_gaps"):
        fill_gaps(t)


def per_pair_fill(values):
    """Oracle: gap filling by a walk over every pair of observed indices."""
    vals = values.copy()
    for c in range(vals.shape[1]):
        col = vals[:, c]
        valid = np.flatnonzero(~np.isnan(col))
        first, last = valid[0], valid[-1]
        col[:first] = col[first]
        col[last + 1:] = col[last]
        for i, j in zip(valid[:-1], valid[1:]):
            if j > i + 1:
                col[i + 1:j] = 0.5 * (col[i] + col[j])
    return vals


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_frames=st.integers(1, 300),
       n_channels=st.integers(1, 4), n_runs=st.integers(0, 12))
def test_fill_gaps_matches_the_per_pair_walk(seed, n_frames, n_channels, n_runs):
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=100.0, size=(n_frames, n_channels))
    for _ in range(n_runs):
        start = rng.integers(n_frames)
        vals[start:start + rng.integers(1, 25), rng.integers(n_channels)] = np.nan
    for c in range(n_channels):
        if np.isnan(vals[:, c]).all():
            vals[rng.integers(n_frames), c] = 1.5
    assert fill_gaps(make_trial(vals)).values.tobytes() == per_pair_fill(vals).tobytes()


# --- downsampling ---


def test_downsample_stride_selection():
    vals = np.arange(10.0)
    t = fill_gaps(make_trial(vals, rate=3.0))
    ds = downsample(t, target_hz=1.0)
    np.testing.assert_array_equal(ds.values[:, 0], [0.0, 3.0, 6.0, 9.0])
    assert ds.sample_rate_hz == 1.0
    assert ds.stage == DOWNSAMPLED


def test_downsample_rounds_ratio_to_nearest_stride():
    t = fill_gaps(make_trial(np.arange(12.0), rate=2.5))
    # 2.5 / 1.0 rounds to stride 3 ahead of 2
    np.testing.assert_array_equal(downsample(t).values[:, 0], [0.0, 3.0, 6.0, 9.0])


def test_downsample_equals_stride_slice():
    rng = np.random.default_rng(2)
    t = fill_gaps(make_trial(rng.normal(size=40), rate=8.0))
    direct = downsample(t, target_hz=1.0)
    np.testing.assert_array_equal(direct.values, t.values[::8])
    # hand-built half-rate intermediate composes to the same frames
    half = fill_gaps(make_trial(t.values[::2, 0], rate=4.0))
    np.testing.assert_array_equal(downsample(half, target_hz=1.0).values,
                                  direct.values)


def test_downsample_rejects_repeat_application():
    t = downsample(fill_gaps(make_trial(np.arange(8.0), rate=2.0)))
    with pytest.raises(ValueError, match="downsample"):
        downsample(t)


def test_downsample_at_native_rate_keeps_everything():
    t = fill_gaps(make_trial(np.arange(5.0), rate=1.0))
    np.testing.assert_array_equal(downsample(t).values, t.values)


def test_downsample_requires_filled():
    with pytest.raises(ValueError, match="downsample"):
        downsample(make_trial([1.0, 2.0], rate=2.0))


def test_prepare_stage2_is_fill_then_downsample():
    vals = np.array([0.0, np.nan, 2.0, 3.0, 4.0, 5.0])
    raw = make_trial(vals, rate=2.0)
    via_steps = downsample(fill_gaps(raw), target_hz=1.0)
    via_helper = prepare_stage2(raw, target_hz=1.0)
    np.testing.assert_array_equal(via_helper.values, via_steps.values)
    assert via_helper.stage == DOWNSAMPLED


# --- min-max normalization ---


def test_minmax_maps_training_extremes_to_unit_interval():
    a = make_trial([0.0, 10.0], stage=DOWNSAMPLED)
    b = make_trial([2.0, 6.0], stage=DOWNSAMPLED, index=1)
    stats = fit_minmax([a, b])
    na = apply_minmax(a, stats)
    np.testing.assert_allclose(na.values[:, 0], [0.0, 1.0])
    assert na.stage == NORMALIZED


def test_minmax_records_fitting_trials():
    a = make_trial([0.0, 1.0], stage=DOWNSAMPLED, index=0)
    b = make_trial([0.5, 2.0], stage=DOWNSAMPLED, index=1)
    stats = fit_minmax([a, b])
    assert set(stats.source_ids) == {a.trial_id, b.trial_id}


def test_minmax_clamps_unseen_range():
    a = make_trial([0.0, 10.0], stage=DOWNSAMPLED)
    stats = fit_minmax([a])
    outside = make_trial([-5.0, 15.0], stage=DOWNSAMPLED, index=9)
    clamped = apply_minmax(outside, stats)
    np.testing.assert_array_equal(clamped.values[:, 0], [0.0, 1.0])


def test_minmax_requires_downsampled_inputs():
    with pytest.raises(ValueError):
        fit_minmax([make_trial([1.0, 2.0])])
    t = make_trial([1.0, 2.0], stage=DOWNSAMPLED)
    stats = fit_minmax([t])
    with pytest.raises(ValueError):
        apply_minmax(make_trial([1.0, 2.0]), stats)


# --- score normalization ---


def test_znorm_uses_population_std():
    scores = [1.0, 2.0, 3.0, 4.0]
    stats = fit_znorm(scores)
    assert stats.mean == pytest.approx(2.5)
    assert stats.std == pytest.approx(np.std(scores))
    z = apply_znorm(4.0, stats)
    assert z == pytest.approx((4.0 - 2.5) / np.std(scores))
    assert invert_znorm(z, stats) == pytest.approx(4.0)


# --- labels ---


def test_one_hot_by_name_and_index():
    np.testing.assert_array_equal(one_hot("pass"), [1.0, 0.0])
    np.testing.assert_array_equal(one_hot("fail"), [0.0, 1.0])
    np.testing.assert_array_equal(one_hot("b", ("a", "b", "c")), [0.0, 1.0, 0.0])


def test_one_hot_rejects_unknown():
    with pytest.raises(ValueError):
        one_hot("maybe")


def test_class_weights_inverse_frequency():
    labels = ["pass"] * 9 + ["fail"]
    w = class_weights(labels)
    # N / (K * n_c): 10 / (2 * 9) and 10 / (2 * 1), keyed by class index
    assert w[0] == pytest.approx(10.0 / 18.0)
    assert w[1] == pytest.approx(5.0)
    total = sum(w[PASS_FAIL.index(l)] for l in labels)
    assert total == pytest.approx(len(labels))


# --- datasets ---


def test_dataset_rejects_duplicate_ids():
    a = make_trial([1.0], subject="S", index=0)
    with pytest.raises(ValueError):
        Dataset([a, a])


def test_dataset_rejects_mixed_channels():
    a = make_trial([1.0], channels=("x",))
    b = make_trial([1.0], channels=("y",), index=1)
    with pytest.raises(ValueError):
        Dataset([a, b])


def test_manifest_round_trip(tmp_path):
    trials = [
        make_trial([1.0, 2.0], subject="A", index=0, score=12.0, label="pass"),
        make_trial([3.0, np.nan], subject="B", index=1, label="fail"),
    ]
    paths = []
    for i, t in enumerate(trials):
        p = tmp_path / f"t{i}.csv"
        write_trial_csv(t, p)
        paths.append(str(p))
    manifest = tmp_path / "manifest.csv"
    write_manifest([(p, t.subject_id, t.trial_index) for t, p in zip(trials, paths)], manifest)
    back = load_manifest(manifest)
    assert [t.trial_id for t in back.trials] == [t.trial_id for t in trials]
    for orig, loaded in zip(trials, back.trials):
        np.testing.assert_array_equal(loaded.values, orig.values)


def test_fingerprint_stable_and_content_sensitive(tmp_path):
    a = Dataset([make_trial([1.0, 2.0])])
    b = Dataset([make_trial([1.0, 2.0])])
    c = Dataset([make_trial([1.0, 2.5])])
    assert dataset_fingerprint(a) == dataset_fingerprint(b)
    assert dataset_fingerprint(a) != dataset_fingerprint(c)


def test_trial_id_format():
    t = make_trial([1.0], subject="S03", index=7)
    assert t.trial_id == "S03:7"
