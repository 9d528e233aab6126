"""Synthetic corpus generator: determinism, regime counts, learnability.

The learnability oracle is a depth-2 threshold classifier on two plain
summary statistics (duration, roughness).  If that simple rule already
separates the classes well, a sequence model has a fair target; the
oracle shares no code with the model stack.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skillseq import synth
from skillseq.data import RAW, dataset_fingerprint, load_manifest
from skillseq.synth import CLASS_THRESHOLD, SynthSpec, score_trajectory, write_synth_dataset
from conftest import synth_dataset


SPEC = SynthSpec(n_subjects=6, trials_per_subject=20, seed=3)


@pytest.fixture(scope="module")
def corpus():
    return synth_dataset(SPEC)


def test_deterministic_generation(corpus):
    again = synth_dataset(SPEC)
    assert dataset_fingerprint(again) == dataset_fingerprint(corpus)


def test_seed_changes_content(corpus):
    other = synth_dataset(SynthSpec(n_subjects=6, trials_per_subject=20, seed=4))
    assert dataset_fingerprint(other) != dataset_fingerprint(corpus)


def test_exact_trial_and_class_counts(corpus):
    trials = corpus.trials
    assert len(trials) == 120
    n_pass = sum(1 for t in trials if t.class_label == "pass")
    assert n_pass == round(0.9 * 120)
    subjects = {t.subject_id for t in trials}
    assert len(subjects) == 6
    for s in subjects:
        assert sum(1 for t in trials if t.subject_id == s) == 20


def test_trials_are_raw_with_scores(corpus):
    for t in corpus.trials:
        assert t.stage == RAW
        assert t.score is not None
        assert t.class_label in ("pass", "fail")
        assert t.channels == ("sx", "sy", "gx", "gy")


def test_labels_match_score_threshold(corpus):
    # high score = good technique; the pass side sits above the threshold
    for t in corpus.trials:
        want = "pass" if t.score >= CLASS_THRESHOLD else "fail"
        assert t.class_label == want, t.trial_id


def test_scores_keep_margin_around_threshold(corpus):
    scores = np.array([t.score for t in corpus.trials])
    assert np.min(np.abs(scores - CLASS_THRESHOLD)) > 1.0


def test_missing_samples_present_but_sparse(corpus):
    total = sum(t.values.size for t in corpus.trials)
    missing = sum(int(np.isnan(t.values).sum()) for t in corpus.trials)
    assert 0 < missing < 0.05 * total


def test_coordinates_fit_camera_frame(corpus):
    for t in corpus.trials:
        v = t.values
        ok = ~np.isnan(v)
        assert np.all(v[:, [0, 2]][ok[:, [0, 2]]] >= 0.0)
        assert np.all(v[:, [0, 2]][ok[:, [0, 2]]] <= 640.0)
        assert np.all(v[:, [1, 3]][ok[:, [1, 3]]] >= 0.0)
        assert np.all(v[:, [1, 3]][ok[:, [1, 3]]] <= 480.0)


def stump_accuracy(trials):
    """Depth-2 oracle: duration split, then roughness split on the long side."""
    feats = []
    for t in trials:
        v = t.values
        col = v[:, 0]
        col = col[~np.isnan(col)]
        dur = len(v) / t.sample_rate_hz
        rough = float(np.median(np.abs(np.diff(col, 2)))) if len(col) > 4 else 0.0
        feats.append((dur, rough, t.class_label))
    best = 0.0
    durations = sorted({f[0] for f in feats})
    for cut in durations:
        for rcut in np.percentile([f[1] for f in feats], [25, 50, 75, 90]):
            correct = 0
            for dur, rough, label in feats:
                guess = "pass" if dur <= cut and rough <= rcut else "fail"
                correct += guess == label
            best = max(best, correct / len(feats))
    return best


def test_simple_rule_separates_classes(corpus):
    assert stump_accuracy(corpus.trials) >= 0.95


def test_duration_regimes_overlap_is_limited(corpus):
    pass_durs = [len(t.values) for t in corpus.trials if t.class_label == "pass"]
    fail_durs = [len(t.values) for t in corpus.trials if t.class_label == "fail"]
    assert max(pass_durs) < min(fail_durs)


def test_score_trajectory_penalizes_jitter():
    rng = np.random.default_rng(0)
    t_axis = np.linspace(0, 4 * np.pi, 120)
    smooth = np.stack([np.cos(t_axis) * 100 + 300, np.sin(t_axis) * 80 + 240,
                       np.cos(t_axis) * 90 + 320, np.sin(t_axis) * 70 + 200], axis=1)
    jittery = smooth + rng.normal(0, 15.0, smooth.shape)
    assert score_trajectory(jittery, 1.0) < score_trajectory(smooth, 1.0)


def median_score(values, rate_hz):
    """The score as the module docstring defines it, its roughness taken
    by np.median."""
    vals = np.asarray(values, dtype=np.float64)
    n = len(vals)
    skip = math.floor(synth._TRIM_FRACTION * n)
    mid = vals[skip:n - skip, 0:2]
    rough = 0.0
    if len(mid) >= 3:
        norms = np.linalg.norm(np.diff(mid, n=2, axis=0), axis=1)
        rough = float(np.median(np.minimum(norms, synth._ROUGH_CAP)))
    return synth._SCORE_BASE - synth._TIME_W * n / rate_hz - synth._ROUGH_W * rough


# few distinct coordinates, so many second differences tie
coordinate = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 40.0, 100.0]),
                       st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(frames=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=60))
@example(frames=[(0.0, 0.0)] * 3)                       # one norm
@example(frames=[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (2.0, 2.0)])  # two
@example(frames=[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)])  # three, tied
@example(frames=[(0.0, 0.0)] * 4 + [(math.inf, 0.0)] * 2 + [(0.0, 0.0)] * 5)  # NaN norms
def test_roughness_is_np_median_bit_for_bit(frames):
    values = np.hstack([np.array(frames), np.zeros((len(frames), 2))])
    with np.errstate(invalid="ignore"):
        got, want = score_trajectory(values, 2.0), median_score(values, 2.0)
    if math.isnan(want):    # which NaN (its sign bit) may differ; both print 'nan'
        assert math.isnan(got), got
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def test_write_synth_dataset_round_trips(tmp_path):
    spec = SynthSpec(n_subjects=2, trials_per_subject=5, seed=8)
    manifest = write_synth_dataset(spec, tmp_path)
    back = load_manifest(manifest)
    assert dataset_fingerprint(back) == dataset_fingerprint(synth_dataset(spec))


def _write_peak(spec, out_dir):
    """``tracemalloc`` peak of writing ``spec``, from an empty ramp cache."""
    synth._smoothstep.cache_clear()
    tracemalloc.start()
    try:
        write_synth_dataset(spec, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_holds_one_subject_at_a_time(tmp_path):
    """Three more subjects of long 10 Hz trials add a small fraction of
    their values' bytes to the peak: each subject's trials are dropped
    once written.  Building the whole dataset first adds all of them."""
    def spec(n):
        return SynthSpec(n_subjects=n, trials_per_subject=2, pass_fraction=0.0,
                         sample_rate_hz=10.0, seed=1)

    write_synth_dataset(SynthSpec(n_subjects=1, trials_per_subject=1), tmp_path / "warm")
    one = _write_peak(spec(1), tmp_path / "one")
    four = _write_peak(spec(4), tmp_path / "four")
    added = sum(t.values.nbytes for trials in list(synth.synth_subjects(spec(4)))[1:]
                for t in trials)
    assert four - one < 0.25 * added, (one, four, added)


def test_ramps_are_shared_and_read_only():
    ramp = synth._smoothstep(7)
    assert synth._smoothstep(7) is ramp
    assert ramp[0] == 0.0 and ramp[-1] == 1.0
    with pytest.raises(ValueError):
        ramp[3] = 0.5


def test_invalid_spec_rejected():
    for bad in (dict(pass_fraction=1.5), dict(pass_fraction=-0.1),
                dict(n_subjects=0), dict(trials_per_subject=0),
                dict(missing_fraction=-0.1), dict(sample_rate_hz=0.0)):
        try:
            SynthSpec(**bad)
        except ValueError:
            continue
        raise AssertionError(f"SynthSpec accepted {bad}")


@pytest.mark.parametrize("spec", [
    SynthSpec(n_subjects=2, trials_per_subject=10, sample_rate_hz=0.45),
    SynthSpec(n_subjects=2, trials_per_subject=10, pass_duration=(1.0, 1.0),
              fail_duration=(1.0, 2.0)),
], ids=["slow-rate", "short-durations"])
def test_the_shortest_trials_generate(spec):
    """A trial of 20 frames or fewer leaves the grasper fewer start frames
    than it may move; it moves once per start frame there is."""
    lengths = [t.values.shape[0] for trials in synth.synth_subjects(spec) for t in trials]
    assert len(lengths) == 20
    assert min(lengths) <= 20
