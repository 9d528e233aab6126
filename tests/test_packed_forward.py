"""Packed forwards against one tape forward per trial, byte for byte.

``layers.forward_packed`` concatenates trials along time, one after
another, and runs each BLAS call and reduction once per trial, on plain
arrays; a convolution's taps read zero outside their trial
(``layers._taps``), and a chunk of one trial takes the same path.  Every batch path built on it,
and every one-trial function that calls a batch path on one trial, must
give the bytes (``tobytes``) of a forward per trial on the tape
(``tape.forward``): encoder features, head outputs, pre-GAP activations,
reconstructions, prediction records, activation maps (``pre_gap @ w[:, c]``)
and the training loop's validation losses.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import skillseq.layers as layers
import skillseq.tensor as tz
import tape
from test_tensor_ops import naive_conv1d
from skillseq.data import DOWNSAMPLED, MinMaxStats, ScoreStats, Trial, invert_znorm
from skillseq.explain import CamMap, compute_cam, predict_with_cams
from skillseq.layers import LayerSpec, forward_packed
from skillseq.model import (ArchConfig, ModelBundle, decoder_specs, embed, encode_many,
                            encode_values, encoder_specs, head_forward, head_specs, predict,
                            predict_many)
from skillseq.training import _val_losses


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _weights(rng, specs, group):
    params = layers.init_stack_params(specs, rng)
    # non-zero biases and attention weights, so every term reaches the output
    return {f"{group}/{k}": v + rng.normal(0.0, 0.3, size=v.shape) for k, v in params.items()}


def _bundles(rng, arch, n_channels, classification):
    """A skill bundle and an autoencoder bundle sharing one encoder."""
    channels = tuple(f"c{i}" for i in range(n_channels))
    minmax = MinMaxStats(channels, np.zeros(n_channels), np.ones(n_channels), ())
    enc, dec = encoder_specs(arch, n_channels), decoder_specs(n_channels, arch)
    mode = "classification" if classification else "regression"
    head = head_specs(arch, mode)
    enc_weights = _weights(rng, enc, "encoder")
    skill = ModelBundle(
        mode=mode,
        groups={"encoder": enc, "head": head},
        weights={**enc_weights, **_weights(rng, head, "head")},
        minmax=minmax, score_stats=None if classification else ScoreStats(50.0, 10.0, ()))
    dae = ModelBundle(
        mode="autoencoder", groups={"encoder": enc, "decoder": dec},
        weights={**enc_weights, **_weights(rng, dec, "decoder")}, minmax=minmax)
    return skill, dae


def _stacks(bundle, *groups):
    return [(bundle.groups[g], bundle.group_params(g)) for g in groups]


def _unpacked(stacks, x):
    """The oracle: one tape pass per stack over one trial.  Returns the
    output and the pre-GAP activations (None without a GAP)."""
    captures = {}
    out = tz.Tensor(x)
    for specs, params in stacks:
        out = tape.forward(specs, tape.leaves(params), out, captures=captures)
    pre_gap = captures.get("pre_gap")
    return out.data, None if pre_gap is None else pre_gap.data


def _trials(rng, lengths, n_channels):
    return [Trial(subject_id="S1", trial_index=i, sample_rate_hz=1.0,
                  channels=tuple(f"c{c}" for c in range(n_channels)),
                  values=rng.random((T, n_channels)), score=float(i),
                  class_label=("pass", "fail", None)[i % 3], stage=DOWNSAMPLED)
            for i, T in enumerate(lengths)]


arch_strategy = st.builds(
    lambda width, emb, clf_width, K, dilation: ArchConfig(
        enc_width=width, emb_channels=emb, kernel_size=K, reduction=2,
        clf_width=clf_width, clf_dilation=dilation),
    width=st.sampled_from([2, 4, 6]), emb=st.integers(1, 5),
    clf_width=st.sampled_from([2, 4, 8]), K=st.sampled_from([1, 3, 5]),
    dilation=st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), arch=arch_strategy,
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       n_channels=st.integers(1, 4), classification=st.booleans(),
       pack_rows=st.sampled_from([40, 90, 2048]))
# a product of one row, which numpy runs through gemv, not gemm
@example(seed=0, arch=ArchConfig(enc_width=2, emb_channels=1, kernel_size=1, reduction=2,
                                 clf_width=4, clf_dilation=1),
         lengths=[1, 1], n_channels=1, classification=True, pack_rows=2048)
# a product of one column
@example(seed=0, arch=ArchConfig(enc_width=4, emb_channels=1, kernel_size=3, reduction=2,
                                 clf_width=2, clf_dilation=1),
         lengths=[2, 2], n_channels=2, classification=True, pack_rows=2048)
def test_packed_model_paths_match_one_trial_paths(seed, arch, lengths, n_channels,
                                                  classification, pack_rows):
    rng = np.random.default_rng(seed)
    bundle, dae = _bundles(rng, arch, n_channels, classification)
    trials = _trials(rng, lengths, n_channels)
    values = [t.values for t in trials]
    dense = next(i for i, s in enumerate(bundle.groups["head"]) if s.kind == "dense")
    w = bundle.weights[f"head/{dense}.w"]
    # small row budgets split the batch into several chunks, some of one trial
    with mock.patch.object(layers, "PACK_ROWS", pack_rows):
        feats = encode_many(bundle, values)
        records, cams = predict_with_cams(bundle, trials)
        assert predict_many(bundle, trials) == records
        outs, pre_gaps = forward_packed(_stacks(bundle, "encoder", "head"), values,
                                        capture=True)
        recons = forward_packed(_stacks(dae, "encoder", "decoder"), values)
    for i, trial in enumerate(trials):
        feat, _ = _unpacked(_stacks(bundle, "encoder"), trial.values)
        for got in (feats[i], encode_values(bundle, trial.values), embed(bundle, trial)):
            assert _bits(got) == _bits(feat)
        out, pre_gap = _unpacked(_stacks(bundle, "encoder", "head"), trial.values)
        assert _bits(outs[i]) == _bits(out)
        assert _bits(pre_gaps[i]) == _bits(pre_gap)
        head_out, _ = _unpacked(_stacks(bundle, "head"), feat)
        assert _bits(head_forward(bundle, feat)) == _bits(head_out) == _bits(out)
        recon, _ = _unpacked(_stacks(dae, "encoder", "decoder"), trial.values)
        assert _bits(recons[i]) == _bits(recon)
        rec = records[i]
        if classification:
            assert _bits(rec.confidences) == _bits(out)
            assert rec.predicted == int(np.argmax(out))
            target = rec.predicted
        else:
            assert rec.pred_score == invert_znorm(float(out[0]), bundle.score_stats)
            target = 0
        assert predict(bundle, trial) == rec
        raw = pre_gap @ w[:, target]
        expected = CamMap.from_raw(trial.trial_id, target, raw)
        for cam in (cams[i], compute_cam(bundle, trial)):
            assert cam.class_index == target
            assert _bits(cam.raw) == _bits(raw)
            assert _bits(cam.intensity) == _bits(expected.intensity)
        for c in range(w.shape[1]):
            cam = compute_cam(bundle, trial, c)
            assert cam.class_index == c
            assert _bits(cam.raw) == _bits(pre_gap @ w[:, c])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), arch=arch_strategy,
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       n_channels=st.integers(1, 4), classification=st.booleans())
def test_packed_validation_losses_match_one_trial_losses(seed, arch, lengths, n_channels,
                                                         classification):
    rng = np.random.default_rng(seed)
    enc, dec = encoder_specs(arch, n_channels), decoder_specs(n_channels, arch)
    head = head_specs(arch, "classification" if classification else "regression")
    params = {name: {k.split("/", 1)[1]: v for k, v in _weights(rng, specs, name).items()}
              for name, specs in (("encoder", enc), ("decoder", dec), ("head", head))}
    values = [rng.random((T, n_channels)) for T in lengths]
    feats = [rng.normal(size=(T, arch.emb_channels)) for T in lengths]
    if classification:
        targets = [np.array([1.0, 0.0]) if i % 2 else np.array([0.0, 1.0])
                   for i in range(len(lengths))]
    else:
        targets = [rng.normal(size=1) for _ in lengths]
    weights = list(rng.uniform(0.5, 2.0, size=len(lengths)))
    kind = "cosine" if classification else "mse"

    def one_trial(stacks, x, target, loss, weight):
        out, _ = _unpacked(stacks, x)
        return float(tz.loss_eval(loss, tz.Tensor(out), target, weight).data)

    dae = [(enc, params["encoder"]), (dec, params["decoder"])]
    packed = _val_losses(dae, values, values, "bce", [1.0] * len(values))
    expected = [one_trial(dae, v, v, "bce", 1.0) for v in values]
    assert _bits(packed) == _bits(expected)
    heads = [(head, params["head"])]
    packed = _val_losses(heads, feats, targets, kind, weights)
    expected = [one_trial(heads, f, t, kind, w) for f, t, w in zip(feats, targets, weights)]
    assert _bits(packed) == _bits(expected)


def test_reused_tap_buffer_never_leaks_into_results():
    """Packed convolutions build their taps in one buffer per call, reused
    across chunks: a later chunk or a later call must not change results
    already returned."""
    rng = np.random.default_rng(4)
    arch = ArchConfig(enc_width=6, emb_channels=3, kernel_size=5, reduction=2,
                      clf_width=4, clf_dilation=2)
    bundle, _ = _bundles(rng, arch, 3, True)
    stacks = _stacks(bundle, "encoder", "head")
    # 75 rows exceed the row budget, so that trial runs alone
    first = [rng.random((T, 3)) for T in (20, 25, 18, 75, 30, 22, 15, 26, 11)]
    second = [rng.random((T, 3)) + 1.0 for T in (33, 12, 40, 9, 28, 17)]
    with mock.patch.object(layers, "PACK_ROWS", 60), \
            mock.patch.object(layers, "Segments", side_effect=layers.Segments) as layouts:
        outs, pre_gaps = forward_packed(stacks, first, capture=True)
        assert layouts.call_count >= 3
        kept = [_bits(a) for a in outs + pre_gaps]
        forward_packed(stacks, second, capture=True)
    assert [_bits(a) for a in outs + pre_gaps] == kept
    for x, out, pre_gap in zip(first, outs, pre_gaps):
        want_out, want_pre_gap = _unpacked(stacks, x)
        assert _bits(out) == _bits(want_out)
        assert _bits(pre_gap) == _bits(want_pre_gap)


def test_segments_lay_trials_end_to_end():
    segments = layers.Segments([3, 1, 4], layers.TapBuffer())
    assert segments.bounds == [(0, 3), (3, 4), (4, 8)]
    assert list(segments.owner) == [0, 0, 0, 1, 2, 2, 2, 2]
    arrays = [np.full((n, 2), float(n)) for n in (3, 1, 4)]
    packed = segments.pack(arrays)
    assert _bits(packed) == _bits(np.vstack(arrays))
    for a in arrays:
        assert not np.shares_memory(packed, a)
    single = layers.Segments([3], layers.TapBuffer()).pack(arrays[:1])
    assert not np.shares_memory(single, arrays[0])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 12), K=st.sampled_from([1, 3, 5, 7]),
       dilation=st.integers(1, 4), before=st.integers(1, 12), after=st.integers(1, 12),
       cin=st.integers(1, 3), cout=st.integers(1, 3))
# every tap but the centre one reaches past the trial
@example(seed=0, T=2, K=7, dilation=4, before=1, after=12, cin=2, cout=1)
def test_packed_taps_never_read_a_neighbouring_trial(seed, T, K, dilation, before, after,
                                                     cin, cout):
    """An oracle that shares no code with ``_taps``: a trial packed between
    neighbours of 1e6 convolves as the direct loop does over the trial
    alone, and its taps are those of a copy zero-padded by ``np.pad``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(T, cin))
    w = rng.normal(size=(K, cin, cout))
    b = rng.normal(size=cout)
    segments = layers.Segments([before, T, after], layers.TapBuffer())
    packed = segments.pack([np.full((before, cin), 1e6), x, np.full((after, cin), 1e6)])
    s, e = segments.bounds[1]
    out = layers._conv_packed(packed, w, b, dilation, segments)[s:e]
    np.testing.assert_allclose(out, naive_conv1d(x, w, b, dilation), atol=1e-12)
    reach = (K // 2) * dilation
    padded = np.pad(x, ((reach, reach), (0, 0)))
    want = np.empty((T, cin * K))
    for k in range(K):
        o = (k - K // 2) * dilation
        want[:, k::K] = padded[reach + o:reach + o + T]
    got = layers._taps(packed, s, e, K, dilation, np.full((T, cin * K), np.nan))
    assert _bits(got) == _bits(want)


def test_packed_forward_convolves_a_sigmoid_output():
    """A convolution after a sigmoid reads zero outside each trial, not
    sigmoid(0) = 0.5 or a neighbouring trial's rows."""
    rng = np.random.default_rng(5)
    specs = (LayerSpec("conv1d", in_channels=2, out_channels=3, kernel_size=3),
             LayerSpec("sigmoid"),
             LayerSpec("conv1d", in_channels=3, out_channels=2, kernel_size=3))
    stacks = [(specs, layers.init_stack_params(specs, rng))]
    values = [rng.random((T, 2)) for T in (6, 1, 4)]
    for batch in (values[:1], values):
        for x, out in zip(batch, forward_packed(stacks, batch)):
            assert _bits(out) == _bits(_unpacked(stacks, x)[0])


def _peak_bytes(fn):
    """``fn()`` and the ``tracemalloc`` peak of its allocations."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _all_bits(arrays):
    return [_bits(a) for a in arrays if a is not None]


def test_a_reach_past_the_trial_costs_neither_bytes_nor_memory():
    """A tap whose offset is at least the trial's length reads only zero
    padding: a dilation far beyond the trial gives the bytes of dilation
    T, and the convolution allocates no padding for it."""
    rng = np.random.default_rng(3)
    T, cin, cout, K = 30, 4, 3, 5
    x = rng.normal(size=(T, cin))
    w = rng.normal(size=(K, cin, cout))
    b = rng.normal(size=cout)
    g = rng.normal(size=(T, cout))

    def one_trial(dilation):
        out, taps, w2 = layers._conv_raw(x, w, b, dilation)
        return [out, taps, *layers._conv_grads(g, taps, w2, K, dilation, True)]

    def packed(dilation):
        specs = (LayerSpec("conv1d", in_channels=cin, out_channels=cout, kernel_size=K,
                           dilation=dilation),)
        return forward_packed([(specs, {"0.w": w, "0.b": b})], [x, x[:7], x[:19]])

    # the packed forward's far dilation is smaller: a layout that padded
    # each trial by the whole reach would allocate those rows, and at 10 ** 5
    # this test fails on such code in place of allocating hundreds of MB
    for run, far in ((one_trial, 10 ** 6), (packed, 10 ** 5)):
        want = run(T)
        got, peak = _peak_bytes(lambda: run(far))
        assert _all_bits(got) == _all_bits(want)
        assert peak < 2 ** 20
    # only the centre tap reads the trial
    np.testing.assert_allclose(one_trial(T)[0], x @ w[K // 2] + b, rtol=1e-12, atol=1e-12)
