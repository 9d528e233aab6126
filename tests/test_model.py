"""Model construction, embedding, prediction, and training contracts."""

import numpy as np
import pytest
from dataclasses import replace
from unittest import mock

import tape
from conftest import SMALL_ARCH
from skillseq import bundle as bundle_format
from skillseq.bundle import load_bundle, save_bundle
from skillseq.crossval import encoder_fingerprint
from skillseq.data import FILLED, RAW
from skillseq.model import (
    ArchConfig,
    build_classifier,
    embed,
    encoder_specs,
    head_specs,
    normalize_for_model,
    predict,
    predict_many,
)
from skillseq import model as model_module
from skillseq import tensor as tz
from skillseq.layers import LayerSpec, Recorder, forward_packed, forward_stack
from skillseq.training import DaeConfig, HeadConfig, train_dae, train_supervised


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchConfig(kernel_size=4)
    with pytest.raises(ValueError):
        ArchConfig(enc_width=5, reduction=2)   # reduction must divide width


def test_embedding_channels_and_length(small_dae, small_downsampled):
    bundle, _ = small_dae
    trials = small_downsampled
    for t in trials[:5]:
        z = embed(bundle, t)
        assert z.shape == (t.values.shape[0], SMALL_ARCH.emb_channels)


def test_reconstruction_shape_and_range(small_dae, small_downsampled):
    bundle, _ = small_dae
    trials = small_downsampled
    x = normalize_for_model(bundle, trials[0]).values
    stacks = [(bundle.groups[g], bundle.group_params(g)) for g in ("encoder", "decoder")]
    r = forward_packed(stacks, [x])[0]
    assert r.shape == x.shape
    assert np.all(r >= 0.0) and np.all(r <= 1.0)   # sigmoid output layer


def test_train_dae_rejects_cosine_loss():
    """train_dae takes a DaeConfig, which refuses the head's vector loss."""
    with pytest.raises(ValueError, match="^loss must be bce or mse, got 'cosine'$"):
        DaeConfig(loss="cosine")


def test_training_reduces_reconstruction_loss(small_dae):
    _, history = small_dae
    assert history.val_loss[-1] <= history.val_loss[0] * 1.05
    assert len(history.train_loss) == len(history.val_loss)


def test_classifier_keeps_encoder_weights(small_dae, small_classifier):
    dae, _ = small_dae
    clf, _ = small_classifier
    enc_names = [n for n in dae.weights if n.startswith("encoder/")]
    assert enc_names
    for n in enc_names:
        np.testing.assert_array_equal(clf.weights[n], dae.weights[n])
    # the mode fixes which group trains, and the file records it
    assert bundle_format._meta_dict(clf)["trainable"] == {"encoder": False, "head": True}


def test_classifier_confidences_form_distribution(small_classifier,
                                                  small_downsampled):
    bundle, _ = small_classifier
    trials = small_downsampled
    for t in trials[:8]:
        r = predict(bundle, t)
        assert r.predicted in (0, 1)
        assert sum(r.confidences) == pytest.approx(1.0, abs=1e-9)
        assert r.predicted == int(np.argmax(r.confidences))
        assert r.actual == (0 if t.class_label == "pass" else 1)


def test_untrained_head_is_uninformative(small_dae, small_downsampled):
    """Zero-init final dense layer emits exactly uniform confidences."""
    dae, _ = small_dae
    trials = small_downsampled
    bundle = build_classifier(dae, "classification", SMALL_ARCH, seed=0)
    dense_w = bundle.weights["head/4.w"]
    bundle.weights["head/4.w"] = np.zeros_like(dense_w)
    bundle.weights["head/4.b"] = np.zeros_like(bundle.weights["head/4.b"])
    r = predict(bundle, trials[0])
    np.testing.assert_allclose(r.confidences, [0.5, 0.5], atol=1e-12)


def test_variable_length_inputs_share_one_model(small_classifier,
                                                small_downsampled):
    bundle, _ = small_classifier
    trials = small_downsampled
    lengths = {t.values.shape[0] for t in trials}
    assert len(lengths) > 1
    for t in trials[:10]:
        r = predict(bundle, t)
        assert len(r.confidences) == 2


def test_regression_predicts_back_in_score_units(small_regressor,
                                                 small_downsampled):
    bundle, _ = small_regressor
    trials = small_downsampled
    r = predict(bundle, trials[0])
    assert r.confidences is None and r.predicted is None
    assert r.pred_score is not None
    assert 0.0 < r.pred_score < 400.0
    assert r.true_score == trials[0].score


def test_bundle_round_trip_bit_identical(small_classifier, small_downsampled,
                                         tmp_path):
    bundle, _ = small_classifier
    trials = small_downsampled
    path = tmp_path / "m.skq"
    save_bundle(bundle, path)
    back = load_bundle(path)
    assert back.mode == bundle.mode
    assert back.class_names == bundle.class_names
    assert set(back.weights) == set(bundle.weights)
    for n, w in bundle.weights.items():
        np.testing.assert_array_equal(back.weights[n], w)
    for t in trials[:6]:
        a, b = predict(bundle, t), predict(back, t)
        assert a.confidences == b.confidences
        assert a.predicted == b.predicted


@pytest.mark.parametrize("capture", [False, True])
def test_predict_many_captures_activations_only_when_asked(small_classifier,
                                                           small_downsampled, capture):
    bundle, _ = small_classifier
    trials = small_downsampled
    expected = [predict(bundle, t) for t in trials[:5]]
    with mock.patch.object(model_module, "forward_packed",
                           side_effect=forward_packed) as forward:
        # a call without capture leaves the default in place
        result = (predict_many(bundle, trials[:5], capture=True) if capture
                  else predict_many(bundle, trials[:5]))
    assert forward.call_args.kwargs["capture"] is capture
    records = result[0] if capture else result
    assert records == expected
    if capture:
        assert [p.shape[0] for p in result[1]] == [t.values.shape[0] for t in trials[:5]]


def test_bundle_detects_corruption(small_dae, tmp_path):
    bundle, _ = small_dae
    path = tmp_path / "m.skq"
    save_bundle(bundle, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    from skillseq.bundle import BundleFormatError
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_gaussian_noise_properties():
    x = np.zeros((1000, 4))

    def noisy(sigma, seed=5, train=True):
        """The training forward's noise, or the eval forward's, checked
        against the tape's."""
        specs = (LayerSpec("gaussian-noise", sigma=sigma),)
        if train:
            out = forward_stack(specs, {}, x, Recorder(rng=np.random.default_rng(seed)))
        else:
            out = forward_packed([(specs, {})], [x])[0]
        ref_rng = np.random.default_rng(seed) if train else None
        ref = tape.forward(specs, {}, tz.Tensor(x), rng=ref_rng).data
        assert out.tobytes() == ref.tobytes()
        return out

    out = noisy(0.01)
    assert abs(out.mean()) < 0.001
    assert out.std() == pytest.approx(0.01, rel=0.1)
    np.testing.assert_array_equal(noisy(0.01), out)
    np.testing.assert_array_equal(noisy(0.0), x)
    np.testing.assert_array_equal(noisy(0.01, train=False), x)
    with pytest.raises(ValueError):
        LayerSpec("gaussian-noise", sigma=-0.1)


def test_prediction_is_deterministic_at_inference(small_classifier,
                                                  small_downsampled):
    """Train-time noise must not leak into prediction."""
    bundle, _ = small_classifier
    trials = small_downsampled
    t = trials[1]
    assert predict(bundle, t).confidences == predict(bundle, t).confidences


def test_early_stopping_restores_best_epoch(small_downsampled):
    cfg = DaeConfig(learning_rate=0.01, max_epochs=12, patience=2, loss="bce")
    bundle, history = train_dae(small_downsampled[:12], cfg, 2, SMALL_ARCH)
    best = history.best_epoch
    assert history.val_loss[best - 1] == min(history.val_loss)
    if history.stopped_epoch < 12:
        # strict improvement required: everything after best was >= best
        after = history.val_loss[best:]
        assert all(v >= history.val_loss[best - 1] for v in after)


def test_patience_stops_training_and_restores_the_best_epochs_weights(small_downsampled):
    """At learning rate 0.05 the validation loss of this tiny run stops
    improving, and training stops ``patience`` epochs after its best
    epoch.  The weights it returns are those at the end of the best
    epoch: the same run capped at that epoch count, which retraces the
    same epochs, ends with the same bits."""
    trials = small_downsampled[:8]
    cfg = DaeConfig(learning_rate=0.05, max_epochs=30, patience=2, loss="bce")
    stopped, history = train_dae(trials, cfg, 1, SMALL_ARCH)
    assert history.stopped_epoch < cfg.max_epochs
    assert history.best_epoch == history.stopped_epoch - cfg.patience
    assert len(history.val_loss) == history.stopped_epoch
    capped, capped_history = train_dae(trials, replace(cfg, max_epochs=history.best_epoch), 1,
                                       SMALL_ARCH)
    assert capped_history.best_epoch == capped_history.stopped_epoch == history.best_epoch
    assert sorted(stopped.weights) == sorted(capped.weights)
    for name, w in stopped.weights.items():
        assert w.tobytes() == capped.weights[name].tobytes(), name


def test_train_supervised_rejects_autoencoder_bundle(small_dae,
                                                     small_downsampled):
    dae, _ = small_dae
    trials = small_downsampled
    cfg = HeadConfig(learning_rate=0.001, max_epochs=1, patience=1)
    with pytest.raises(ValueError):
        train_supervised(dae, trials, cfg, 0)


def test_the_mode_fixes_the_head_loss(small_dae, small_downsampled, monkeypatch):
    """A head recipe has no loss field: a pass/fail head trains on cosine
    loss and a score head on squared error."""
    with pytest.raises(TypeError, match="loss"):
        HeadConfig(loss="mse")
    from skillseq import training
    kinds = []
    run = training._run_training
    monkeypatch.setattr(training, "_run_training",
                        lambda **kw: kinds.append(kw["loss"]) or run(**kw))
    cfg = HeadConfig(learning_rate=0.001, max_epochs=1, patience=1)
    for mode in ("classification", "regression"):
        training.train_classifier(small_dae[0], small_downsampled, cfg, 0, SMALL_ARCH, mode)
    assert kinds == ["cosine", "mse"]


@pytest.mark.parametrize("fixture", ["small_classifier", "small_regressor"])
def test_head_training_leaves_the_encoder_bit_identical(request, small_dae, fixture):
    """``train_classifier`` trains only the head: the skill bundle's
    encoder arrays, and so its encoder fingerprint, are the DAE's."""
    dae, _ = small_dae
    skill, _ = request.getfixturevalue(fixture)
    encoder = sorted(k for k in dae.weights if k.startswith("encoder/"))
    assert encoder and encoder == sorted(k for k in skill.weights if k.startswith("encoder/"))
    for k in encoder:
        assert skill.weights[k].tobytes() == dae.weights[k].tobytes(), k
    assert encoder_fingerprint(skill) == encoder_fingerprint(dae)


def test_model_inputs_must_be_downsampled(small_classifier, small_downsampled):
    """The model normalizes its input itself: raw, filled and
    already-normalized trials are refused."""
    bundle, _ = small_classifier
    t = small_downsampled[0]
    for wrong in (replace(t, stage=RAW), replace(t, stage=FILLED),
                  normalize_for_model(bundle, t)):
        for fn in (predict, embed):
            with pytest.raises(ValueError, match="requires a downsampled trial"):
                fn(bundle, wrong)


def test_model_inputs_must_match_bundle_channels(small_classifier,
                                                small_downsampled):
    bundle, _ = small_classifier
    trials = small_downsampled
    renamed = replace(trials[0], channels=tuple(f"x{c}" for c in trials[0].channels))
    with pytest.raises(ValueError, match="channel mismatch"):
        predict(bundle, renamed)


def test_head_dense_is_named_head_4(small_classifier):
    bundle, _ = small_classifier
    assert "head/4.w" in bundle.weights
    assert bundle.weights["head/4.w"].shape[1] == 2


def test_encoder_head_spec_shapes():
    arch = SMALL_ARCH
    enc = encoder_specs(arch, n_channels=4)
    head = head_specs(arch)
    assert enc[0].kind == "gaussian-noise"
    assert head[-2].kind == "gap" or head[-1].kind in ("dense", "softmax")


@pytest.mark.parametrize("stage, field, value", [
    ("dae", "class_weighting", "none"),
    ("head", "noise_sigma", 0.05),
])
def test_training_stage_rejects_fields_it_does_not_use(stage, field, value):
    """Each stage's recipe holds only what its training function reads:
    no field of the other stage, and no seed, which is an argument."""
    config = {"dae": DaeConfig, "head": HeadConfig}[stage]
    for name, given in ((field, value), ("seed", 0)):
        with pytest.raises(TypeError, match=name):
            config(**{name: given})
