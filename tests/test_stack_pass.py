"""The training step's stack pass against the tape, bit for bit.

Training runs each stack's backward layer by layer over recorded arrays
(``layers.forward_stack`` with a ``Recorder``).  The reference is the
tape: ``tape.forward`` over Tensor leaves of the same parameters, then
``tz.backward``.  Each case runs the training loop's own step function
(``training._step``, set up by ``tape.TrainingLoop``) for several
consecutive steps, with an Adam update between them, and replays every
step on the tape from the inputs the stack pass saw: the loss and every
byte of the flat gradient must agree at every step.
"""

import copy
import weakref
from dataclasses import replace

import numpy as np
import pytest

import skillseq.layers as layers
import skillseq.tensor as tz
import skillseq.training as training
import tape
from skillseq.data import DOWNSAMPLED, MinMaxStats, Trial
from skillseq.layers import LayerSpec, forward_stack, init_stack_params
from skillseq.model import (ArchConfig, ModelBundle, build_classifier, decoder_specs,
                            encoder_specs)
from skillseq.optim import AdamState, adam_step_masked

CHANNELS = ("sx", "sy", "gx", "gy")
# trials of 1, 2 and 4 frames are shorter than the reach of a 5-tap or a
# dilated convolution; the others are about as long as a 1 Hz trial
LENGTHS = (1, 104, 2, 97, 4, 100, 3, 96, 5, 102)
STEPS = 8


def _trials(seed):
    rng = np.random.default_rng(seed)
    return [Trial(subject_id="S1", trial_index=i, sample_rate_hz=1.0, channels=CHANNELS,
                  values=rng.random((T, len(CHANNELS))), score=float(rng.normal(50.0, 10.0)),
                  class_label=("pass", "fail")[i % 3 == 0], stage=DOWNSAMPLED)
            for i, T in enumerate(LENGTHS)]


def _autoencoder(arch, seed):
    rng = np.random.default_rng(seed)
    n = len(CHANNELS)
    groups = {"encoder": encoder_specs(arch, n), "decoder": decoder_specs(n, arch)}
    weights = {f"{g}/{k}": v for g, specs in groups.items()
               for k, v in init_stack_params(specs, rng).items()}
    return ModelBundle(mode="autoencoder", groups=groups, weights=weights,
                       minmax=MinMaxStats(CHANNELS, np.zeros(n), np.ones(n), ()))


class _Spy:
    """What one stack-pass step ran: each stack with its parameters,
    gradient arrays and input, the noise generator as it stood before the
    step, and the loss arguments."""

    def __init__(self, monkeypatch):
        self.stacks, self.rng, self.loss = [], None, None
        spy = self

        def traced_forward_stack(specs, params, x, mode, grads=None):
            if not spy.stacks:
                spy.rng = copy.deepcopy(mode.rng)
            spy.stacks.append((specs, params, grads, x))
            return forward_stack(specs, params, x, mode, grads)

        set_loss = layers.Recorder.set_loss

        def traced_set_loss(rec, kind, pred, target, weight):
            spy.loss = (kind, target, weight)
            set_loss(rec, kind, pred, target, weight)

        monkeypatch.setattr(training, "forward_stack", traced_forward_stack)
        monkeypatch.setattr(layers.Recorder, "set_loss", traced_set_loss)

    def tape_step(self, l2):
        """The step on the tape; gradients accumulate into the same views."""
        out, penalties = tz.Tensor(self.stacks[0][3]), []
        for specs, params, grads, _ in self.stacks:
            out = tape.forward(specs, tape.leaves(params, grads), out, penalties, rng=self.rng,
                               activity_l2=l2)
        kind, target, weight = self.loss
        loss = tz.loss_eval(kind, out, target, weight)
        if penalties:
            loss = tz.add_n([loss] + penalties)
        tz.backward(loss)
        return loss.data


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _assert_steps_match(monkeypatch, loop):
    flat, config = loop.flat, loop.config
    opt = AdamState(learning_rate=config.learning_rate, l2=config.l2)
    for step in range(STEPS):
        i = loop.train_indices[step % len(loop.train_indices)]
        spy = _Spy(monkeypatch)
        flat.grad[:] = 0.0
        rec = training._step(*loop.step_args(i))
        rec.backward()
        got_loss, got_grad = rec.loss, flat.grad.copy()
        monkeypatch.undo()
        flat.grad[:] = 0.0
        want_loss = spy.tape_step(config.l2)
        assert _bits(got_loss) == _bits(want_loss), f"loss, step {step}"
        assert _bits(got_grad) == _bits(flat.grad), f"gradient, step {step}"
        assert np.any(got_grad != 0.0)
        adam_step_masked(opt, flat.theta, flat.grad, flat.decay_mask)


def test_backward_frees_each_recorded_op_as_it_runs():
    """After the backward, the recorder holds no op, and a recorded
    convolution's taps are freed."""
    loop = tape.TrainingLoop(training.train_dae, _trials(1), training.DaeConfig(), 3)
    rec = training._step(*loop.step_args(loop.train_indices[0]))
    taps = [weakref.ref(args[0]) for backward, args in rec.ops
            if backward is layers._conv_back]
    assert taps and all(ref() is not None for ref in taps)
    rec.backward()
    assert rec.ops == []
    assert all(ref() is None for ref in taps)


DAE_CASES = [
    # loss, kernel_size, enc_width, l2, noise_sigma
    ("bce", 5, 16, 1e-5, 0.001),
    ("mse", 3, 8, 0.0, 0.0),
    ("bce", 3, 16, 0.01, 0.0),
    ("mse", 5, 8, 0.0, 0.05),
]


@pytest.mark.parametrize("loss, kernel_size, width, l2, sigma", DAE_CASES)
def test_dae_step_matches_the_tape(monkeypatch, loss, kernel_size, width, l2, sigma):
    arch = ArchConfig(enc_width=width, kernel_size=kernel_size)
    config = training.DaeConfig(loss=loss, l2=l2, noise_sigma=sigma)
    loop = tape.TrainingLoop(training.train_dae, _trials(1), config, 3, arch)
    _assert_steps_match(monkeypatch, loop)


HEAD_CASES = [
    # mode, class_weighting, kernel_size, clf_dilation, clf_width, l2
    ("classification", "balanced", 5, 2, 16, 1e-5),
    ("classification", "none", 3, 1, 8, 0.0),
    ("regression", "balanced", 5, 3, 8, 0.01),
    ("classification", "balanced", 3, 3, 16, 0.0),
    ("regression", "none", 3, 1, 16, 1e-5),
]


@pytest.mark.parametrize("mode, weighting, kernel_size, dilation, width, l2", HEAD_CASES)
def test_head_step_matches_the_tape(monkeypatch, mode, weighting, kernel_size, dilation,
                                    width, l2):
    arch = ArchConfig(kernel_size=kernel_size, clf_dilation=dilation, clf_width=width)
    config = training.HeadConfig(l2=l2, class_weighting=weighting)
    loop = tape.TrainingLoop(training.train_classifier, _autoencoder(arch, 2), _trials(4),
                             config, 5, arch, mode)
    _assert_steps_match(monkeypatch, loop)


CUSTOM_HEADS = {
    # a conv with no SELU after it keeps its own penalty; a standalone
    # scse, selu and sigmoid; a noise layer, which is the identity here
    "standalone-kinds": (
        LayerSpec("conv1d", in_channels=8, out_channels=8, kernel_size=3, dilation=2),
        LayerSpec("scse", in_channels=8),
        LayerSpec("selu"),
        LayerSpec("gaussian-noise", sigma=0.0),
        LayerSpec("residual-scse-block", in_channels=8, kernel_size=3),
        LayerSpec("sigmoid"),
        LayerSpec("gap"),
        LayerSpec("dense", in_channels=8, out_channels=2),
        LayerSpec("softmax"),
    ),
    # the unfused conv's output gets three gradient terms: its penalty,
    # the residual block's first conv and the block's skip path
    "penalized-conv-into-block": (
        LayerSpec("conv1d", in_channels=8, out_channels=8, kernel_size=5),
        LayerSpec("residual-scse-block", in_channels=8, kernel_size=3, dilation=3),
        LayerSpec("gap"),
        LayerSpec("dense", in_channels=8, out_channels=2),
        LayerSpec("softmax"),
    ),
    # the same through a noise layer that draws nothing
    "penalized-conv-noise-block": (
        LayerSpec("conv1d", in_channels=8, out_channels=8, kernel_size=3),
        LayerSpec("gaussian-noise", sigma=0.0),
        LayerSpec("residual-scse-block", in_channels=8, kernel_size=5, dilation=2),
        LayerSpec("gap"),
        LayerSpec("dense", in_channels=8, out_channels=2),
        LayerSpec("softmax"),
    ),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_HEADS))
@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_any_head_kind_matches_the_tape(monkeypatch, name, l2):
    arch = ArchConfig()
    head = CUSTOM_HEADS[name]
    bundle = build_classifier(_autoencoder(arch, 6), "classification", arch=arch, seed=7)
    weights = {k: v for k, v in bundle.weights.items() if k.startswith("encoder/")}
    weights.update({f"head/{k}": v for k, v in
                    init_stack_params(head, np.random.default_rng(8)).items()})
    bundle = replace(bundle, groups={"encoder": bundle.groups["encoder"], "head": head},
                     weights=weights)
    config = training.HeadConfig(l2=l2)
    loop = tape.TrainingLoop(training.train_supervised, bundle, _trials(9), config, 11)
    _assert_steps_match(monkeypatch, loop)
