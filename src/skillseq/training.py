"""Training: the denoising autoencoder, then the skill head over its
frozen encoder.

Both stages take downsampled trials that ``modes.training_fault`` has
passed; neither checks them again.  ``train_dae`` fits min-max
statistics on its own trials and ships them in the autoencoder bundle;
the head stage scales its trials by the bundle's statistics through
``model.normalize_for_model``, the one place a bundle's statistics are
applied, so a caller never handles them.

Both stages run one loop, ``_run_training``, over arrays: the stacks and
initial parameters of the groups that train, one input, target and loss
weight per trial, the loss kind (the autoencoder recipe's, or the head
mode's), and the strata of the validation split.  ``train_dae`` and
``train_supervised`` only prepare that data, the head's from its mode's
entry of ``modes.MODES``.  The head trains on encoder features computed
once, so the frozen encoder never enters the loop.  The recipe is
shared: one sample per optimizer step, Adam with kernel L2 decay, an
activity penalty on every convolution output, per-epoch reshuffling, a
stratified validation split, and early stopping on validation loss with
best-weight restoration.  Training stops after ``patience`` consecutive
epochs without strict improvement.

All trained parameters live in one flat buffer, and each parameter is a
view into it; each gradient is a view into a parallel flat gradient
buffer, so an optimizer step is a handful of vectorized operations
regardless of layer count.

A step's forward (``_step``) runs each stack through
``layers.forward_stack`` with a ``layers.Recorder`` as its mode, which
computes on plain arrays and records each op's backward; the loop checks
the loss, runs the recorded backward, which adds every gradient into
the gradient views, and ends in ``adam_step_masked``.  ``gradcheck``
checks that recorded backward.  Each epoch's validation runs one packed
forward on plain arrays (``layers.forward_packed``) and
``layers._loss_raw``, with the bytes of one forward per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import ArchConfig, DaeConfig, HeadConfig
from .data import apply_minmax, fit_minmax
from .layers import (Recorder, _loss_raw, init_stack_params, is_kernel_param, forward_packed,
                     forward_stack)
from .model import (ModelBundle, build_classifier, encoder_specs, decoder_specs, encode_many,
                    normalize_for_model)
from .modes import MODES
from .optim import AdamState, adam_step_masked
from .seeding import make_rng, PURPOSE

__all__ = ["DaeConfig", "HeadConfig", "TrainHistory", "train_dae",
           "train_supervised", "train_classifier"]


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


class _FlatParams:
    """Parameter groups flattened into one buffer.

    ``params[group]`` maps each name to a view into ``theta``, and
    ``grads[group]`` to a view into the parallel ``grad``, so zeroing,
    stepping, saving and restoring are single vector operations.
    """

    def __init__(self, groups):
        entries = [(g, k, groups[g][k]) for g in sorted(groups) for k in sorted(groups[g])]
        total = sum(a.size for _, _, a in entries)
        self.theta = np.empty(total)
        self.grad = np.zeros(total)
        self.decay_mask = np.zeros(total)
        self.params = {g: {} for g in groups}
        self.grads = {g: {} for g in groups}
        off = 0
        for g, k, arr in entries:
            view = self.theta[off:off + arr.size].reshape(arr.shape)
            view[...] = arr
            self.params[g][k] = view
            self.grads[g][k] = self.grad[off:off + arr.size].reshape(arr.shape)
            if is_kernel_param(k):
                self.decay_mask[off:off + arr.size] = 1.0
            off += arr.size

    def export(self):
        return {f"{g}/{k}": arr.copy() for g, params in self.params.items()
                for k, arr in params.items()}


def _val_split(indices, strata, frac, seed):
    """Deterministic stratified split; strata with one member stay in train."""
    rng = make_rng(seed, PURPOSE["val_split"])
    by = {}
    for i in indices:
        by.setdefault(strata[i], []).append(i)
    val = []
    for s in sorted(by, key=str):
        members = list(by[s])
        rng.shuffle(members)
        n_v = int(round(frac * len(members)))
        n_v = min(n_v, len(members) - 1)
        val.extend(members[:n_v])
    if not val:
        sizes = {s: len(m) for s, m in by.items()}
        biggest = max(sorted(by, key=str), key=lambda s: sizes[s])
        if len(by[biggest]) > 1:
            val = [by[biggest][0]]
    val_set = set(val)
    return [i for i in indices if i not in val_set], sorted(val_set)


def _step(specs, flat, x, target, weight, loss, l2, rng):
    """The forward of one training step: ``x`` through each stack of
    ``specs`` (``{group: layer specs}``, in run order) over ``flat``'s
    parameters under activity penalty ``l2``, then the ``loss`` against
    ``target``.  Returns the step's ``Recorder``: its ``loss`` is the
    step's loss, and its ``backward`` adds the gradients into ``flat.grad``."""
    rec = Recorder(rng=rng, activity_l2=l2)
    for g, stack in specs.items():
        x = forward_stack(stack, flat.params[g], x, rec, flat.grads[g])
    rec.set_loss(loss, x, target, weight)
    return rec


def _val_losses(stacks, inputs, targets, kind, weights):
    """Loss of each validation trial, from one packed forward."""
    outs = forward_packed(stacks, inputs)
    return [float(_loss_raw(kind, out, target, weight)[0])
            for out, target, weight in zip(outs, targets, weights)]


@np.errstate(over="ignore", invalid="ignore")
def _run_training(specs, groups, inputs, targets, weights, strata, loss, config, seed,
                  stage, trial_ids, noise_rng=None):
    """Train ``groups`` (``{group: params}``) of the stacks ``specs``
    (``{group: layer specs}``, in run order) to map each of ``inputs`` to
    the same entry of ``targets``, under the loss kind ``loss`` and its
    weight in ``weights``, with the validation split stratified by
    ``strata``.  ``noise_rng`` draws the noise layers' noise.  A
    non-finite loss raises FloatingPointError naming ``stage``, the epoch
    and the trial (``trial_ids[i]``), and numpy warns of no overflow on
    the way.  Returns the trained parameters as ``{"<group>/<name>":
    array}`` and the loss history."""
    flat = _FlatParams(groups)
    train_idx, val_idx = _val_split(range(len(inputs)), strata, config.val_fraction, seed)
    val_stacks = [(specs[g], flat.params[g]) for g in specs]
    val_inputs = [inputs[i] for i in val_idx]
    val_targets = [targets[i] for i in val_idx]
    val_weights = [weights[i] for i in val_idx]
    opt = AdamState(learning_rate=config.learning_rate, l2=config.l2)
    history = TrainHistory()
    best = np.inf
    best_snap = flat.theta.copy()
    wait = 0
    for epoch in range(1, config.max_epochs + 1):
        order = make_rng(seed, PURPOSE["shuffle"], epoch).permutation(len(train_idx))
        total = 0.0
        for oi in order:
            i = train_idx[oi]
            flat.grad[:] = 0.0
            step = _step(specs, flat, inputs[i], targets[i], weights[i], loss, config.l2,
                         noise_rng)
            if not np.isfinite(step.loss):
                raise FloatingPointError(f"{stage}: non-finite training loss at epoch "
                                         f"{epoch} on trial {trial_ids[i]}")
            step.backward()
            adam_step_masked(opt, flat.theta, flat.grad, flat.decay_mask)
            total += float(step.loss)
        history.train_loss.append(total / max(len(train_idx), 1))
        vlosses = _val_losses(val_stacks, val_inputs, val_targets, loss, val_weights)
        vloss = float(np.mean(vlosses))
        if not np.isfinite(vloss):
            bad = [trial_ids[i] for i, v in zip(val_idx, vlosses) if not np.isfinite(v)]
            where = f" on trial {bad[0]}" if bad else ""
            raise FloatingPointError(f"{stage}: non-finite validation loss at epoch "
                                     f"{epoch}{where}")
        history.val_loss.append(vloss)
        if vloss < best:
            best = vloss
            best_snap = flat.theta.copy()
            history.best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                history.stopped_epoch = epoch
                break
    else:
        history.stopped_epoch = config.max_epochs
    flat.theta[:] = best_snap
    return flat.export(), history


def train_dae(trials, config, seed, arch=None):
    """Train the denoising autoencoder on downsampled trials.

    The min-max statistics are fitted on ``trials`` and travel in the
    returned bundle.  Inputs are corrupted by the network's own noise
    layer (train mode only); targets are the clean sequences.  ``seed``
    draws the initial weights, the validation split, the noise and the
    epoch order.  Returns a frozen autoencoder bundle and the loss history.
    """
    arch = arch or ArchConfig()
    minmax = fit_minmax(trials)
    in_ch = len(trials[0].channels)
    specs = {"encoder": encoder_specs(arch, in_ch, config.noise_sigma),
             "decoder": decoder_specs(in_ch, arch)}
    rng = make_rng(seed, PURPOSE["init"], 1)
    values = [apply_minmax(t, minmax).values for t in trials]
    weights, history = _run_training(
        specs=specs, groups={g: init_stack_params(s, rng) for g, s in specs.items()},
        inputs=values, targets=values, weights=[1.0] * len(trials),
        strata=[t.class_label or "" for t in trials], loss=config.loss, config=config,
        seed=seed, stage="DAE", trial_ids=[t.trial_id for t in trials],
        noise_rng=make_rng(seed, PURPOSE["noise"]),
    )
    bundle = ModelBundle(mode="autoencoder", groups=specs, weights=weights, minmax=minmax)
    return bundle, history


def train_supervised(bundle, trials, config, seed):
    """Train the head of a built skill model over its frozen encoder, on
    downsampled trials scaled by the bundle's min-max statistics.  The
    mode's ``MODES`` entry gives the targets, loss weights, strata and
    loss.  Encoder features are computed once, in packed forwards, since
    the encoder never updates.  ``seed`` draws the validation split and
    the epoch order.
    """
    skill = MODES.get(bundle.mode)
    if skill is None:
        raise ValueError(f"train_supervised needs a skill bundle, got mode '{bundle.mode}'")
    # frozen encoder: features computed once
    feats = encode_many(bundle, [normalize_for_model(bundle, t).values for t in trials])
    targets, weights, strata, score_stats = skill.targets(trials, config)
    head, history = _run_training(
        specs={"head": bundle.groups["head"]}, groups={"head": bundle.group_params("head")},
        inputs=feats, targets=targets, weights=weights, strata=strata,
        loss=skill.loss, config=config, seed=seed, stage="head",
        trial_ids=[t.trial_id for t in trials],
    )
    return replace(bundle, weights={**bundle.weights, **head}, score_stats=score_stats), history


def train_classifier(dae_bundle, trials, config, seed, arch, mode):
    """Build a ``mode`` skill model over the frozen encoder and train its
    head; ``seed`` also draws the head's initial weights."""
    bundle = build_classifier(dae_bundle, mode, arch=arch, seed=seed)
    return train_supervised(bundle, trials, config, seed)
