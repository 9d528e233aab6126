"""Training loops: denoising autoencoder and frozen-encoder skill models.

Both loops share the same recipe: one sample per optimizer step, Adam
with kernel L2 decay, an activity penalty on every convolution output,
per-epoch reshuffling, a stratified validation split, and early stopping
on validation loss with best-weight restoration.  Training stops after
``patience`` consecutive epochs without strict improvement.  Each
epoch's validation runs one packed forward on plain arrays
(``layers.forward_packed``) and ``tz._loss_raw``, with the bytes of one
forward per trial and no tape.

All trainable parameters live in one flat buffer, and each parameter
is a view into it; each gradient is a view into a parallel flat
gradient buffer, so an optimizer step is a handful of vectorized
operations regardless of layer count.

Each stack of a training step runs through ``layers.forward_stack`` with
a ``layers.Recorder`` as its mode, which computes on plain arrays and
records each op's backward; the step checks the loss, runs the recorded
backward, which adds every gradient into the gradient views, and ends in
``adam_step_masked``.  ``gradcheck`` checks that recorded backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .data import NORMALIZED, PASS_FAIL, fit_znorm, apply_znorm, one_hot, class_weights
from .layers import (Recorder, init_stack_params, is_kernel_param, forward_packed,
                     forward_stack)
from .model import (ArchConfig, ModelBundle, build_classifier, encoder_specs,
                    decoder_specs, encode_many)
from .optim import AdamState, adam_step_masked
from .seeding import make_rng, PURPOSE

__all__ = ["DaeConfig", "HeadConfig", "TrainHistory", "train_dae", "train_supervised",
           "train_classifier"]

_LOSSES = ("bce", "mse", "cosine")


def _check_recipe(config):
    """The checks both stages' recipes share."""
    if config.learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {config.learning_rate}")
    if config.max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {config.max_epochs}")
    if config.patience < 1:
        raise ValueError(f"patience must be >= 1, got {config.patience}")
    if config.loss not in _LOSSES:
        raise ValueError(f"loss must be one of {_LOSSES}, got '{config.loss}'")
    if not 0.0 < config.val_fraction < 0.5:
        raise ValueError(f"val_fraction must lie in (0, 0.5), got {config.val_fraction}")
    if config.l2 < 0:
        raise ValueError(f"l2 must be >= 0, got {config.l2}")


@dataclass(frozen=True)
class DaeConfig:
    """The denoising autoencoder's recipe."""

    learning_rate: float = 0.001
    max_epochs: int = 100
    patience: int = 4
    loss: str = "bce"
    l2: float = 1e-5
    noise_sigma: float = 0.001
    val_fraction: float = 0.1

    def __post_init__(self):
        _check_recipe(self)
        if self.loss == "cosine":
            raise ValueError("loss must be bce or mse, not cosine, which compares "
                             "vectors, not sequences")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class HeadConfig:
    """The skill head's recipe, over a frozen encoder."""

    learning_rate: float = 0.0002
    max_epochs: int = 300
    patience: int = 20
    loss: str = "cosine"
    l2: float = 1e-5
    val_fraction: float = 0.1
    class_weighting: str = "balanced"

    def __post_init__(self):
        _check_recipe(self)
        if self.class_weighting not in ("balanced", "none"):
            raise ValueError(f"class_weighting must be balanced or none, got '{self.class_weighting}'")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


class _FlatParams:
    """Trainable parameter groups flattened into one buffer.

    ``params[group]`` maps each name to its array: a view into the
    buffer, or the given array for a frozen group.  ``grads[group]`` maps
    the names to views into a parallel gradient buffer, or is None for a
    frozen group, so zeroing and stepping are single vector operations.
    """

    def __init__(self, group_arrays, trainable):
        entries = []
        for g in sorted(group_arrays):
            for k in sorted(group_arrays[g]):
                entries.append((g, k, group_arrays[g][k]))
        total = sum(a.size for g, _, a in entries if trainable.get(g, True))
        self.theta = np.empty(total)
        self.grad = np.zeros(total)
        self.decay_mask = np.zeros(total)
        self.params = {g: {} for g in group_arrays}
        self.grads = {g: {} if trainable.get(g, True) else None for g in group_arrays}
        off = 0
        for g, k, arr in entries:
            if trainable.get(g, True):
                view = self.theta[off:off + arr.size].reshape(arr.shape)
                view[...] = arr
                self.grads[g][k] = self.grad[off:off + arr.size].reshape(arr.shape)
                if is_kernel_param(k):
                    self.decay_mask[off:off + arr.size] = 1.0
                off += arr.size
            else:
                view = arr
            self.params[g][k] = view

    def zero_grads(self):
        self.grad[:] = 0.0

    def snapshot(self):
        return self.theta.copy()

    def restore(self, snap):
        self.theta[:] = snap

    def export(self):
        out = {}
        for g, params in self.params.items():
            for k, arr in params.items():
                out[f"{g}/{k}"] = arr.copy()
        return out


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
    train = [i for i in indices if i not in val_set]
    if not train:
        raise ValueError("validation split consumed all training samples")
    return train, sorted(val_set)


def _run_training(forward_train, val_losses, val_indices, train_indices,
                  flat, config, seed, stage, trial_ids):
    """Generic loop: per-sample Adam steps, early stopping, best restore.

    ``forward_train(i)`` runs the training forward of trial ``i`` and
    returns its ``Recorder``, whose ``loss`` is the step's loss and whose
    ``backward`` adds the gradients into ``flat.grad``.
    ``val_losses()`` returns the validation loss of each of
    ``val_indices``.  A non-finite loss raises FloatingPointError naming
    ``stage``, the epoch and the trial (``trial_ids[i]``).
    """
    opt = AdamState(learning_rate=config.learning_rate, l2=config.l2)
    history = TrainHistory()
    best = np.inf
    best_snap = flat.snapshot()
    wait = 0
    for epoch in range(1, config.max_epochs + 1):
        order = make_rng(seed, PURPOSE["shuffle"], epoch).permutation(len(train_indices))
        total = 0.0
        for oi in order:
            i = train_indices[oi]
            flat.zero_grads()
            step = forward_train(i)
            if not np.isfinite(step.loss):
                raise FloatingPointError(f"{stage}: non-finite training loss at epoch "
                                         f"{epoch} on trial {trial_ids[i]}")
            step.backward()
            adam_step_masked(opt, flat.theta, flat.grad, flat.decay_mask)
            total += float(step.loss)
        history.train_loss.append(total / max(len(train_indices), 1))
        vlosses = val_losses()
        vloss = float(np.mean(vlosses))
        if not np.isfinite(vloss):
            bad = [trial_ids[i] for i, v in zip(val_indices, vlosses) if not np.isfinite(v)]
            where = f" on trial {bad[0]}" if bad else ""
            raise FloatingPointError(f"{stage}: non-finite validation loss at epoch "
                                     f"{epoch}{where}")
        history.val_loss.append(vloss)
        if vloss < best:
            best = vloss
            best_snap = flat.snapshot()
            history.best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                history.stopped_epoch = epoch
                break
    else:
        history.stopped_epoch = config.max_epochs
    flat.restore(best_snap)
    return history


def _val_losses(stacks, inputs, targets, kind, weights):
    """Loss of each validation trial, from one packed forward."""
    outs = forward_packed(stacks, inputs)
    return [float(tz._loss_raw(kind, out, target, weight)[0])
            for out, target, weight in zip(outs, targets, weights)]


def train_dae(trials, minmax, config, seed, arch=None):
    """Train the denoising autoencoder on normalized trials.

    Inputs are corrupted by the network's own noise layer (train mode
    only); targets are the clean sequences.  ``seed`` draws the initial
    weights, the validation split, the noise and the epoch order.
    Returns a frozen autoencoder bundle and the loss history.
    """
    arch = arch or ArchConfig()
    if len(trials) < 2:
        raise ValueError("training needs at least two trials")
    for t in trials:
        if t.stage != NORMALIZED:
            raise ValueError(f"{t.trial_id}: train_dae expects normalized trials")
        if t.values.min() < 0.0 or t.values.max() > 1.0:
            raise ValueError(f"{t.trial_id}: values outside [0, 1]")
    in_ch = len(trials[0].channels)
    enc = encoder_specs(arch, in_ch, config.noise_sigma)
    dec = decoder_specs(in_ch, arch)
    rng = make_rng(seed, PURPOSE["init"], 1)
    groups = {
        "encoder": init_stack_params(enc, rng),
        "decoder": init_stack_params(dec, rng),
    }
    flat = _FlatParams(groups, {"encoder": True, "decoder": True})
    specs = {"encoder": enc, "decoder": dec}

    values = [t.values for t in trials]
    labels = {i: (trials[i].class_label or "") for i in range(len(trials))}
    train_idx, val_idx = _val_split(range(len(trials)), labels, config.val_fraction, seed)
    noise_rng = make_rng(seed, PURPOSE["noise"])

    def fwd(i):
        rec = Recorder(rng=noise_rng, activity_l2=config.l2)
        z = forward_stack(specs["encoder"], flat.params["encoder"], values[i], rec,
                          flat.grads["encoder"])
        out = forward_stack(specs["decoder"], flat.params["decoder"], z, rec,
                            flat.grads["decoder"])
        rec.set_loss(config.loss, out, values[i], 1.0)
        return rec

    val_stacks = [(specs[g], flat.params[g]) for g in ("encoder", "decoder")]
    val_values = [values[i] for i in val_idx]
    history = _run_training(
        forward_train=fwd,
        val_losses=lambda: _val_losses(val_stacks, val_values, val_values, config.loss,
                                       [1.0] * len(val_values)),
        val_indices=val_idx, train_indices=train_idx,
        flat=flat, config=config, seed=seed, stage="DAE",
        trial_ids=[t.trial_id for t in trials],
    )
    bundle = ModelBundle(
        mode="autoencoder",
        groups=specs,
        weights=flat.export(),
        trainable={"encoder": False, "decoder": False},
        minmax=minmax,
        score_stats=None,
        class_names=None,
    )
    return bundle, history


def train_supervised(bundle, trials, config, seed, labels=None):
    """Train the non-frozen head of a built skill model.

    Classification: one-hot targets, cosine loss, inverse-frequency
    class weights.  Regression: scores z-normalized with statistics
    fitted on these trials, squared-error loss.  ``labels`` overrides
    the targets stored on the trials (class names for classification,
    scores for regression).  Encoder features are precomputed once, in
    packed forwards, since the encoder never updates.  ``seed`` draws
    the validation split and the epoch order.
    """
    mode = bundle.mode
    if mode not in ("classification", "regression"):
        raise ValueError(f"train_supervised needs a skill bundle, got mode '{mode}'")
    class_names = bundle.class_names
    if len(trials) < 2:
        raise ValueError("training needs at least two trials")
    for t in trials:
        if t.stage != NORMALIZED:
            raise ValueError(f"{t.trial_id}: train_supervised expects normalized trials")
    if mode == "classification" and config.loss != "cosine":
        raise ValueError("classification head trains on cosine loss, "
                         f"not {config.loss}")
    if labels is not None and len(labels) != len(trials):
        raise ValueError(f"{len(labels)} labels for {len(trials)} trials")

    # frozen encoder: features computed once
    feats = encode_many(bundle, [t.values for t in trials])

    score_stats = None
    if mode == "classification":
        given = labels if labels is not None else [t.class_label for t in trials]
        labels = []
        for t, lb in zip(trials, given):
            if lb is None:
                raise ValueError(f"{t.trial_id}: unlabeled trial in classification training")
            if lb not in class_names:
                raise ValueError(f"{t.trial_id}: unknown class '{lb}'")
            labels.append(lb)
        targets = [one_hot(lb, class_names) for lb in labels]
        if config.class_weighting == "balanced":
            weights = class_weights(labels, class_names)
        else:
            weights = {i: 1.0 for i in range(len(class_names))}
        sample_w = [weights[class_names.index(lb)] for lb in labels]
        strata = {i: labels[i] for i in range(len(trials))}
    else:
        scores = labels if labels is not None else [t.score for t in trials]
        for t, s in zip(trials, scores):
            if s is None:
                raise ValueError(f"{t.trial_id}: unscored trial in regression training")
        score_stats = fit_znorm(scores, ids=[t.trial_id for t in trials])
        targets = [np.array([apply_znorm(s, score_stats)]) for s in scores]
        sample_w = [1.0 for _ in trials]
        strata = {i: "" for i in range(len(trials))}

    head = bundle.groups["head"]
    flat = _FlatParams(
        {"encoder": bundle.group_params("encoder"), "head": bundle.group_params("head")},
        {"encoder": False, "head": True},
    )
    train_idx, val_idx = _val_split(range(len(trials)), strata, config.val_fraction, seed)

    def fwd(i):
        rec = Recorder(activity_l2=config.l2)
        out = forward_stack(head, flat.params["head"], feats[i], rec, flat.grads["head"])
        rec.set_loss(config.loss, out, targets[i], sample_w[i])
        return rec

    val_stacks = [(head, flat.params["head"])]
    history = _run_training(
        forward_train=fwd,
        val_losses=lambda: _val_losses(val_stacks, [feats[i] for i in val_idx],
                                       [targets[i] for i in val_idx], config.loss,
                                       [sample_w[i] for i in val_idx]),
        val_indices=val_idx, train_indices=train_idx,
        flat=flat, config=config, seed=seed, stage="head",
        trial_ids=[t.trial_id for t in trials],
    )
    new_weights = dict(bundle.weights)
    new_weights.update({k: v for k, v in flat.export().items() if k.startswith("head/")})
    out = ModelBundle(
        mode=mode,
        groups=bundle.groups,
        weights=new_weights,
        trainable={"encoder": False, "head": True},
        minmax=bundle.minmax,
        score_stats=score_stats,
        class_names=bundle.class_names,
    )
    return out, history


def train_classifier(dae_bundle, trials, config, seed, arch=None, mode="classification",
                     class_names=PASS_FAIL):
    """Build a skill model over the frozen encoder and train its head;
    ``seed`` also draws the head's initial weights."""
    bundle = build_classifier(dae_bundle, mode, arch=arch, seed=seed,
                              class_names=class_names)
    return train_supervised(bundle, trials, config, seed)
