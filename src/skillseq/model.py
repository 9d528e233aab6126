"""Network architecture, bundles, and prediction.

The embedding network is a denoising autoencoder: a noise layer, a
widening convolution, a residual attention block, and a narrowing
convolution produce a per-timestep embedding; the decoder mirrors the
encoder (without attention) and ends in a sigmoid so reconstructions
live in [0, 1].  Skill models reuse the frozen encoder and add a small
dilated attention block over the embedding, global average pooling, and
a dense head over the units of its mode (``modes.MODES``).

A ModelBundle carries everything needed to reproduce predictions:
layer specs per group, named weights, the preprocessing statistics the
weights were fitted against, and the mode.  The mode fixes the rest: a
skill model trains only its head over a frozen encoder, and the mode's
``MODES`` entry gives the head's units, tail and classes.

The model functions (``embed``, ``predict``, ``predict_many``) take
DOWNSAMPLED trials and normalize them themselves, so callers never
handle min-max statistics.  ``prepare_dataset`` is the one place where
raw trials become downsampled ones, and ``normalize_for_model`` the one
place where a bundle's min-max statistics turn a downsampled trial into
model input.

Every eval-mode forward runs through ``layers.forward_packed``:
``predict_many`` and ``encode_many`` score many trials in packed
forwards, and ``embed``, ``encode_values``, ``head_forward`` and
``predict`` are that batch path on one trial.  A packed forward runs on
plain arrays, every BLAS call and every reduction once per trial on the
operands a forward over that trial alone would use, so a trial's bytes
do not depend on the batch it is scored in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import ArchConfig
from .data import RAW, Dataset, MinMaxStats, ScoreStats, apply_minmax, prepare_stage2
from .layers import (KINDS, SEQUENCE, VECTOR, LayerSpec, forward_packed, init_stack_params,
                     param_shapes)
from .modes import MODES
from .records import PredictionRecord
from .reports import quoted
from .seeding import make_rng, PURPOSE

__all__ = [
    "ArchConfig",
    "ModelBundle",
    "encoder_specs",
    "decoder_specs",
    "head_specs",
    "build_classifier",
    "prepare_dataset",
    "normalize_for_model",
    "embed",
    "predict",
    "predict_many",
    "encode_many",
    "head_forward",
    "actual_class",
]

def encoder_specs(arch, n_channels, noise_sigma=0.001):
    return (
        LayerSpec("gaussian-noise", sigma=noise_sigma),
        LayerSpec("conv1d", in_channels=n_channels, out_channels=arch.enc_width,
                  kernel_size=arch.kernel_size),
        LayerSpec("selu"),
        LayerSpec("residual-scse-block", in_channels=arch.enc_width,
                  kernel_size=arch.kernel_size, reduction=arch.reduction),
        LayerSpec("conv1d", in_channels=arch.enc_width, out_channels=arch.emb_channels,
                  kernel_size=arch.kernel_size),
        LayerSpec("selu"),
    )


def decoder_specs(out_channels, arch):
    return (
        LayerSpec("conv1d", in_channels=arch.emb_channels, out_channels=arch.enc_width,
                  kernel_size=arch.kernel_size),
        LayerSpec("selu"),
        LayerSpec("conv1d", in_channels=arch.enc_width, out_channels=out_channels,
                  kernel_size=arch.kernel_size),
        LayerSpec("sigmoid"),
    )


def head_specs(arch, mode):
    """A skill head of ``mode``: a dense layer over the mode's units, then its tail."""
    skill = MODES[mode]
    return (
        LayerSpec("conv1d", in_channels=arch.emb_channels, out_channels=arch.clf_width,
                  kernel_size=1),
        LayerSpec("selu"),
        LayerSpec("residual-scse-block", in_channels=arch.clf_width,
                  kernel_size=arch.kernel_size, dilation=arch.clf_dilation,
                  reduction=arch.reduction),
        LayerSpec("gap"),
        LayerSpec("dense", in_channels=arch.clf_width, out_channels=len(skill.units)),
        *(LayerSpec(kind) for kind in skill.tail),
    )


@dataclass
class ModelBundle:
    """Weights plus everything needed to reproduce their predictions."""

    mode: str
    groups: dict            # group name -> tuple of LayerSpec
    weights: dict           # "group/<i>.<field>" -> ndarray
    minmax: MinMaxStats
    score_stats: ScoreStats | None = None

    @property
    def class_names(self):
        """The classes of a classifier's mode, else None."""
        skill = MODES.get(self.mode)
        return skill.classes if skill else None

    @property
    def head_kernel(self):
        """The (features, outputs) kernel of the head's one dense layer."""
        i = [s.kind for s in self.groups["head"]].index("dense")
        return self.weights[f"head/{i}.w"]

    def __post_init__(self):
        if self.mode != "autoencoder" and self.mode not in MODES:
            raise ValueError(f"unknown mode {quoted(self.mode)}; "
                             f"expected one of {('autoencoder', *MODES)}")
        if "encoder" not in self.groups:
            raise ValueError("bundle must contain an encoder group")
        if self.mode == "autoencoder" and "decoder" not in self.groups:
            raise ValueError("autoencoder bundle needs a decoder group")
        if self.mode in MODES:
            skill, head = MODES[self.mode], self.groups.get("head")
            if not head:
                raise ValueError(f"{self.mode} bundle needs a head group")
            kinds = [s.kind for s in head]
            if kinds.count("dense") != 1:
                raise ValueError("head must contain exactly one dense layer")
            i = kinds.index("dense")
            if tuple(kinds[i + 1:]) != skill.tail or head[i].out_channels != len(skill.units):
                raise ValueError(f"{self.mode} head must {skill.head}")
        encoded = _chain("encoder", self.groups["encoder"], len(self.minmax.channels))
        for g, specs in self.groups.items():
            if g != "encoder":
                _chain(g, specs, encoded)
            for i, s in enumerate(specs):
                for fname in param_shapes(s):
                    key = f"{g}/{i}.{fname}"
                    if key not in self.weights:
                        raise ValueError(f"missing weight array '{key}'")

    def group_params(self, group):
        pfx = f"{group}/"
        return {k[len(pfx):]: v for k, v in self.weights.items() if k.startswith(pfx)}


def _chain(group, specs, channels):
    """The channel count out of ``specs`` given ``channels`` in.
    Raises ValueError at a layer whose ``in_channels`` differs, or whose
    kind cannot take what flows into it: sequences up to a pooling layer,
    which only a head holds, and one vector per trial after it."""
    flow = SEQUENCE
    for i, s in enumerate(specs):
        kind = KINDS[s.kind]
        if kind.pools and group != "head":
            raise ValueError(f"group '{group}' layer {i} ({s.kind}): only a head pools over time")
        if flow not in kind.takes:
            raise ValueError(f"group '{group}' layer {i} ({s.kind}) cannot take {flow}")
        if kind.pools:
            flow = VECTOR
        if "in_channels" in kind.fields:
            if s.in_channels != channels:
                raise ValueError(f"group '{group}' layer {i} ({s.kind}): in_channels "
                                 f"{s.in_channels}, but {channels} channels flow into it")
            channels = s.out_channels if "out_channels" in kind.fields else s.in_channels
    return channels


def prepare_dataset(dataset, target_hz, source=None):
    """Downsampled trials for the model from a dataset of one stage (a
    manifest's raw trials, or a masked set's downsampled ones): raw trials
    are gap-filled and downsampled to ``target_hz``, downsampled ones pass
    as is.  A ValueError names ``source``, the dataset's manifest, when given."""
    if dataset.trials[0].stage != RAW:
        return dataset
    try:
        return Dataset([prepare_stage2(t, target_hz) for t in dataset.trials])
    except ValueError as exc:
        if source is None:
            raise
        raise ValueError(f"{source}: {exc}") from None


def normalize_for_model(bundle, trial):
    """Model input for a downsampled trial: the bundle's min-max
    statistics applied (DOWNSAMPLED -> NORMALIZED).  ``apply_minmax``
    refuses raw, filled and already-normalized trials, and channels other
    than the ones the bundle was fit on."""
    return apply_minmax(trial, bundle.minmax)


def embed(bundle, trial):
    """Frozen-encoder embedding of a downsampled trial: (T, emb) array."""
    return encode_many(bundle, [normalize_for_model(bundle, trial).values])[0]


def encode_values(bundle, values):
    """Encoder forward over already-normalized (T, C) values."""
    return encode_many(bundle, [values])[0]


def encode_many(bundle, values):
    """Encoder forward over each normalized (T_i, C) array, in packed forwards."""
    return forward_packed([_stack(bundle, "encoder")], values)


def _stack(bundle, group):
    return bundle.groups[group], bundle.group_params(group)


def head_forward(bundle, features):
    """Head forward over encoder features."""
    return forward_packed([_stack(bundle, "head")], [features])[0]


def build_classifier(dae_bundle, mode, arch=None, seed=0):
    """Attach a fresh skill head to a trained autoencoder's encoder.

    The encoder group (specs and weights) is copied verbatim and stays
    frozen; only the head will train.
    """
    arch = arch or ArchConfig()
    emb = _chain("encoder", dae_bundle.groups["encoder"], len(dae_bundle.minmax.channels))
    if emb != arch.emb_channels:
        arch = replace(arch, emb_channels=emb)
    head = head_specs(arch, mode)
    rng = make_rng(seed, PURPOSE["init"], 2)
    weights = {f"head/{k}": v for k, v in init_stack_params(head, rng).items()}
    for k, v in dae_bundle.weights.items():
        if k.startswith("encoder/"):
            weights[k] = v.copy()
    return ModelBundle(
        mode=mode,
        groups={"encoder": dae_bundle.groups["encoder"], "head": head},
        weights=weights,
        minmax=dae_bundle.minmax,
    )


def predict(bundle, trial):
    """PredictionRecord for one downsampled trial; its mode's ``read_out``
    gives the prediction fields."""
    return predict_many(bundle, [trial])[0]


def predict_many(bundle, trials, capture=False):
    """PredictionRecord of each downsampled trial, in packed forwards.

    With ``capture``, also returns each trial's pre-GAP activations
    (``(records, pre_gaps)``), from the same forward.
    """
    values = [normalize_for_model(bundle, t).values for t in trials]
    outs = forward_packed([_stack(bundle, "encoder"), _stack(bundle, "head")], values,
                          capture=capture)
    if capture:
        outs, pre_gaps = outs
    records = [_record(bundle, t, out) for t, out in zip(trials, outs)]
    return (records, pre_gaps) if capture else records


def actual_class(bundle, trial):
    """Index of the trial's class among the bundle's, or None."""
    if bundle.class_names and trial.class_label in bundle.class_names:
        return bundle.class_names.index(trial.class_label)
    return None


def _record(bundle, trial, out):
    """PredictionRecord from a trial's head output."""
    return PredictionRecord(
        trial_id=trial.trial_id, subject_id=trial.subject_id, trial_index=trial.trial_index,
        actual=actual_class(bundle, trial), true_score=trial.score,
        **MODES[bundle.mode].read_out(out, bundle.score_stats),
    )
