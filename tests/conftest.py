"""Shared fixtures: tiny datasets and one small trained model.

Training-based tests reuse the session-scoped bundles below so the unit
suite stays fast; anything probing training behavior itself builds its
own throwaway configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from skillseq.data import Dataset, Trial, prepare_stage2
from skillseq.model import ArchConfig
from skillseq.synth import SynthSpec, synth_subjects
from skillseq.training import DaeConfig, HeadConfig, train_classifier, train_dae


def make_trial(values, subject="S1", index=0, rate=1.0, channels=None,
               score=None, label=None, stage=0):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if channels is None:
        channels = tuple(f"c{i}" for i in range(values.shape[1]))
    return Trial(subject_id=subject, trial_index=index, sample_rate_hz=rate,
                 channels=tuple(channels), values=values, score=score,
                 class_label=label, stage=stage)


def synth_dataset(spec):
    """The generator's subjects flattened into one in-memory Dataset."""
    return Dataset([t for trials in synth_subjects(spec) for t in trials])


SMALL_ARCH = ArchConfig(enc_width=6, emb_channels=4, kernel_size=3,
                        reduction=2, clf_width=6, clf_dilation=2)


@pytest.fixture(scope="session")
def small_dataset():
    return synth_dataset(SynthSpec(n_subjects=4, trials_per_subject=10, seed=5))


@pytest.fixture(scope="session")
def small_downsampled(small_dataset):
    """The small dataset's trials, downsampled: the model's input."""
    return [prepare_stage2(t) for t in small_dataset.trials]


@pytest.fixture(scope="session")
def small_dae(small_downsampled):
    cfg = DaeConfig(learning_rate=0.001, max_epochs=2, patience=4, loss="bce")
    bundle, history = train_dae(small_downsampled, cfg, 1, SMALL_ARCH)
    return bundle, history


@pytest.fixture(scope="session")
def small_classifier(small_dae, small_downsampled):
    dae_bundle, _ = small_dae
    cfg = HeadConfig(learning_rate=0.0007, max_epochs=3, patience=20)
    bundle, history = train_classifier(dae_bundle, small_downsampled, cfg, 1, SMALL_ARCH,
                                       "classification")
    return bundle, history


@pytest.fixture(scope="session")
def small_regressor(small_dae, small_downsampled):
    dae_bundle, _ = small_dae
    cfg = HeadConfig(learning_rate=0.0007, max_epochs=3, patience=20)
    bundle, history = train_classifier(dae_bundle, small_downsampled, cfg, 1, SMALL_ARCH,
                                       "regression")
    return bundle, history
