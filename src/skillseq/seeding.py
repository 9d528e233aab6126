"""Deterministic random stream derivation.

Every stochastic step derives its generator from integer keys through
``SeedSequence``, so streams are independent of execution order and
reproducible across platforms.  Purpose tags keep streams for different
uses (init, noise, shuffling, fold assignment, synthesis) disjoint even
under equal run seeds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "PURPOSE"]

# purpose tags for derived streams
PURPOSE = {
    "init": 1,
    "noise": 2,
    "shuffle": 3,
    "val_split": 4,
    "folds": 5,
    "synth": 6,
}


def make_rng(*keys):
    """Generator keyed by a tuple of non-negative integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))
