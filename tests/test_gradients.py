"""Finite-difference audit of every layer and loss gradient.

The central-difference probe (h = 1e-5) is the independent oracle; the
analytic gradients, from the backward that training records, must agree
to a relative error below 1e-4 on randomized configurations of every
operation kind.
"""

import time

import numpy as np

import skillseq.layers as layers
from skillseq.gradcheck import OPERATIONS, check_operation, run_gradcheck


def test_every_operation_kind_is_covered():
    kinds = set(OPERATIONS)
    for expected in ("conv1d", "dense", "selu", "sigmoid", "softmax", "gap",
                     "scse", "residual-scse-block", "gaussian-noise",
                     "bce", "mse", "cosine", "activity-penalty", "conv1d-selu"):
        assert expected in kinds


def test_full_sweep_passes_within_budget():
    start = time.monotonic()
    results = run_gradcheck(configs_per_op=20, base_seed=0)
    elapsed = time.monotonic() - start
    per_op = {}
    for r in results:
        per_op[r.operation] = per_op.get(r.operation, 0) + 1
    assert set(per_op) == set(OPERATIONS)
    assert all(n >= 20 for n in per_op.values())
    worst = max(results, key=lambda r: r.max_error)
    assert worst.max_error < 1e-4, (worst.operation, worst.max_error)
    assert elapsed < 30.0


def test_single_check_is_deterministic():
    a = check_operation("conv1d", seed=123)
    b = check_operation("conv1d", seed=123)
    assert a.max_error == b.max_error
    assert a.n_elements == b.n_elements


def test_distinct_seeds_exercise_distinct_configs():
    errs = {check_operation("dense", seed=s).n_elements for s in range(8)}
    assert len(errs) > 1


def test_gradcheck_audits_the_backward_that_training_runs(monkeypatch):
    """A recorded convolution backward that drops its bias gradient is
    what a training step would run, so gradcheck must catch it."""
    def conv_back_without_db(g, taps, w2, K, dilation, views, need_x):
        dw, db, dx = layers._conv_grads(g, taps, w2, K, dilation, need_x)
        layers._add_grads(views, (dw, np.zeros_like(db)))
        return dx

    seeds = range(3)
    assert all(check_operation("conv1d", s).passed for s in seeds)
    monkeypatch.setattr(layers, "_conv_back", conv_back_without_db)
    assert not any(check_operation("conv1d", s).passed for s in seeds)
