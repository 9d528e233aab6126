"""Finite-difference audit of every layer and loss gradient.

The central-difference probe (h = 1e-5) is the independent oracle; the
graph's analytic gradients must agree to a relative error below 1e-4 on
randomized configurations of every operation kind.
"""

import time

import numpy as np

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
