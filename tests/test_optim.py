"""Optimizer arithmetic against closed-form single-step updates."""

import numpy as np
import pytest

from skillseq.layers import is_kernel_param
from skillseq.optim import AdamState, adam_step_masked


def closed_form_first_step(lr, b1, b2, eps, g):
    """Hand-expanded update for step t = 1 from zero moments."""
    m = (1 - b1) * g
    v = (1 - b2) * g ** 2
    alpha = lr * np.sqrt(1 - b2) / (1 - b1)
    return alpha * m / (np.sqrt(v) + eps)


def test_first_step_matches_closed_form():
    g = np.array([0.3, -1.7, 0.001])
    theta = np.zeros(3)
    state = AdamState(learning_rate=0.01)
    adam_step_masked(state, theta, g, np.ones(3))
    want = -closed_form_first_step(0.01, 0.9, 0.999, 1e-8, g)
    np.testing.assert_allclose(theta, want, rtol=1e-14)


def test_two_steps_match_manual_recurrence():
    lr, b1, b2, eps = 0.02, 0.9, 0.999, 1e-8
    theta = np.array([1.0])
    state = AdamState(learning_rate=lr)
    m = v = 0.0
    ref = 1.0
    for t, g in enumerate([0.5, -0.25], start=1):
        adam_step_masked(state, theta, np.array([g]), np.ones(1))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        alpha = lr * np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
        ref -= alpha * m / (np.sqrt(v) + eps)
    assert theta[0] == pytest.approx(ref, rel=1e-14)


def test_large_gradient_step_is_learning_rate_bounded():
    # with eps tiny the first-step magnitude approaches lr regardless of g
    theta = np.zeros(1)
    state = AdamState(learning_rate=0.005)
    adam_step_masked(state, theta, np.array([1e6]), np.ones(1))
    assert abs(theta[0]) == pytest.approx(0.005, rel=1e-4)


def test_l2_decays_kernels_only():
    lr, l2 = 0.01, 0.1
    assert is_kernel_param("head/0.w")
    assert not is_kernel_param("head/0.b")
    # element 0 is a kernel, element 1 a bias, as the training loops mark them
    theta = np.array([2.0, 2.0])
    decay_mask = np.array([1.0, 0.0])
    state = AdamState(learning_rate=lr, l2=l2)
    adam_step_masked(state, theta, np.zeros(2), decay_mask)
    kernel, bias = theta
    # bias sees zero gradient and must not move; kernel decays toward zero
    assert bias == 2.0
    assert kernel < 2.0
    g_eff = 2 * l2 * 2.0
    want = 2.0 - closed_form_first_step(lr, 0.9, 0.999, 1e-8, g_eff)
    assert kernel == pytest.approx(want, rel=1e-12)


def test_state_validation():
    with pytest.raises(ValueError):
        AdamState(learning_rate=0.0)
    with pytest.raises(ValueError):
        AdamState(l2=-1e-9)
