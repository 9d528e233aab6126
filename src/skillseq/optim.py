"""Adam optimizer with bias correction and kernel weight decay.

Update rule (per step t, applied to every tracked parameter):

    g'
      = g + 2 * l2 * theta      if the parameter is a kernel, else g
    m <- beta1 * m + (1 - beta1) * g'
    v <- beta2 * v + (1 - beta2) * g' ** 2
    theta <- theta - lr * sqrt(1 - beta2**t) / (1 - beta1**t) * m / (sqrt(v) + eps)

i.e. the bias correction is folded into the step size and eps sits
outside the corrected square root.  At t = 1 with a scalar gradient g
and l2 = 0 the update magnitude is

    lr * |g| / (|g| + eps * sqrt(1 - beta2) / (1 - beta2)).

The l2 term implements an L2 kernel regularizer through its gradient
(d/dtheta of l2 * theta^2), matching regularization folded into the loss.
Bias parameters are never decayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdamState", "adam_step_masked"]


@dataclass
class AdamState:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    l2: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")


def adam_step_masked(state, theta, grad, decay_mask=None):
    """Apply one Adam update in place to a flat parameter vector.

    ``decay_mask`` marks the kernel elements (1.0) that receive the L2
    gradient term; bias elements carry 0.0.  Used by the training loops,
    where all trainable parameters live in one contiguous buffer.
    """
    state.step_count += 1
    t = state.step_count
    alpha = state.learning_rate * np.sqrt(1.0 - state.beta2 ** t) / (1.0 - state.beta1 ** t)
    g = grad
    if state.l2 > 0.0 and decay_mask is not None:
        g = g + (2.0 * state.l2) * (theta * decay_mask)
    m = state.m.get("flat")
    if m is None:
        m = state.m["flat"] = np.zeros_like(theta)
        state.v["flat"] = np.zeros_like(theta)
    v = state.v["flat"]
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * np.square(g)
    theta -= alpha * m / (np.sqrt(v) + state.eps)
