"""Adam optimizer with bias correction and kernel weight decay.

Update rule (per step t, applied to every tracked parameter):

    g'
      = g + 2 * l2 * theta      if the parameter is a kernel, else g
    m <- beta1 * m + (1 - beta1) * g'
    v <- beta2 * v + (1 - beta2) * g' ** 2
    theta <- theta - lr * sqrt(1 - beta2**t) / (1 - beta1**t) * m / (sqrt(v) + eps)

with the fixed constants beta1 = ``BETA1``, beta2 = ``BETA2`` and eps =
``EPS``, i.e. the bias correction is folded into the step size and eps
sits outside the corrected square root.  At t = 1 with a scalar gradient g
and l2 = 0 the update magnitude is

    lr * |g| / (|g| + eps * sqrt(1 - beta2) / (1 - beta2)).

The l2 term implements an L2 kernel regularizer through its gradient
(d/dtheta of l2 * theta^2), matching regularization folded into the loss.
Bias parameters are never decayed.

A step allocates nothing: the moments and two work buffers live on the
state, and every array operation writes into one of them.  Scalar
products and two-term sums are commutative in floating point, so the
result has the bits of the expressions above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdamState", "adam_step_masked"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    learning_rate: float = 0.001
    l2: float = 0.0
    step_count: int = 0
    m: np.ndarray | None = field(default=None, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, repr=False, compare=False)
    work: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")


def adam_step_masked(state, theta, grad, decay_mask):
    """Apply one Adam update in place to a flat parameter vector.

    ``decay_mask`` marks the kernel elements (1.0) that receive the L2
    gradient term; bias elements carry 0.0.  Used by the training loops,
    where all trainable parameters live in one contiguous buffer.
    """
    state.step_count += 1
    t = state.step_count
    alpha = state.learning_rate * math.sqrt(1.0 - BETA2 ** t) / (1.0 - BETA1 ** t)
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
        state.work = (np.empty_like(theta), np.empty_like(theta))
    m, v = state.m, state.v
    a, b = state.work
    g = grad
    if state.l2 > 0.0:
        np.multiply(theta, decay_mask, out=a)
        a *= 2.0 * state.l2
        a += grad
        g = a
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=b)
    m += b
    v *= BETA2
    np.square(g, out=b)
    b *= 1.0 - BETA2
    v += b
    np.sqrt(v, out=b)
    b += EPS
    np.multiply(m, alpha, out=a)
    a /= b
    theta -= a
