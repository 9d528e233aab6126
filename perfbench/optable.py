"""Forward and backward microseconds per call of single tensor ops.

Calls the public ``skillseq.tensor`` functions directly at two reference
shapes with the same channels and kernel: T=80 (call overhead dominates)
and T=800 (arithmetic starts to count).  C=16 and K=5 match the default
architecture's encoder convolutions.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["OPS", "SHAPES", "op_table", "OPTABLE_METRICS"]

OPS = ("conv1d", "selu", "scse_op", "activity_penalty", "sigmoid", "loss_eval")
SHAPES = (80, 800)
CHANNELS = 16
KERNEL = 5
BLOCK_SECONDS = 0.01
BLOCKS = 5

OPTABLE_METRICS = [(f"tensor.{op}.{d}_us.T{t}", "us")
                   for t in SHAPES for op in OPS for d in ("fwd", "bwd")]


def _case(tz, op, T, rng):
    """A zero-argument forward call for one op at sequence length T."""
    C, K = CHANNELS, KERNEL
    x = tz.parameter(rng.normal(size=(T, C)))
    if op == "conv1d":
        w = tz.parameter(rng.normal(0.0, 0.1, size=(K, C, C)))
        b = tz.parameter(np.zeros(C))
        return lambda: tz.conv1d(x, w, b, 1)
    if op == "scse_op":
        mid = C // 2
        p = [tz.parameter(rng.normal(0.0, 0.1, size=s))
             for s in ((C, mid), (mid,), (mid, C), (C,), (C,), ())]
        return lambda: tz.scse_op(x, *p)
    if op == "activity_penalty":
        return lambda: tz.activity_penalty(x, 1e-5)
    if op == "loss_eval":
        pred = tz.parameter(rng.uniform(0.05, 0.95, size=(T, C)))
        target = rng.uniform(0.0, 1.0, size=(T, C))
        return lambda: tz.loss_eval("bce", pred, target, 1.0)
    return lambda: getattr(tz, op)(x)


def _per_call_us(fn):
    """Median over blocks of the mean time per call, in microseconds."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BLOCK_SECONDS / once))
    samples = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(samples)


def op_table(tz, seed):
    """{metric name: us per call} for every op and reference shape."""
    rng = np.random.default_rng(seed)
    out = {}
    for T in SHAPES:
        for op in OPS:
            forward = _case(tz, op, T, rng)
            out[f"tensor.{op}.fwd_us.T{T}"] = _per_call_us(forward)
            node = forward()
            g = np.ones_like(node.data)
            out[f"tensor.{op}.bwd_us.T{T}"] = _per_call_us(lambda: node.bwd(g))
    return out
