"""Finite-difference verification of every layer and loss gradient.

For each randomly configured operation the analytic gradient is
compared against central differences

    (f(x + h e_i) - f(x - h e_i)) / (2 h),   h = 1e-5

for every element of every input and parameter.  The reported error is

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-4)

which behaves like a relative error for ordinary gradients and like a
scaled absolute error when both sides vanish.  Inputs are sampled away
from activation kinks (|x| >= 0.05 for selu/relu paths) so the two-sided
difference never straddles a non-differentiable point.

The analytic gradient is the one training uses: a layer's comes from
the backward that ``layers.forward_stack`` records with a ``Recorder``
as its mode, and a loss's or the activity penalty's from its array
function's gradient (``layers._loss_raw``, ``layers._penalty_grad``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (KINDS, LayerSpec, Recorder, _loss_raw, _penalty_grad, _penalty_raw,
                     forward_stack, init_stack_params)
from .seeding import make_rng

__all__ = ["GradCheckResult", "check_operation", "run_gradcheck", "OPERATIONS"]

H = 1e-5
ERROR_FLOOR = 1e-4

OPERATIONS = (*KINDS, "bce", "mse", "cosine", "activity-penalty", "conv1d-selu")


@dataclass(frozen=True)
class GradCheckResult:
    operation: str
    seed: int
    n_elements: int
    max_error: float

    @property
    def passed(self):
        return self.max_error < 1e-4


def _avoid_kinks(x, margin=0.05):
    near = np.abs(x) < margin
    return x + near * np.sign(x + (x == 0.0)) * margin


def _numeric_grad(f, arrays):
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + H
            hi = f()
            flat[i] = keep - H
            lo = f()
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * H)
        grads.append(g)
    return grads


def _compare(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ERROR_FLOOR)
        err = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
        worst = max(worst, err)
    return worst


def _random_target(rng, shape, kind):
    if kind == "bce":
        return rng.uniform(0.05, 0.95, size=shape)
    t = rng.normal(0.0, 1.0, size=shape)
    if kind == "cosine":
        while float(np.linalg.norm(t)) < 0.3:
            t = rng.normal(0.0, 1.0, size=shape)
    return t


def check_operation(op, seed):
    """Gradient-check one operation under one random configuration."""
    rng = make_rng(seed, 991)
    T = int(rng.integers(3, 9))
    C = int(rng.integers(1, 5)) * 2  # even so reduction 2 divides it

    if op in ("bce", "mse", "cosine"):
        n = int(rng.integers(2, 7))
        raw = rng.uniform(0.1, 0.9, size=n) if op == "bce" else _random_target(rng, (n,), op)
        target = _random_target(rng, (n,), op)
        weight = float(rng.uniform(0.5, 2.0))
        _, grad, args = _loss_raw(op, raw, target, weight)
        analytic = [grad(1.0, *args)]

        def evaluate():
            return float(_loss_raw(op, raw, target, weight)[0])

        numeric = _numeric_grad(evaluate, [raw])
        err = _compare(analytic, numeric)
        return GradCheckResult(op, seed, raw.size, err)

    if op == "activity-penalty":
        raw = rng.normal(0.0, 1.0, size=(T, C))
        coeff = float(rng.uniform(0.5, 2.0))
        analytic = [_penalty_grad(raw, coeff)]

        def evaluate():
            return float(_penalty_raw(raw, coeff))

        numeric = _numeric_grad(evaluate, [raw])
        return GradCheckResult(op, seed, raw.size, _compare(analytic, numeric))

    # layer path: build a one-layer stack, reduce with a fixed projection
    # so the scalar loss exercises every output element; conv1d-selu is a
    # conv1d and the selu after it, with its activity penalty in the loss
    if op in ("conv1d", "conv1d-selu"):
        cout = int(rng.integers(1, 5))
        spec = LayerSpec("conv1d", in_channels=C, out_channels=cout,
                         kernel_size=int(rng.integers(0, 3)) * 2 + 1,
                         dilation=int(rng.integers(1, 4)))
    elif op == "dense":
        spec = LayerSpec("dense", in_channels=C, out_channels=int(rng.integers(1, 5)))
    elif op == "scse":
        spec = LayerSpec("scse", in_channels=C, reduction=2)
    elif op == "residual-scse-block":
        spec = LayerSpec("residual-scse-block", in_channels=C,
                         kernel_size=int(rng.integers(0, 2)) * 2 + 1,
                         dilation=int(rng.integers(1, 3)), reduction=2)
    elif op == "gaussian-noise":
        spec = LayerSpec("gaussian-noise", sigma=float(rng.uniform(0.001, 0.1)))
    else:
        spec = LayerSpec(op)

    specs = (spec, LayerSpec("selu")) if op == "conv1d-selu" else (spec,)
    activity_l2 = float(rng.uniform(0.5, 2.0)) if op == "conv1d-selu" else 0.0
    if op == "dense":
        x_raw = _avoid_kinks(rng.normal(0.0, 1.0, size=C))
    elif op == "softmax":
        x_raw = rng.normal(0.0, 1.0, size=int(rng.integers(2, 7)))
    else:
        x_raw = _avoid_kinks(rng.normal(0.0, 1.0, size=(T, C)))

    arrays = init_stack_params(specs, make_rng(seed, 992))
    # give biases nonzero values so their gradients are exercised off-origin
    for name, arr in arrays.items():
        if "w" not in name:
            arrays[name] = rng.normal(0.0, 0.3, size=arr.shape)
    names = sorted(arrays)

    noise = None
    if op == "gaussian-noise":
        noise = make_rng(seed, 993).normal(0.0, spec.sigma, size=x_raw.shape)

    def run(grads):
        # after the identity entry the first layer op is not the first
        # op, so it computes the gradient of x, which the backward returns
        rec = Recorder(rng=_FixedNoise(noise), activity_l2=activity_l2)
        rec.add(_identity)
        return forward_stack(specs, arrays, x_raw, rec, grads), rec

    # scalarize via a fixed random projection so every output element
    # contributes to the loss
    grads = {n: np.zeros_like(arrays[n]) for n in names}
    out, rec = run(grads)
    proj = make_rng(seed, 994).normal(0.0, 1.0, size=out.shape)
    analytic = [rec.backward(proj)] + [grads[n] for n in names]

    def evaluate():
        # the same gradient arrays; this forward's backward never runs
        o, rec = run(grads)
        return float(np.sum(o * proj)) + sum(float(a) for a in rec.penalties)

    numeric = _numeric_grad(evaluate, [x_raw] + [arrays[n] for n in names])
    err = _compare(analytic, numeric)
    n_el = x_raw.size + sum(arrays[n].size for n in names)
    return GradCheckResult(op, seed, n_el, err)


def _identity(g):
    return g


class _FixedNoise:
    """Stands in for a Generator so repeated forwards add identical noise."""

    def __init__(self, noise):
        self.noise = noise

    def normal(self, loc, scale, size):
        return self.noise


def run_gradcheck(configs_per_op=20, base_seed=0):
    """Check every operation under ``configs_per_op`` random configs."""
    results = []
    for oi, op in enumerate(OPERATIONS):
        for j in range(configs_per_op):
            results.append(check_operation(op, base_seed * 100000 + oi * 1000 + j))
    return results
