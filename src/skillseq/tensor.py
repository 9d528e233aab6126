"""The reverse-mode tape: the benchmark's op table and the tests' reference.

Nothing in the package builds it; training and eval run on plain arrays
(``layers``).  ``Tensor``, ``parameter``, ``backward`` and the op
wrappers (``conv1d``, ``selu``, ``scse_op``, ``loss_eval``, ...) call
the array functions of ``layers``, so the backward that
``layers.Recorder`` records is compared with the tape's bit for bit.
Every op records its parents and a backward closure, built by ``_node``.
Gradients are accumulated additively, so calling ``backward`` twice
doubles every gradient.  ``backward`` walks only the nodes that have a
backward closure: leaves (parameters, constants) and every node computed
from them alone are left out of ``topo_order``.  Leaves only receive
gradients, so leaving them out changes neither the order of the other
nodes nor any gradient.
"""

from __future__ import annotations

import numpy as np

from . import layers

__all__ = ["Tensor", "parameter", "backward"]


class Tensor:
    """A node in the computation graph.

    ``data`` is always a float64 ndarray (possibly zero-dimensional).
    ``grad`` is allocated lazily on first accumulation.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "bwd")

    def __init__(self, data, requires_grad=False, parents=(), bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.parents = parents
        self.bwd = bwd

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g)  # copy: g may be shared downstream
        else:
            self.grad += g


def parameter(data):
    """Leaf tensor that participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _node(data, parents, grads, order=None):
    """The tensor holding ``data``, computed from ``parents``.  If a
    parent wants a gradient, its backward takes ``grads(g)``, one
    gradient per tensor of ``order`` (default: ``parents``), and adds each
    to its tensor in that order where the tensor wants one."""
    if not any(p.requires_grad for p in parents):
        return Tensor(data, False, parents, None)
    targets = parents if order is None else order

    def bwd(g):
        for t, d in zip(targets, grads(g)):
            if t.requires_grad:
                t.accumulate(d)

    return Tensor(data, True, parents, bwd)


def topo_order(root):
    """Parents-before-children ordering of root and the nodes with a
    backward closure that it reaches; leaves are left out."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.bwd is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root):
    """Accumulate d(root)/d(node) into ``grad`` of every reachable node.

    ``root`` must be scalar shaped (ndim 0).  Existing gradients are kept
    and added to.
    """
    if root.data.ndim != 0:
        raise ValueError(f"backward expects a scalar root, got shape {root.data.shape}")
    order = topo_order(root)
    root.accumulate(np.array(1.0))
    for node in reversed(order):
        if node.bwd is not None and node.grad is not None:
            node.bwd(node.grad)


# --- the op wrappers: each op's forward and gradients come from layers ---

def conv1d(x, w, b, dilation=1):
    """Temporal convolution (``layers._conv_raw``) with an odd kernel."""
    K = w.data.shape[0]
    if K % 2 != 1:
        raise ValueError(f"kernel size must be odd, got {K}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    out, taps2, w2 = layers._conv_raw(x.data, w.data, b.data, dilation)
    return _node(out, (x, w, b),
                 lambda g: layers._conv_grads(g, taps2, w2, K, dilation, x.requires_grad),
                 (w, b, x))


def dense(x, w, b):
    """Affine map of a vector: (C_in,) @ (C_in, C_out) + (C_out,)."""
    return _node(layers._dense_raw(x.data, w.data, b.data), (x, w, b),
                 lambda g: layers._dense_grads(g, x.data, w.data, x.requires_grad), (w, b, x))


def selu(x):
    out, neg, ex = layers._selu_raw(x.data)
    return _node(out, (x,), lambda g: (layers._selu_grad(g, neg, ex),))


def sigmoid(x):
    out = layers._sigmoid_raw(x.data)
    return _node(out, (x,), lambda g: (layers._sigmoid_grad(g, out),))


def softmax(x):
    """Softmax over a 1-D vector."""
    out = layers._softmax_raw(x.data)
    return _node(out, (x,), lambda g: (layers._softmax_grad(g, out),))


def gap(x):
    """Global average over time: (T, C) -> (C,)."""
    return _node(layers._gap_raw(x.data), (x,), lambda g: (layers._gap_grad(g, x.data),))


def add(x, y):
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch {x.data.shape} vs {y.data.shape}")
    return _node(x.data + y.data, (x, y), lambda g: (g, g))


def add_n(tensors):
    """Sum of same-shaped tensors as a single graph node."""
    tensors = tuple(tensors)
    return _node(layers._sum_raw([t.data for t in tensors]), tensors,
                 lambda g: [g] * len(tensors))


def scse_op(x, cw1, cb1, cw2, cb2, sw, sb):
    """The sCSE block (``layers._scse_raw``) with a hand-derived backward."""
    params = (cw1, cb1, cw2, cb2, sw, sb)
    out, saved = layers._scse_raw(x.data, *(p.data for p in params))
    return _node(out, (x, *params),
                 lambda g: layers._scse_grads(g, saved, cw1.data, cw2.data, sw.data,
                                              x.requires_grad),
                 (*params, x))


def add_noise(x, noise):
    """Shift by a fixed (non-differentiated) noise array."""
    return _node(x.data + noise, (x,), lambda g: (g,))


def activity_penalty(x, coeff):
    """Scalar penalty coeff * mean(x ** 2)."""
    return _node(layers._penalty_raw(x.data, coeff), (x,),
                 lambda g: (layers._penalty_grad(x.data, coeff) * g,))


def loss_eval(kind, pred, target, sample_weight=1.0):
    """Evaluate one of the named losses as a scalar graph node."""
    value, grad, args = layers._loss_raw(kind, pred.data, target, sample_weight)
    return _node(value, (pred,), lambda g: (grad(g, *args),))
