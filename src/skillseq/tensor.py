"""Array functions for every op, and the reverse-mode tape over them.

Each formula lives once, in a module-level function over float64 numpy
arrays: ``_<op>_raw`` computes an op's forward (with what its backward
reads) and ``_<op>_grad``/``_<op>_grads`` its backward.  The package
runs only these: training records each stack's backward over them
(``layers.forward_stack`` with a ``Recorder``), and ``gradcheck`` checks
that recorded backward.  The ops below use ``np.add.reduce`` and
``np.minimum``/``np.maximum`` where ``mean``, ``sum`` and ``clip`` would
compute the same bits through more Python, since a training step runs
one sample at a time and its cost is the number of numpy calls.

The tape (``Tensor``, ``parameter``, ``backward`` and the op wrappers
``conv1d``, ``selu``, ``scse_op``, ``loss_eval``, ...) calls the same
array functions.  Nothing in the package builds it: it is the
benchmark's op table and the tests' reference, against which the
recorded backward is compared bit for bit.  Every operation records its
parents and a backward closure.  Gradients are accumulated additively,
so calling ``backward`` twice doubles every gradient.  ``backward``
walks only the nodes that have a backward closure: leaves (parameters,
constants) and every node computed from them alone are left out of
``topo_order``.  Leaves only receive gradients, so leaving them out
changes neither the order of the other nodes nor any gradient.

Eval forwards run on plain arrays (``layers.forward_packed``, with a
``layers.PackedEval`` as ``forward_stack``'s mode).
``Segments`` lays trials out along time with zero halo rows around each,
and ``_conv_packed``, ``_scse_packed``, ``Segments.means`` and
``_row_products`` run an op over every trial of such an array.  Each
trial's result equals, byte for byte, that of the one-trial op: every
BLAS call and every reduction runs once per trial on exactly the
one-trial operands (their bits depend on the operand shapes); only
elementwise arithmetic spans the packed array, and halo rows are zeroed
after each convolution (and sigmoid).  At the 890-2,048 rows of a long
trial or a chunk, ``np.where`` and fresh arrays of 100 KB or more (new
memory to fault in) cost more than the arithmetic, so SELU runs in place
(``_selu_inplace``, the bits of ``_selu_raw``), the sCSE combine makes
two temporaries instead of four, and each ``forward_packed`` call builds
every trial's taps in one ``TapBuffer``, reading the halos as padding.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "Segments",
    "TapBuffer",
    "parameter",
    "backward",
]


class Tensor:
    """A node in the computation graph.

    ``data`` is always a float64 ndarray (possibly zero-dimensional).
    ``grad`` is allocated lazily on first accumulation.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "bwd")

    def __init__(self, data, requires_grad=False, parents=(), bwd=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.parents = parents
        self.bwd = bwd

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g)  # copy: g may be shared downstream
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """Leaf tensor that participates in gradient computation."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _node(data, parents, bwd):
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, parents, bwd)
    return Tensor(data, False, parents, None)


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


class Segments:
    """Row layout of trials packed along time.

    Trial ``i`` occupies rows ``bounds[i] = (start, end)``; ``halo`` zero
    rows come before each trial and after the last.  ``_conv_packed``
    sees each trial padded with zeros exactly as a one-trial call does
    when ``halo`` is at least the smaller of the convolution's reach
    ``(K // 2) * dilation`` and the longest trial: a tap whose offset is
    as large as its trial is long reads only padding, so it is written as
    zeros and reads no halo.  The layout's convolutions build their taps
    in ``taps``, a ``TapBuffer``.
    """

    def __init__(self, lengths, halo, taps):
        self.taps = taps
        self.bounds = []
        start = halo
        for n in lengths:
            self.bounds.append((start, start + n))
            start += n + halo
        self.rows = start
        self.longest = max(lengths)
        self.lengths = np.array(lengths, dtype=np.float64)[:, None]
        ends = [0] + [e for _, e in self.bounds]   # where each halo starts
        self.halo_rows = np.array([r for e in ends for r in range(e, e + halo)], dtype=np.intp)
        # row -> its trial; a halo row belongs to the trial before it, and
        # the leading halo to the first trial
        counts = [n + halo for n in lengths]
        counts[0] += halo
        self.owner = np.repeat(np.arange(len(lengths)), counts)

    def pack(self, arrays):
        """One (rows, C) array holding each (T_i, C) array at its bounds."""
        out = np.zeros((self.rows, arrays[0].shape[1]))
        for (s, e), a in zip(self.bounds, arrays):
            out[s:e] = a
        return out

    def unpack(self, packed):
        """Each trial's rows of a packed array (views)."""
        return [packed[s:e] for s, e in self.bounds]

    def means(self, xd):
        """Per-trial means over time of a packed (rows, C) array: (n, C)."""
        out = np.empty((len(self.bounds), xd.shape[1]))
        for i, (s, e) in enumerate(self.bounds):
            np.add.reduce(xd[s:e], 0, out=out[i])
        out /= self.lengths
        return out


class TapBuffer:
    """Storage that packed convolutions build each trial's taps in, one
    after another.  It grows to the largest tap array asked of it; each
    packed forward makes its own, so none outlives the forward."""

    def __init__(self):
        self.flat = np.empty(0)

    def array(self, rows, cols):
        """A C-contiguous (rows, cols) array over the storage; the caller
        overwrites every element."""
        n = rows * cols
        if self.flat.size < n:
            self.flat = np.empty(n)
        return self.flat[:n].reshape(rows, cols)


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def conv1d(x, w, b, dilation=1):
    """Temporal convolution with zero 'same' padding and centered odd kernel.

    x: (T, C_in), w: (K, C_in, C_out), b: (C_out,).  Output (T, C_out):

        out[t, o] = b[o] + sum_{k, c} x[t + (k - K//2) * dilation, c] * w[k, c, o]

    with out-of-range input treated as zero.
    """
    xd, wd, bd = x.data, w.data, b.data
    K = wd.shape[0]
    if K % 2 != 1:
        raise ValueError(f"kernel size must be odd, got {K}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    out, taps2, w2 = _conv_raw(xd, wd, bd, dilation)

    def bwd(g):
        _accumulate((w, b, x), _conv_grads(g, taps2, w2, K, dilation, x.requires_grad))

    return _node(out, (x, w, b), bwd)


def _accumulate(tensors, grads):
    """Add each gradient to its tensor, where the tensor wants one."""
    for t, g in zip(tensors, grads):
        if t.requires_grad:
            t.accumulate(g)


def _conv_matrix(wd):
    """The (C_in * K, C_out) matrix of a (K, C_in, C_out) kernel that the
    taps multiply: row ``c*K + k`` holds ``wd[k, c]``."""
    K, cin = wd.shape[:2]
    return wd[0] if K == 1 else wd.transpose(1, 0, 2).reshape(cin * K, -1)


def _conv_raw(xd, wd, bd, dilation):
    """``conv1d`` of arrays: ``(out, taps, w2)``; ``_conv_grads`` reads
    the taps and the kernel matrix ``w2``, the operands of the matmul.

    A tap whose offset ``(k - K//2) * dilation`` is at least T away reads
    only zero padding, so its columns are written as zeros and the
    padding is never wider than the trial."""
    T, cin = xd.shape
    K = wd.shape[0]
    w2 = _conv_matrix(wd)
    if K == 1:
        taps2 = xd
    else:
        pad = min((K // 2) * dilation, T)
        xp = np.zeros((T + 2 * pad, cin))
        xp[pad:pad + T] = xd
        # taps2[t, c*K + k] = xp[pad + t + o_k, c]; flattened this way the
        # whole contraction is a single BLAS matmul
        taps2 = np.empty((T, cin * K))
        for k in range(K):
            o = (k - K // 2) * dilation
            taps2[:, k::K] = xp[pad + o:pad + o + T] if abs(o) < T else 0.0
    out = taps2 @ w2
    out += bd
    return out, taps2, w2


def _conv_grads(g, taps2, w2, K, dilation, need_x):
    """Gradients of ``_conv_raw`` for the output gradient ``g``:
    ``(dw, db, dx)``, with ``dx`` None unless ``need_x``."""
    cin = w2.shape[0] // K
    dw = (taps2.T @ g).reshape(cin, K, -1).transpose(1, 0, 2)
    db = np.add.reduce(g, 0)
    if not need_x:
        return dw, db, None
    if K == 1:
        return dw, db, g @ w2.T
    T = g.shape[0]
    pad = min((K // 2) * dilation, T)
    dtaps = (g @ w2.T).reshape(T, cin, K)
    gxp = np.zeros((T + 2 * pad, cin))
    for k in range(K):
        o = (k - K // 2) * dilation
        if abs(o) < T:  # a tap further out read only padding
            gxp[pad + o:pad + o + T] += dtaps[:, :, k]
    return dw, db, gxp[pad:pad + T]


def _conv_packed(xd, wd, bd, dilation, segments):
    """``_conv_raw``'s output over a packed array, one trial at a time: a
    trial's taps read its halos as its zero padding, and a tap that
    reaches as far as the trial is long is zero, as in the one-trial
    call, so the taps and the matmul are that call's.  The halos must
    be at least as wide as the reach or the longest trial, whichever is
    shorter."""
    K = wd.shape[0]
    w2 = _conv_matrix(wd)
    out = np.zeros((xd.shape[0], w2.shape[1]))
    if K > 1:
        buf = segments.taps.array(segments.longest, w2.shape[0])
    for s, e in segments.bounds:
        if K == 1:
            taps = xd[s:e]
        else:
            # taps[t, c*K + k] = xd[s + t + o_k, c]
            taps = buf[:e - s]
            for k in range(K):
                o = (k - K // 2) * dilation
                taps[:, k::K] = xd[s + o:e + o] if abs(o) < e - s else 0.0
        np.matmul(taps, w2, out=out[s:e])
    out += bd
    out[segments.halo_rows] = 0.0
    return out


def _row_products(rows, w):
    """``rows[i] @ w`` for each row, one vector-matrix product per row."""
    out = np.empty((rows.shape[0], w.shape[1]))
    for i, row in enumerate(rows):
        np.matmul(row, w, out=out[i])
    return out


def dense(x, w, b):
    """Affine map of a vector: (C_in,) @ (C_in, C_out) + (C_out,)."""
    out = _dense_raw(x.data, w.data, b.data)

    def bwd(g):
        _accumulate((w, b, x), _dense_grads(g, x.data, w.data, x.requires_grad))

    return _node(out, (x, w, b), bwd)


def _dense_raw(xd, wd, bd):
    return xd @ wd + bd


def _dense_grads(g, xd, wd, need_x):
    """``(dw, db, dx)`` of ``_dense_raw``; ``dx`` is None unless ``need_x``."""
    return xd[:, None] * g, g, (wd @ g if need_x else None)


# canonical scaled-exponential constants
SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


def _selu_raw(xd):
    """SELU of an array, plus what its derivative needs: (out, neg, ex)."""
    neg = xd <= 0.0
    ex = np.exp(np.minimum(xd, 0.0))
    return np.where(neg, SELU_LAMBDA * SELU_ALPHA * (ex - 1.0), SELU_LAMBDA * xd), neg, ex


def _selu_inplace(c):
    """SELU of an array written over it, with the bits of
    ``_selu_raw(c)[0]``: for x > 0 the sum is ``+0.0 + λx``, and for
    x <= 0 it is ``λα(e^x - 1) + (±0.0)``, whose left term is never -0.0."""
    pos = np.maximum(c, 0.0)
    pos *= SELU_LAMBDA
    np.minimum(c, 0.0, out=c)
    np.exp(c, out=c)
    c -= 1.0
    c *= SELU_LAMBDA * SELU_ALPHA
    c += pos
    return c


def _selu_grad(g, neg, ex):
    return g * np.where(neg, SELU_LAMBDA * SELU_ALPHA * ex, SELU_LAMBDA)


def selu(x):
    out, neg, ex = _selu_raw(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(_selu_grad(g, neg, ex))

    return _node(out, (x,), bwd)


def _penalty_raw(xd, coeff):
    return np.array(coeff * float(np.add.reduce(np.square(xd), None) / xd.size))


def _penalty_grad(xd, coeff):
    """Gradient of ``_penalty_raw(xd, coeff)``; the chain rule multiplies
    it by the penalty's gradient, which is 1 for a term of the loss."""
    return (2.0 * coeff / xd.size) * xd


def _sigmoid_raw(xd):
    # bounding keeps exp finite; exact for |x| < 500
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(xd, -500.0), 500.0)))


def _sigmoid_grad(g, out):
    return g * out * (1.0 - out)


def sigmoid(x):
    out = _sigmoid_raw(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(_sigmoid_grad(g, out))

    return _node(out, (x,), bwd)


def _softmax_raw(v):
    e = np.exp(v - np.maximum.reduce(v))
    return e / np.add.reduce(e)


def _softmax_grad(g, out):
    return out * (g - np.dot(g, out))


def softmax(x):
    """Softmax over a 1-D vector."""
    out = _softmax_raw(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(_softmax_grad(g, out))

    return _node(out, (x,), bwd)


def gap(x):
    """Global average over time: (T, C) -> (C,)."""
    out = _gap_raw(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(_gap_grad(g, x.data))

    return _node(out, (x,), bwd)


def _gap_raw(xd):
    return np.add.reduce(xd, 0) / xd.shape[0]


def _gap_grad(g, xd):
    """Gradient of ``_gap_raw(xd)``: ``g / T`` on every row."""
    gx = np.empty_like(xd)
    gx[:] = g / xd.shape[0]
    return gx


def add(x, y):
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shape mismatch {x.data.shape} vs {y.data.shape}")
    out = x.data + y.data

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g)
        if y.requires_grad:
            y.accumulate(g)

    return _node(out, (x, y), bwd)


def _sum_raw(arrays):
    """Sum of same-shaped arrays, added left to right."""
    out = arrays[0].copy()
    for a in arrays[1:]:
        out = out + a
    return out


def add_n(tensors):
    """Sum of same-shaped tensors as a single graph node."""
    tensors = tuple(tensors)
    out = _sum_raw([t.data for t in tensors])

    def bwd(g):
        for t in tensors:
            if t.requires_grad:
                t.accumulate(g)

    return _node(out, tensors, bwd)


def scse_op(x, cw1, cb1, cw2, cb2, sw, sb):
    """Concurrent channel and spatial squeeze-excitation, summed.

    Channel branch: gate = sigmoid(W2 @ relu(W1 @ mean_t(x) + b1) + b2),
    scales each channel.  Spatial branch: gate = sigmoid(x @ w + b),
    scales each timestep.  Output is the elementwise sum of both scaled
    copies; with all-zero parameters both gates are 0.5 and the block is
    the identity.  Fused into one node with a hand-derived backward.
    """
    params = (cw1, cb1, cw2, cb2, sw, sb)
    out, saved = _scse_raw(x.data, cw1.data, cb1.data, cw2.data, cb2.data, sw.data, sb.data)

    def bwd(g):
        grads, dx = _scse_grads(g, saved, cw1.data, cw2.data, sw.data, x.requires_grad)
        _accumulate((*params, x), (*grads, dx))

    return _node(out, (x, *params), bwd)


def _scse_raw(xd, cw1, cb1, cw2, cb2, sw, sb):
    """``scse_op`` of arrays: ``(out, saved)``; ``_scse_grads`` reads ``saved``."""
    T = xd.shape[0]
    z = np.add.reduce(xd, 0) / T
    u1 = z @ cw1 + cb1
    pos = u1 > 0.0
    h = np.where(pos, u1, 0.0)
    u2 = h @ cw2 + cb2
    s = _sigmoid_raw(u2)
    v = xd @ sw + sb
    q = _sigmoid_raw(v)
    out = xd * s
    out += np.multiply(xd, q[:, None])
    return out, (xd, z, pos, h, s, q)


def _scse_grads(g, saved, cw1, cw2, sw, need_x):
    """Gradients of ``_scse_raw`` for the output gradient ``g``: the
    parameters' ``(dcw1, dcb1, dcw2, dcb2, dsw, dsb)`` and ``dx``, which
    is None unless ``need_x``."""
    xd, z, pos, h, s, q = saved
    gxd = g * xd
    du2 = np.add.reduce(gxd, 0) * s * (1.0 - s)
    dh = cw2 @ du2
    du1 = np.where(pos, dh, 0.0)
    dv = np.add.reduce(gxd, 1) * q * (1.0 - q)
    grads = (z[:, None] * du1, du1, h[:, None] * du2, du2, xd.T @ dv,
             np.array(np.add.reduce(dv, None)))
    if not need_x:
        return grads, None
    gx = g * s + g * q[:, None]
    gx += (cw1 @ du1) / xd.shape[0]
    gx += dv[:, None] * sw
    return grads, gx


def _scse_packed(xd, cw1, cb1, cw2, cb2, sw, sb, segments):
    """``_scse_raw``'s output over a packed array; each trial gets its own
    channel gate."""
    u1 = _row_products(segments.means(xd), cw1)
    u1 += cb1
    h = np.where(u1 > 0.0, u1, 0.0)
    u2 = _row_products(h, cw2)
    u2 += cb2
    s = _sigmoid_raw(u2)
    v = np.zeros(xd.shape[0])
    for a, e in segments.bounds:
        np.matmul(xd[a:e], sw, out=v[a:e])
    v += sb
    q = _sigmoid_raw(v)
    out = s[segments.owner]
    out *= xd
    out += np.multiply(xd, q[:, None])
    return out


def add_noise(x, noise):
    """Shift by a fixed (non-differentiated) noise array."""
    out = x.data + noise

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g)

    return _node(out, (x,), bwd)


def activity_penalty(x, coeff):
    """Scalar penalty coeff * mean(x ** 2)."""
    out = _penalty_raw(x.data, coeff)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(_penalty_grad(x.data, coeff) * g)

    return _node(out, (x,), bwd)


# ---------------------------------------------------------------------------
# losses (scalar outputs)
# ---------------------------------------------------------------------------

_BCE_EPS = 1e-7


def _bce_raw(pd, t, weight):
    """Mean binary cross-entropy; targets lie in [0, 1].

    Predictions are clipped to [1e-7, 1 - 1e-7] before the logs; clipped
    entries receive zero gradient.
    """
    p = np.minimum(np.maximum(pd, _BCE_EPS), 1.0 - _BCE_EPS)
    inside = (pd > _BCE_EPS) & (pd < 1.0 - _BCE_EPS)
    n = p.size
    ll = t * np.log(p) + (1.0 - t) * np.log1p(-p)
    return np.array(-weight * float(np.add.reduce(ll, None) / n)), (t, p, inside, weight / n)


def _bce_grad(g, t, p, inside, scale):
    d = scale * (-t / p + (1.0 - t) / (1.0 - p))
    return g * d * inside


def _mse_raw(pd, t, weight):
    diff = pd - t
    n = max(diff.size, 1)
    value = np.array(weight * float(np.add.reduce(np.square(diff), None) / diff.size))
    return value, (2.0 * weight / n, diff)


def _mse_grad(g, scale, diff):
    return g * scale * diff


def _cosine_raw(pd, t, weight):
    """1 - cosine similarity between non-zero 1-D vectors; 0 iff parallel."""
    np_ = _norm(pd)
    nt = _norm(t)
    cos = float(np.dot(pd, t)) / (np_ * nt)
    return np.array(weight * (1.0 - cos)), (pd, t, np_, nt, cos, weight)


def _cosine_grad(g, pd, t, np_, nt, cos, weight):
    d = -(t / (np_ * nt) - cos * pd / (np_ * np_))
    return g * weight * d


def _norm(v):
    """Euclidean norm of a 1-D vector, computed as np.linalg.norm does."""
    return math.sqrt(float(v.dot(v)))


_LOSS_FNS = {"bce": (_bce_raw, _bce_grad), "mse": (_mse_raw, _mse_grad),
             "cosine": (_cosine_raw, _cosine_grad)}


def _loss_raw(kind, pd, target, weight):
    """A named loss of a prediction array: ``(value, grad, args)``, where
    ``grad(g, *args)`` is the prediction's gradient for the loss gradient
    ``g``.  The target has the prediction's shape."""
    if kind not in _LOSS_FNS:
        raise ValueError(f"loss kind must be one of {sorted(_LOSS_FNS)}, got '{kind}'")
    t = np.asarray(target, dtype=np.float64)
    raw, grad = _LOSS_FNS[kind]
    value, args = raw(pd, t, weight)
    return value, grad, args


def loss_eval(kind, pred, target, sample_weight=1.0):
    """Evaluate one of the named losses as a scalar graph node."""
    value, grad, args = _loss_raw(kind, pred.data, target, sample_weight)

    def bwd(g):
        if pred.requires_grad:
            pred.accumulate(grad(g, *args))

    return _node(value, (pred,), bwd)
