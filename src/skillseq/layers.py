"""Layer kinds: their table, declarative specs, initialization, ops and stack forward.

A network is an ordered tuple of ``LayerSpec`` values plus a flat
``{name: ndarray}`` parameter mapping.  Parameter names are
``"<layer_index>.<field>"`` within a stack; bundles prefix them with the
group name (``"encoder/0.w"``).

``KINDS`` is the one catalog of layer kinds (see ``Kind``): whatever
needs a kind's fields, flow, parameter shapes or forward step reads it.

Each formula lives once, in a module-level function over float64 numpy
arrays, grouped by op: ``_<op>_raw`` computes an op's one-trial forward
(with what its backward reads), ``_<op>_grad``/``_<op>_grads`` its
backward, and ``_<op>_packed`` its forward over packed trials where that
differs.  The ops use ``np.add.reduce`` and ``np.minimum``/``np.maximum``
where ``mean``, ``sum`` and ``clip`` would compute the same bits through
more Python, since a training step runs one sample at a time and its
cost is the number of numpy calls.  The reference tape (``tensor``)
calls the same functions.

``forward_stack`` is the one walk over a stack's layers; its ``mode``
computes each op.  Training runs each stack with a ``Recorder`` as its
mode: it calls the one-trial forwards on plain arrays and records each
op's backward with the arrays it reads; ``Recorder.backward`` runs them
in reverse, adding each parameter's gradient into the array that
``grads`` maps its name to.  ``gradcheck`` checks this same recorded
backward against finite differences.

``forward_packed`` is the eval forward: it packs trials along time, one
after another, in chunks of at most ``PACK_ROWS`` rows and runs
``forward_stack`` with a ``PackedEval``, the mode that holds the chunk's
row layout, on plain arrays in that layout; ``_conv_packed``,
``_scse_packed``, ``PackedEval.means`` and ``_row_products`` run an op
over every trial of such an array.  Each trial's result equals, byte for
byte, that of the one-trial op: every BLAS call and every reduction runs
once per trial on exactly the one-trial operands (their bits depend on
the operand shapes); only elementwise arithmetic spans the packed array.  One rule pads every
convolution, packed or not: ``_taps`` writes 0 wherever a tap falls
outside its trial.  At the 890-2,048 rows of a long trial or a chunk,
``np.where`` and fresh arrays of 100 KB or more (new memory to fault in)
cost more than the arithmetic, so SELU runs in place (``_selu_inplace``,
the bits of ``_selu_raw``), the sCSE combine makes two temporaries
instead of four, and each ``forward_packed`` call builds every trial's
taps in one flat array, sized up front for its longest trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

__all__ = ["LayerSpec", "KINDS", "param_shapes", "init_stack_params", "forward_stack",
           "Recorder", "PackedEval", "forward_packed", "is_kernel_param"]

# what flows between layers: each trial's (T, C) sequence, or after a
# pooling layer one vector per trial
SEQUENCE, VECTOR = "a sequence", "one vector per trial"


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    A kind reads only its ``KINDS[kind].fields``; every other field must
    stay at its default (activations carry no dimensions at all).
    """

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 1
    dilation: int = 1
    reduction: int = 2
    sigma: float = 0.0

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown layer kind '{self.kind}'")
        for name, least in _LEAST.items():
            value = getattr(self, name)
            if name not in kind.fields:
                default = getattr(LayerSpec, name)
                if value != default:
                    raise ValueError(f"{self.kind} does not read {name}, which must stay "
                                     f"{default}, got {value}")
            elif not value >= least:
                raise ValueError(f"{self.kind} needs {name} >= {least}, got {value}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if "reduction" in kind.fields and self.in_channels % self.reduction != 0:
            raise ValueError(f"reduction {self.reduction} must divide channel count "
                             f"{self.in_channels}")


# the least valid value of each field a kind may read
_LEAST = {"in_channels": 1, "out_channels": 1, "kernel_size": 1, "dilation": 1,
          "reduction": 1, "sigma": 0.0}


@dataclass(frozen=True)
class Kind:
    """One layer kind of ``KINDS``.  ``fields`` are the ``LayerSpec``
    fields it reads; ``takes`` holds what may flow into it (``SEQUENCE``,
    ``VECTOR`` or both); ``step(mode, x, spec, params, grads, pfx)`` is
    its step of ``forward_stack``, computed by ``mode``'s ops;
    ``shapes(spec)`` gives its parameters' shapes (None: it has none);
    ``pools`` marks the kind that turns a sequence into one vector."""

    fields: tuple
    takes: tuple
    step: Callable
    shapes: Callable | None = None
    pools: bool = False


def _add_grads(views, grads):
    """Add each gradient into its view."""
    for view, d in zip(views, grads):
        view += d


# --- conv1d: zero 'same' padding, centered odd kernel ---

def _conv_matrix(wd):
    """The (C_in * K, C_out) matrix of a (K, C_in, C_out) kernel that the
    taps multiply: row ``c*K + k`` holds ``wd[k, c]``."""
    K, cin = wd.shape[:2]
    return wd[0] if K == 1 else wd.transpose(1, 0, 2).reshape(cin * K, -1)


def _taps(x, s, e, K, dilation, out):
    """Write the taps of the trial in rows ``s:e`` of ``x`` into the
    (e - s, C_in * K) array ``out`` and return it: ``out[t, c*K + k] =
    x[s + t + (k - K//2) * dilation, c]`` where that row lies in the
    trial, else 0.  This is the one place a convolution's zero padding is
    written: the first and last ``min((K // 2) * dilation, e - s)`` rows
    are zeroed, then each tap writes its rows inside the trial."""
    n = e - s
    reach = (K // 2) * dilation
    r = reach if reach < n else n
    out[:r] = 0.0
    out[n - r:] = 0.0
    for k, o in enumerate(range(-reach, reach + 1, dilation)):
        if o < 0:
            if -o < n:
                out[-o:, k::K] = x[s:e + o]
        elif o < n:
            out[:n - o, k::K] = x[s + o:e]
    return out


def _conv_raw(xd, wd, bd, dilation):
    """The convolution of a (T, C_in) trial by a (K, C_in, C_out) kernel:
    ``(out, taps, w2)``, where

        out[t, o] = bd[o] + sum_{k, c} xd[t + (k - K//2) * dilation, c] * wd[k, c, o]

    with out-of-range input read as zero (``_taps``); ``_conv_grads``
    reads the taps and the kernel matrix ``w2``, the operands of the one
    BLAS matmul."""
    T, cin = xd.shape
    K = wd.shape[0]
    w2 = _conv_matrix(wd)
    taps2 = xd if K == 1 else _taps(xd, 0, T, K, dilation, np.empty((T, cin * K)))
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


def _conv_back(g, taps, w2, K, dilation, views, need_x):
    dw, db, dx = _conv_grads(g, taps, w2, K, dilation, need_x)
    _add_grads(views, (dw, db))
    return dx


def _conv_packed(xd, wd, bd, dilation, layout):
    """``_conv_raw``'s output over an array packed in ``layout`` (a
    ``PackedEval``), one trial at a time: each trial's taps are built by
    ``_taps`` in the layout's tap storage, so the taps and the matmul are
    the one-trial call's."""
    K = wd.shape[0]
    w2 = _conv_matrix(wd)
    out = np.empty((xd.shape[0], w2.shape[1]))
    if K > 1:
        buf = layout.taps[:layout.longest * w2.shape[0]].reshape(layout.longest, -1)
    for s, e in layout.bounds:
        taps = xd[s:e] if K == 1 else _taps(xd, s, e, K, dilation, buf[:e - s])
        np.matmul(taps, w2, out=out[s:e])
    out += bd
    return out


# the activity penalty of a convolution output: coeff * mean(x ** 2)

def _penalty_raw(xd, coeff):
    return np.array(coeff * float(np.add.reduce(np.square(xd), None) / xd.size))


def _penalty_grad(xd, coeff):
    """Gradient of ``_penalty_raw(xd, coeff)``; the chain rule multiplies
    it by the penalty's gradient, which is 1 for a term of the loss."""
    return (2.0 * coeff / xd.size) * xd


def _penalty_back(g, xd, l2):
    """The gradient of a convolution's output: its consumer's plus its
    activity penalty's, a term of the loss."""
    return g + _penalty_grad(xd, l2)


# --- dense: (C_in,) @ (C_in, C_out) + (C_out,) ---

def _dense_raw(xd, wd, bd):
    return xd @ wd + bd


def _dense_grads(g, xd, wd, need_x):
    """``(dw, db, dx)`` of ``_dense_raw``; ``dx`` is None unless ``need_x``."""
    return xd[:, None] * g, g, (wd @ g if need_x else None)


def _dense_back(g, xd, w, views, need_x):
    dw, db, dx = _dense_grads(g, xd, w, need_x)
    _add_grads(views, (dw, db))
    return dx


def _row_products(rows, w):
    """``rows[i] @ w`` for each row, one vector-matrix product per row."""
    out = np.empty((rows.shape[0], w.shape[1]))
    for i, row in enumerate(rows):
        np.matmul(row, w, out=out[i])
    return out


# --- activations and pooling ---

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


def _sigmoid_raw(xd):
    # bounding keeps exp finite; exact for |x| < 500
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(xd, -500.0), 500.0)))


def _sigmoid_grad(g, out):
    return g * out * (1.0 - out)


def _softmax_raw(v):
    """Softmax over a 1-D vector."""
    e = np.exp(v - np.maximum.reduce(v))
    return e / np.add.reduce(e)


def _softmax_grad(g, out):
    return out * (g - np.dot(g, out))


def _gap_raw(xd):
    """Global average over time: (T, C) -> (C,)."""
    return np.add.reduce(xd, 0) / xd.shape[0]


def _gap_grad(g, xd):
    """Gradient of ``_gap_raw(xd)``: ``g / T`` on every row."""
    gx = np.empty_like(xd)
    gx[:] = g / xd.shape[0]
    return gx


# --- sCSE: concurrent channel and spatial squeeze-excitation, summed ---

_SCSE_FIELDS = ("cw1", "cb1", "cw2", "cb2", "sw", "sb")


def _scse_params(p, pfx):
    return [p[pfx + name] for name in _SCSE_FIELDS]


def _scse_raw(xd, cw1, cb1, cw2, cb2, sw, sb):
    """The sCSE block of a (T, C) trial: ``(out, saved)``;
    ``_scse_grads`` reads ``saved``.

    Channel branch: gate = sigmoid(W2 @ relu(W1 @ mean_t(x) + b1) + b2),
    scales each channel.  Spatial branch: gate = sigmoid(x @ w + b),
    scales each timestep.  Output is the elementwise sum of both scaled
    copies; with all-zero parameters both gates are 0.5 and the block is
    the identity."""
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
    parameters' ``dcw1, dcb1, dcw2, dcb2, dsw, dsb``, then ``dx``, which
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
        return (*grads, None)
    gx = g * s + g * q[:, None]
    gx += (cw1 @ du1) / xd.shape[0]
    gx += dv[:, None] * sw
    return (*grads, gx)


def _scse_back(g, saved, p, views, need_x):
    *grads, dx = _scse_grads(g, saved, p[0], p[2], p[4], need_x)
    _add_grads(views, grads)
    return dx


def _scse_packed(xd, cw1, cb1, cw2, cb2, sw, sb, layout):
    """``_scse_raw``'s output over an array packed in ``layout``; each
    trial gets its own channel gate."""
    u1 = _row_products(layout.means(xd), cw1)
    u1 += cb1
    h = np.where(u1 > 0.0, u1, 0.0)
    u2 = _row_products(h, cw2)
    u2 += cb2
    s = _sigmoid_raw(u2)
    v = np.empty(xd.shape[0])
    for a, e in layout.bounds:
        np.matmul(xd[a:e], sw, out=v[a:e])
    v += sb
    q = _sigmoid_raw(v)
    out = s[layout.owner]
    out *= xd
    out += np.multiply(xd, q[:, None])
    return out


# --- losses (scalar outputs) ---

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


def _sum_raw(arrays):
    """Sum of same-shaped arrays, added left to right."""
    out = arrays[0].copy()
    for a in arrays[1:]:
        out = out + a
    return out


# --- the kinds ---

def _scse_shapes(spec, tag=""):
    c, mid = spec.in_channels, spec.in_channels // spec.reduction
    return {f"{tag}cw1": (c, mid), f"{tag}cb1": (mid,), f"{tag}cw2": (mid, c),
            f"{tag}cb2": (c,), f"{tag}sw": (c,), f"{tag}sb": ()}


def _residual_shapes(spec):
    c, k = spec.in_channels, spec.kernel_size
    return {"c1w": (k, c, c), "c1b": (c,), "c2w": (k, c, c), "c2b": (c,),
            **_scse_shapes(spec, "s1"), **_scse_shapes(spec, "s2")}


def _conv_step(mode, x, spec, params, grads, pfx):
    return mode.conv(x, params, grads, pfx + "w", pfx + "b", spec.dilation)


def _residual_scse_step(mode, x, spec, params, grads, pfx):
    """conv, SELU, sCSE, conv, SELU, then sCSE of the branch plus the
    block's input (Roy, Navab and Wachinger 2018, arXiv:1803.02579)."""
    skip = mode.fork(x)
    h = mode.conv(x, params, grads, pfx + "c1w", pfx + "c1b", spec.dilation)
    h = mode.scse(mode.selu(h), params, grads, pfx + "s1")
    h = mode.selu(mode.conv(h, params, grads, pfx + "c2w", pfx + "c2b", spec.dilation))
    return mode.scse(mode.join(h, x, skip), params, grads, pfx + "s2")


# in this order, gradcheck's operations and their seeds
KINDS = {
    "conv1d": Kind(("in_channels", "out_channels", "kernel_size", "dilation"), (SEQUENCE,),
                   _conv_step, lambda s: {"w": (s.kernel_size, s.in_channels, s.out_channels),
                                          "b": (s.out_channels,)}),
    "dense": Kind(("in_channels", "out_channels"), (VECTOR,),
                  lambda mode, x, spec, *a: mode.dense(x, *a),
                  lambda s: {"w": (s.in_channels, s.out_channels), "b": (s.out_channels,)}),
    "selu": Kind((), (SEQUENCE, VECTOR), lambda mode, x, *_: mode.selu(x)),
    "sigmoid": Kind((), (SEQUENCE, VECTOR), lambda mode, x, *_: mode.sigmoid(x)),
    "softmax": Kind((), (VECTOR,), lambda mode, x, *_: mode.softmax(x)),
    "gap": Kind((), (SEQUENCE,), lambda mode, x, *_: mode.gap(x), pools=True),
    "scse": Kind(("in_channels", "reduction"), (SEQUENCE,),
                 lambda mode, x, spec, *a: mode.scse(x, *a), _scse_shapes),
    "residual-scse-block": Kind(("in_channels", "kernel_size", "dilation", "reduction"),
                                (SEQUENCE,), _residual_scse_step, _residual_shapes),
    "gaussian-noise": Kind(("sigma",), (SEQUENCE,),
                           lambda mode, x, spec, *_: mode.noise(x, spec.sigma)),
}


def param_shapes(spec):
    """``{field: shape}`` of the layer ``spec``'s parameters, in draw order."""
    shapes = KINDS[spec.kind].shapes
    return shapes(spec) if shapes else {}


def _lecun_normal(rng, shape, fan_in):
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)


def is_kernel_param(name):
    """Multiplicative weights contain 'w' in their field name; biases never do."""
    return "w" in name.rsplit("/", 1)[-1].split(".")[-1]


def init_stack_params(specs, rng):
    """LeCun-normal kernels (std 1/sqrt(fan_in)), zero biases.

    Draw order follows spec order then field order, so a fixed rng stream
    yields identical parameters on every run.
    """
    params = {}
    for i, spec in enumerate(specs):
        for name, shp in param_shapes(spec).items():
            key = f"{i}.{name}"
            if is_kernel_param(name):
                fan_in = shp[0] * shp[1] if len(shp) == 3 else shp[0]
                params[key] = _lecun_normal(rng, shp, fan_in)
            else:
                params[key] = np.zeros(shp)
    return params


def forward_stack(specs, params, x, mode, grads=None):
    """Run a stack of layers over the array ``x``: each layer's kind's
    step (``KINDS``).

    ``params`` maps ``"<i>.<field>"`` to arrays.  ``mode`` computes each
    op: a ``Recorder`` (training: ``x`` is one (T, C) trial, and each op's
    backward is recorded) or a ``PackedEval`` (eval: ``x`` is packed in its
    layout).  ``grads`` maps the parameter names to the arrays a
    ``Recorder``'s backward adds their gradients into; a ``PackedEval``
    reads none.
    """
    for i, spec in enumerate(specs):
        x = KINDS[spec.kind].step(mode, x, spec, params, grads, f"{i}.")
    return x


class Recorder:
    """The training mode of ``forward_stack``: each op runs on plain
    arrays, and its backward is recorded.

    Each entry of ``ops`` is ``(backward, args)``: ``backward(g,
    *args)`` adds the op's parameter gradients into their gradient arrays
    with ``+=`` (the ``_FlatParams`` gradient views) and returns the
    gradient of the op's input.  ``args`` are the arrays that backward
    reads.  Every op is recorded; the first computes no input gradient.
    ``rng`` draws the noise layer's noise; with ``activity_l2 > 0`` the
    activity penalty of every convolution output goes to ``penalties``.

    ``backward`` runs the entries in reverse.  A value that feeds two
    places (a residual block's input, a convolution's output and its
    activity penalty) gets the sum of its two gradient terms, the same in
    either order, so every gradient has the tape's bits.  The one value
    with three terms, a penalized convolution's output that is a residual
    block's input, sums them in the tape's order (see ``fork``).
    """

    train = True

    def __init__(self, rng=None, activity_l2=0.0):
        self.rng = rng
        self.activity_l2 = activity_l2
        self.ops = []
        self.penalties = []     # activity penalty values, in conv order
        self.loss = None
        self._loss_grad = None

    def add(self, backward, *args):
        self.ops.append((backward, args))

    def set_loss(self, kind, pred, target, weight):
        """Record the named loss of ``pred``; ``loss`` is it plus the
        activity penalties, added left to right."""
        value, grad, args = _loss_raw(kind, pred, target, weight)
        self.loss = _sum_raw([value] + self.penalties) if self.penalties else value
        self._loss_grad = grad, args

    def backward(self, g=None):
        """Add d(loss)/d(parameter) into every trained parameter's
        gradient array.  ``g``, the gradient of the last op's output,
        defaults to the loss's; a loss that is not ``set_loss``'s passes
        its own.  Returns what the first recorded op returns: the gradient
        of its input, or None if that op computes none.

        Each entry is popped before it runs, so ``ops`` is empty after the
        call and the step's taps, activations and masks are freed as the
        backward passes them.  Every caller runs it once per recorded
        forward: the training loop, ``gradcheck``, and the steps that
        ``tests/test_stack_pass.py`` replays on ``tests/tape.py``."""
        if g is None:
            grad, args = self._loss_grad
            g = grad(1.0, *args)
        ops = self.ops
        while ops:
            backward, args = ops.pop()
            g = backward(g, *args)
        return g

    def conv(self, x, params, grads, wn, bn, dilation):
        """The convolution by the parameters named ``wn`` and ``bn``; with
        ``activity_l2 > 0`` the penalty of its output goes to the loss, and
        its gradient is recorded after the conv."""
        w = params[wn]
        out, taps, w2 = _conv_raw(x, w, params[bn], dilation)
        self.add(_conv_back, taps, w2, w.shape[0], dilation, (grads[wn], grads[bn]),
                 bool(self.ops))
        l2 = self.activity_l2
        if l2 > 0.0:
            self.penalties.append(_penalty_raw(out, l2))
            self.add(_penalty_back, out, l2)
        return out

    def dense(self, x, params, grads, pfx):
        w = params[pfx + "w"]
        self.add(_dense_back, x, w, (grads[pfx + "w"], grads[pfx + "b"]), bool(self.ops))
        return _dense_raw(x, w, params[pfx + "b"])

    def scse(self, x, params, grads, pfx):
        p = _scse_params(params, pfx)
        out, saved = _scse_raw(x, *p)
        self.add(_scse_back, saved, p, _scse_params(grads, pfx), bool(self.ops))
        return out

    def selu(self, x):
        out, neg, ex = _selu_raw(x)
        self.add(_selu_grad, neg, ex)
        return out

    def sigmoid(self, x):
        out = _sigmoid_raw(x)
        self.add(_sigmoid_grad, out)
        return out

    def softmax(self, x):
        out = _softmax_raw(x)
        self.add(_softmax_grad, out)
        return out

    def gap(self, x):
        self.add(_gap_grad, x)
        return _gap_raw(x)

    def noise(self, x, sigma):
        """Gaussian noise; its backward hands the gradient on unchanged,
        so nothing is recorded."""
        if sigma > 0.0:
            x = x + self.rng.normal(0.0, sigma, size=x.shape)
        return x

    def fork(self, x):
        """A residual block's input, ``x``, gets the gradient of the branch
        and that of the skip path, which ``_split`` keeps for ``_join``.
        When ``x`` is a penalized convolution's output, it has a third
        term, its penalty's; the tape adds that to the skip path's term
        before the branch's, so ``_join`` takes the penalty over from the
        convolution.  Returns the skip path's store; a block always follows
        a recorded op (a convolution, or gradcheck's identity entry)."""
        skip, pen = [], None
        last = self.ops[-1]
        if last[0] is _penalty_back and last[1][0] is x:
            pen = self.ops.pop()[1]
        self.add(_join, skip, pen)
        return skip

    def join(self, h, x, skip):
        """The block's branch ``h`` plus its input ``x``."""
        self.add(_split, skip)
        return h + x


def _split(g, skip):
    """The gradient of ``h + x``: kept for the skip path, handed to the branch."""
    skip.append(g)
    return g


def _join(g, skip, pen):
    s = skip.pop()
    if pen is not None:
        s = _penalty_back(s, *pen)
    return g + s


class PackedEval:
    """The eval mode of ``forward_stack``, and the row layout of its
    (rows, C) array: trials packed along time, one after another, where
    trial ``i`` occupies rows ``bounds[i] = (start, end)`` and ``owner``
    maps each row to its trial.  Convolutions build each trial's taps in
    ``taps``, flat storage that holds ``longest`` rows of the widest tap
    row.  Each array passed on is this forward's own, so SELU and the
    residual add run in place.  ``gap`` leaves one row per trial, which
    ``dense`` and ``softmax`` map row by row, and stores its input in
    ``captures["pre_gap"]``; noise passes its input on.  Every row
    belongs to a trial, and a convolution reads 0 outside its trial
    (``_taps``) whatever the rows around it hold, so no op writes
    padding."""

    train = False

    def __init__(self, lengths, taps):
        starts = [0, *accumulate(lengths)]
        self.bounds = list(zip(starts, starts[1:]))
        self.longest = max(lengths)
        self.lengths = np.array(lengths, dtype=np.float64)[:, None]
        self.owner = np.repeat(np.arange(len(lengths)), lengths)
        self.taps = taps
        self.captures = {}

    def means(self, xd):
        """Per-trial means over time of a packed (rows, C) array: (n, C)."""
        out = np.empty((len(self.bounds), xd.shape[1]))
        for i, (s, e) in enumerate(self.bounds):
            np.add.reduce(xd[s:e], 0, out=out[i])
        out /= self.lengths
        return out

    def conv(self, x, params, grads, wn, bn, dilation):
        return _conv_packed(x, params[wn], params[bn], dilation, self)

    def dense(self, x, params, grads, pfx):
        x = _row_products(x, params[pfx + "w"])
        x += params[pfx + "b"]
        return x

    def scse(self, x, params, grads, pfx):
        return _scse_packed(x, *_scse_params(params, pfx), self)

    def selu(self, x):
        return _selu_inplace(x)

    def sigmoid(self, x):
        return _sigmoid_raw(x)

    def softmax(self, x):
        return np.array([_softmax_raw(row) for row in x])

    def gap(self, x):
        self.captures["pre_gap"] = x
        return self.means(x)

    def noise(self, x, sigma):
        return x

    def fork(self, x):
        return None

    def join(self, h, x, skip):
        h += x
        return h


# Rows per packed forward.  Packing saves per-call overhead, which stops
# mattering long before this; the bound keeps the work arrays small.
PACK_ROWS = 2048


def forward_packed(stacks, values, capture=False):
    """Eval-mode forward of ``stacks``, a sequence of ``(specs, params)``
    run in order, over each (T_i, C) array in ``values``; ``params`` maps
    ``"<i>.<field>"`` to arrays.

    Trials are packed along time, one after another, in chunks of at
    most ``PACK_ROWS`` rows (a longer trial runs alone, as a chunk of
    one); a convolution's taps read zero wherever they fall outside their
    trial (``_taps``).  Returns the per-trial outputs, equal byte for byte
    to those of each trial run alone; with ``capture``, also the per-trial
    ``"pre_gap"`` activations (``(outputs, pre_gaps)``).  Outputs may be
    views into a chunk's arrays.
    """
    longest = max(map(len, values), default=0)
    widest = max([spec.in_channels * spec.kernel_size for specs, _ in stacks
                  for spec in specs if spec.kernel_size > 1], default=0)
    taps = np.empty(longest * widest)
    outs, pre_gaps = [], []
    i = 0
    while i < len(values):
        j, rows = i + 1, values[i].shape[0]
        while j < len(values) and rows + values[j].shape[0] <= PACK_ROWS:
            rows += values[j].shape[0]
            j += 1
        mode = PackedEval(list(map(len, values[i:j])), taps)
        x = np.concatenate(values[i:j])
        for specs, params in stacks:
            x = forward_stack(specs, params, x, mode)
        outs.extend(list(x) if "pre_gap" in mode.captures else [x[s:e] for s, e in mode.bounds])
        if capture:
            pre_gap = mode.captures["pre_gap"]
            pre_gaps.extend([pre_gap[s:e] for s, e in mode.bounds])
        i = j
    return (outs, pre_gaps) if capture else outs
