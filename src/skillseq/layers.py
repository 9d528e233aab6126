"""Layer kinds: their table, declarative specs, initialization, and stack forward.

A network is an ordered tuple of ``LayerSpec`` values plus a flat
``{name: ndarray}`` parameter mapping.  Parameter names are
``"<layer_index>.<field>"`` within a stack; bundles prefix them with the
group name (``"encoder/0.w"``).

``KINDS`` is the one catalog of layer kinds (see ``Kind``): whatever
needs a kind's fields, flow, parameter shapes or forward step reads it.

``forward_stack`` is the one walk over a stack's layers; its ``mode``
computes each op.  ``forward_packed`` is the eval forward: it packs
trials along time in chunks of at most ``PACK_ROWS`` rows and runs
``forward_stack`` with a ``PackedEval`` on plain arrays in that layout
(see ``tensor``).

Training runs each stack with a ``Recorder`` as its mode: it calls the
tensor module's array functions (``tz._<op>_raw``) on plain arrays and
records each op's backward (``tz._<op>_grad``) with the arrays it
reads; ``Recorder.backward`` runs them in reverse, adding each
parameter's gradient into the array that ``grads`` maps its name to.
``gradcheck`` checks this same recorded backward against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as tz

__all__ = [
    "LayerSpec",
    "KINDS",
    "param_shapes",
    "init_stack_params",
    "forward_stack",
    "Recorder",
    "PackedEval",
    "forward_packed",
    "is_kernel_param",
]

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


def _scse_shapes(spec, tag=""):
    c, mid = spec.in_channels, spec.in_channels // spec.reduction
    return {f"{tag}cw1": (c, mid), f"{tag}cb1": (mid,), f"{tag}cw2": (mid, c),
            f"{tag}cb2": (c,), f"{tag}sw": (c,), f"{tag}sb": ()}


def _residual_shapes(spec):
    c, k = spec.in_channels, spec.kernel_size
    return {"c1w": (k, c, c), "c1b": (c,), "c2w": (k, c, c), "c2b": (c,),
            **_scse_shapes(spec, "s1"), **_scse_shapes(spec, "s2")}


def _conv_step(mode, x, spec, params, grads, pfx):
    if x.ndim != 2 or x.shape[1] != spec.in_channels:
        raise ValueError(f"layer {pfx[:-1]} (conv1d) expects (T, {spec.in_channels}), "
                         f"got {x.shape}")
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


_SCSE_FIELDS = ("cw1", "cb1", "cw2", "cb2", "sw", "sb")


def _scse_params(p, pfx):
    return [p[pfx + name] for name in _SCSE_FIELDS]


def forward_stack(specs, params, x, mode, grads=None):
    """Run a stack of layers over the array ``x``: each layer's kind's
    step (``KINDS``).

    ``params`` maps ``"<i>.<field>"`` to arrays.  ``mode`` computes each
    op: a ``Recorder`` (training: ``x`` is one (T, C) trial, and each op's
    backward is recorded) or a ``PackedEval`` (eval: ``x`` is packed in its
    layout).  ``grads`` maps the parameter names to the arrays the
    recorded backward adds their gradients into, or is None when nothing
    trains.
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
        value, grad, args = tz._loss_raw(kind, pred, target, weight)
        self.loss = tz._sum_raw([value] + self.penalties) if self.penalties else value
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
        out, taps, w2 = tz._conv_raw(x, w, params[bn], dilation)
        views = None if grads is None else (grads[wn], grads[bn])
        self.add(_conv_back, taps, w2, w.shape[0], dilation, views, bool(self.ops))
        l2 = self.activity_l2
        if l2 > 0.0:
            self.penalties.append(tz._penalty_raw(out, l2))
            self.add(_penalty_back, out, l2)
        return out

    def dense(self, x, params, grads, pfx):
        w = params[pfx + "w"]
        views = None if grads is None else (grads[pfx + "w"], grads[pfx + "b"])
        self.add(_dense_back, x, w, views, bool(self.ops))
        return tz._dense_raw(x, w, params[pfx + "b"])

    def scse(self, x, params, grads, pfx):
        p = _scse_params(params, pfx)
        out, saved = tz._scse_raw(x, *p)
        views = None if grads is None else _scse_params(grads, pfx)
        self.add(_scse_back, saved, p, views, bool(self.ops))
        return out

    def selu(self, x):
        out, neg, ex = tz._selu_raw(x)
        self.add(tz._selu_grad, neg, ex)
        return out

    def sigmoid(self, x):
        out = tz._sigmoid_raw(x)
        self.add(tz._sigmoid_grad, out)
        return out

    def softmax(self, x):
        out = tz._softmax_raw(x)
        self.add(tz._softmax_grad, out)
        return out

    def gap(self, x):
        self.add(tz._gap_grad, x)
        return tz._gap_raw(x)

    def noise(self, x, sigma):
        """Gaussian noise; its backward hands the gradient on unchanged,
        so nothing is recorded."""
        if sigma > 0.0:
            if self.rng is None:
                raise ValueError("gaussian-noise layer needs an rng in train mode")
            x = x + self.rng.normal(0.0, sigma, size=x.shape)
        return x

    def fork(self, x):
        """A residual block's input, ``x``, gets the gradient of the branch
        and that of the skip path, which ``_split`` keeps for ``_join``.
        When ``x`` is a penalized convolution's output, it has a third
        term, its penalty's; the tape adds that to the skip path's term
        before the branch's, so ``_join`` takes the penalty over from the
        convolution.  Returns the skip path's store, or None when the
        block is the first op, whose input needs no gradient."""
        if not self.ops:
            return None
        skip, pen = [], None
        last = self.ops[-1]
        if last[0] is _penalty_back and last[1][0] is x:
            pen = self.ops.pop()[1]
        self.add(_join, skip, pen)
        return skip

    def join(self, h, x, skip):
        """The block's branch ``h`` plus its input ``x``."""
        if skip is not None:
            self.add(_split, skip)
        return h + x


def _add_grads(views, grads):
    """Add each gradient into its view; an op of a stack without gradient
    arrays has no views (None)."""
    if views is not None:
        for view, d in zip(views, grads):
            view += d


def _conv_back(g, taps, w2, K, dilation, views, need_x):
    dw, db, dx = tz._conv_grads(g, taps, w2, K, dilation, need_x)
    _add_grads(views, (dw, db))
    return dx


def _penalty_back(g, xd, l2):
    """The gradient of a convolution's output: its consumer's plus its
    activity penalty's, a term of the loss."""
    return g + tz._penalty_grad(xd, l2)


def _dense_back(g, xd, w, views, need_x):
    dw, db, dx = tz._dense_grads(g, xd, w, need_x)
    _add_grads(views, (dw, db))
    return dx


def _scse_back(g, saved, p, views, need_x):
    grads, dx = tz._scse_grads(g, saved, p[0], p[2], p[4], need_x)
    _add_grads(views, grads)
    return dx


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
    """The eval mode of ``forward_stack``, over a (rows, C) array packed
    in ``segments`` (a ``tz.Segments``).  Each array passed on is this
    forward's own, so SELU and the residual add run in place.  ``gap``
    leaves one row per trial, which ``dense`` and ``softmax`` map row by
    row, and stores its input in ``captures["pre_gap"]``; noise passes
    its input on."""

    train = False

    def __init__(self, segments):
        self.segments = segments
        self.captures = {}

    def conv(self, x, params, grads, wn, bn, dilation):
        return tz._conv_packed(x, params[wn], params[bn], dilation, self.segments)

    def dense(self, x, params, grads, pfx):
        x = tz._row_products(x, params[pfx + "w"])
        x += params[pfx + "b"]
        return x

    def scse(self, x, params, grads, pfx):
        return tz._scse_packed(x, *_scse_params(params, pfx), self.segments)

    def selu(self, x):
        return tz._selu_inplace(x)

    def sigmoid(self, x):
        x = tz._sigmoid_raw(x)
        if "pre_gap" not in self.captures:  # sigmoid(0) is 0.5; a conv reads halos as 0
            x[self.segments.halo_rows] = 0.0
        return x

    def softmax(self, x):
        return np.array([tz._softmax_raw(row) for row in x])

    def gap(self, x):
        self.captures["pre_gap"] = x
        return self.segments.means(x)

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


def _reach(specs):
    """Widest zero padding any convolution in ``specs`` reads.  A kind
    that reads no ``kernel_size`` keeps it at 1, which reaches nothing."""
    return max([s.kernel_size // 2 * s.dilation for s in specs], default=0)


def forward_packed(stacks, values, capture=False):
    """Eval-mode forward of ``stacks``, a sequence of ``(specs, params)``
    run in order, over each (T_i, C) array in ``values``; ``params`` maps
    ``"<i>.<field>"`` to arrays.

    Trials are packed along time in chunks of at most ``PACK_ROWS`` rows
    (a longer trial runs alone) between zero halos as wide as the widest
    convolution reach, but no wider than the longest trial: a tap that
    reaches further reads only padding (see ``tz._conv_packed``).  A chunk
    of one trial is laid out the same way.  Returns the per-trial outputs,
    equal byte for byte to those of each trial run alone; with
    ``capture``, also the per-trial ``"pre_gap"`` activations
    (``(outputs, pre_gaps)``).  Outputs may be views into a chunk's arrays.
    """
    halo = min(max(_reach(specs) for specs, _ in stacks), max(map(len, values), default=0))
    taps = tz.TapBuffer()
    outs, pre_gaps = [], []
    i = 0
    while i < len(values):
        j, rows = i + 1, values[i].shape[0]
        while j < len(values) and rows + halo + values[j].shape[0] <= PACK_ROWS:
            rows += halo + values[j].shape[0]
            j += 1
        chunk = values[i:j]
        segments = tz.Segments([v.shape[0] for v in chunk], halo, taps)
        mode = PackedEval(segments)
        x = segments.pack(chunk)
        for specs, params in stacks:
            x = forward_stack(specs, params, x, mode)
        gapped = "pre_gap" in mode.captures
        outs.extend(list(x) if gapped else segments.unpack(x))
        if capture:
            pre_gaps.extend(segments.unpack(mode.captures["pre_gap"]))
        i = j
    return (outs, pre_gaps) if capture else outs

