"""Layer catalog: declarative specs, initialization, and stack forward.

A network is an ordered tuple of ``LayerSpec`` values plus a flat
``{name: ndarray}`` parameter mapping.  Parameter names are
``"<layer_index>.<field>"`` within a stack; bundles prefix them with the
group name (``"encoder/0.w"``).

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

import numpy as np

from . import tensor as tz

__all__ = [
    "LayerSpec",
    "KINDS",
    "init_stack_params",
    "forward_stack",
    "Recorder",
    "PackedEval",
    "forward_packed",
    "is_kernel_param",
]

KINDS = (
    "conv1d",
    "dense",
    "selu",
    "sigmoid",
    "softmax",
    "gap",
    "scse",
    "residual-scse-block",
    "gaussian-noise",
)


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    Unused fields stay at their defaults for kinds that do not need them
    (activations carry no dimensions at all).
    """

    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 1
    dilation: int = 1
    reduction: int = 2
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind '{self.kind}'")
        if self.kind in ("conv1d", "dense"):
            if self.in_channels < 1 or self.out_channels < 1:
                raise ValueError(
                    f"{self.kind} needs in_channels and out_channels >= 1, "
                    f"got {self.in_channels} and {self.out_channels}"
                )
        if self.kind in ("conv1d", "residual-scse-block"):
            if self.kernel_size < 1 or self.kernel_size % 2 == 0:
                raise ValueError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
            if self.dilation < 1:
                raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.kind in ("scse", "residual-scse-block"):
            c = self.in_channels
            if c < 1:
                raise ValueError(f"{self.kind} needs in_channels >= 1, got {c}")
            if self.reduction < 1 or c % self.reduction != 0:
                raise ValueError(
                    f"reduction {self.reduction} must divide channel count {c}"
                )
        if self.kind == "gaussian-noise" and self.sigma < 0.0:
            raise ValueError(f"noise sigma must be >= 0, got {self.sigma}")


def _scse_shapes(c, r):
    mid = c // r
    return {
        "cw1": (c, mid),
        "cb1": (mid,),
        "cw2": (mid, c),
        "cb2": (c,),
        "sw": (c,),
        "sb": (),
    }


def _spec_param_shapes(spec):
    if spec.kind == "conv1d":
        return {
            "w": (spec.kernel_size, spec.in_channels, spec.out_channels),
            "b": (spec.out_channels,),
        }
    if spec.kind == "dense":
        return {"w": (spec.in_channels, spec.out_channels), "b": (spec.out_channels,)}
    if spec.kind == "scse":
        return _scse_shapes(spec.in_channels, spec.reduction)
    if spec.kind == "residual-scse-block":
        c, k = spec.in_channels, spec.kernel_size
        shapes = {"c1w": (k, c, c), "c1b": (c,), "c2w": (k, c, c), "c2b": (c,)}
        for tag in ("s1", "s2"):
            for name, shp in _scse_shapes(c, spec.reduction).items():
                shapes[f"{tag}{name}"] = shp
        return shapes
    return {}


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
        for name, shp in _spec_param_shapes(spec).items():
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
    """Run a stack of layers over the array ``x``.

    ``params`` maps ``"<i>.<field>"`` to arrays.  ``mode`` computes each
    op: a ``Recorder`` (training: ``x`` is one (T, C) trial, and each op's
    backward is recorded) or a ``PackedEval`` (eval: ``x`` is packed in its
    layout).  ``grads`` maps the parameter names to the arrays the
    recorded backward adds their gradients into, or is None when nothing
    trains.
    """
    for i, spec in enumerate(specs):
        pfx = f"{i}."
        kind = spec.kind
        if kind == "conv1d":
            if x.ndim != 2 or x.shape[1] != spec.in_channels:
                raise ValueError(f"layer {i} (conv1d) expects (T, {spec.in_channels}), "
                                 f"got {x.shape}")
            x = mode.conv(x, params, grads, pfx + "w", pfx + "b", spec.dilation)
        elif kind == "dense":
            x = mode.dense(x, params, grads, pfx)
        elif kind == "selu":
            x = mode.selu(x)
        elif kind == "sigmoid":
            x = mode.sigmoid(x)
        elif kind == "softmax":
            x = mode.softmax(x)
        elif kind == "gap":
            x = mode.gap(x)
        elif kind == "scse":
            x = mode.scse(x, params, grads, pfx)
        elif kind == "residual-scse-block":
            skip = mode.fork(x)
            h = mode.conv(x, params, grads, pfx + "c1w", pfx + "c1b", spec.dilation)
            h = mode.scse(mode.selu(h), params, grads, pfx + "s1")
            h = mode.selu(mode.conv(h, params, grads, pfx + "c2w", pfx + "c2b", spec.dilation))
            x = mode.scse(mode.join(h, x, skip), params, grads, pfx + "s2")
        elif kind == "gaussian-noise":
            x = mode.noise(x, spec.sigma)
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
    """Widest zero padding any convolution in ``specs`` reads."""
    return max((s.kernel_size // 2 * s.dilation for s in specs
                if s.kind in ("conv1d", "residual-scse-block")), default=0)


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

