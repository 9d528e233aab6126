"""Layer catalog: declarative specs, initialization, and stack forward.

A network is an ordered tuple of ``LayerSpec`` values plus a flat
``{name: ndarray}`` parameter mapping.  Parameter names are
``"<layer_index>.<field>"`` within a stack; bundles prefix them with the
group name (``"encoder/0.w"``).

``forward_packed`` is the eval forward: it packs trials along time in
chunks of at most ``PACK_ROWS`` rows and runs ``forward_stack`` on plain
arrays in that layout (``ForwardContext.segments``; see ``tensor``).

Training runs each stack with a ``Recorder`` on the context:
``forward_stack`` calls the tensor module's array functions
(``tz._<op>_raw``) on plain arrays and records each op's backward
(``tz._<op>_grad``) with the arrays it reads; ``Recorder.backward`` runs
them in reverse, adding each parameter's gradient into the array that
``grads`` maps its name to.  ``gradcheck`` checks this same recorded
backward against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz

__all__ = [
    "LayerSpec",
    "KINDS",
    "init_stack_params",
    "forward_stack",
    "ForwardContext",
    "Recorder",
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

    def to_dict(self):
        return {
            "kind": self.kind,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "dilation": self.dilation,
            "reduction": self.reduction,
            "sigma": self.sigma,
        }

    @staticmethod
    def from_dict(d):
        return LayerSpec(**d)


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
            if "w" in name:
                fan_in = shp[0] * shp[1] if len(shp) == 3 else shp[0]
                params[key] = _lecun_normal(rng, shp, fan_in)
            else:
                params[key] = np.zeros(shp)
    return params


@dataclass
class ForwardContext:
    """Mode and side outputs of a forward pass.

    ``recorder`` (a ``Recorder``) makes a forward record its backward;
    the activity penalty of every convolution output, when
    ``activity_l2 > 0``, goes to the recorder.  ``segments`` (a
    ``tz.Segments``, set by ``forward_packed``) makes an eval forward run
    over trials packed in that layout; ``captures`` records named
    intermediate arrays (the input of each ``gap`` layer is stored under
    ``"pre_gap"``).
    """

    train: bool = False
    rng: object = None
    activity_l2: float = 0.0
    captures: dict = field(default_factory=dict)
    segments: object = None
    recorder: object = None


_SCSE_FIELDS = ("cw1", "cb1", "cw2", "cb2", "sw", "sb")


def _scse_params(p, pfx):
    return [p[pfx + name] for name in _SCSE_FIELDS]


def _check_conv_input(i, spec, shape):
    if len(shape) != 2 or shape[1] != spec.in_channels:
        raise ValueError(f"layer {i} (conv1d) expects (T, {spec.in_channels}), got {shape}")


def forward_stack(specs, params, x, ctx, grads=None):
    """Run a stack of layers over the (T, C) array ``x``.

    ``params`` maps ``"<i>.<field>"`` to arrays.  ``ctx`` carries
    train/eval mode, the noise generator, and side-output collection.
    With ``ctx.recorder`` (training, ``_forward_recorded``) the stack
    records its backward; ``grads`` maps the same names to the arrays
    its parameter gradients are added into, or is None for a frozen
    stack.  With ``ctx.segments`` (an eval forward, ``_forward_segments``)
    ``x`` is packed in that layout.
    """
    if ctx.recorder is not None:
        return _forward_recorded(specs, params, x, ctx, grads)
    if ctx.segments is None:
        raise ValueError("forward_stack needs a recorder or a packed layout")
    return _forward_segments(specs, params, x, ctx.segments, ctx.captures)


class Recorder:
    """The backward of a training forward, recorded op by op.

    Each entry of ``ops`` is ``(backward, args)``: ``backward(g,
    *args)`` adds the op's parameter gradients into their gradient arrays
    with ``+=`` (the ``_FlatParams`` gradient views) and returns the
    gradient of the op's input.  ``args`` are the arrays that backward
    reads.  An op is recorded when its input depends on a trained
    parameter (some op is recorded already) or its own parameters train
    (its stack has gradient arrays).

    ``backward`` runs the entries in reverse.  A value that feeds two
    places (a residual block's input, a convolution's output and its
    activity penalty) gets the sum of its two gradient terms, the same in
    either order, so every gradient has the tape's bits.  The one value
    with three terms, a penalized convolution's output that is a residual
    block's input, sums them in the tape's order (see ``_residual``).
    """

    def __init__(self):
        self.ops = []
        self.penalties = []     # activity penalty values, in conv order
        self.loss = None
        self._loss_grad = None

    def add(self, backward, *args, trains=False):
        """Record an op's backward if its input needs a gradient or ``trains``."""
        if trains or self.ops:
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
        of its input, or None if that op's input needs none."""
        if g is None:
            grad, args = self._loss_grad
            g = grad(1.0, *args)
        for backward, args in reversed(self.ops):
            g = backward(g, *args)
        return g


def _conv(rec, xd, params, grads, wn, bn, dilation, l2):
    """The convolution by the parameters named ``wn`` and ``bn``; with
    ``l2 > 0`` the penalty of its output goes to the recorder's loss, and
    its gradient is recorded after the conv."""
    w = params[wn]
    out, taps, w2 = tz._conv_raw(xd, w, params[bn], dilation)
    views = None if grads is None else (grads[wn], grads[bn])
    rec.add(_conv_back, taps, w2, w.shape[0], dilation, views, bool(rec.ops),
            trains=views is not None)
    if l2 > 0.0:
        rec.penalties.append(tz._penalty_raw(out, l2))
        rec.add(_penalty_back, out, l2)
    return out


def _add_grads(views, grads):
    """Add each gradient into its view; a frozen op has no views (None)."""
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


def _dense(rec, xd, params, grads, pfx):
    w = params[pfx + "w"]
    views = None if grads is None else (grads[pfx + "w"], grads[pfx + "b"])
    rec.add(_dense_back, xd, w, views, bool(rec.ops), trains=views is not None)
    return tz._dense_raw(xd, w, params[pfx + "b"])


def _dense_back(g, xd, w, views, need_x):
    dw, db, dx = tz._dense_grads(g, xd, w, need_x)
    _add_grads(views, (dw, db))
    return dx


def _scse(rec, xd, params, grads, pfx):
    p = _scse_params(params, pfx)
    out, saved = tz._scse_raw(xd, *p)
    views = None if grads is None else _scse_params(grads, pfx)
    rec.add(_scse_back, saved, p, views, bool(rec.ops), trains=views is not None)
    return out


def _scse_back(g, saved, p, views, need_x):
    grads, dx = tz._scse_grads(g, saved, p[0], p[2], p[4], need_x)
    _add_grads(views, grads)
    return dx


def _selu(rec, xd):
    out, neg, ex = tz._selu_raw(xd)
    rec.add(tz._selu_grad, neg, ex)
    return out


def _residual(rec, xd, params, grads, pfx, dilation, l2):
    """A residual sCSE block.  Its input gets the gradient of the branch
    and that of the skip path, which ``_split`` keeps for ``_join``.  When
    the input is a penalized convolution's output, it has a third term,
    its penalty's; the tape adds that to the skip path's term before the
    branch's, so ``_join`` takes the penalty over from the convolution."""
    skip, pen = [], None
    need_x = bool(rec.ops)
    if need_x:
        last = rec.ops[-1]
        if last[0] is _penalty_back and last[1][0] is xd:
            pen = rec.ops.pop()[1]
        rec.ops.append((_join, (skip, pen)))
    h = _conv(rec, xd, params, grads, pfx + "c1w", pfx + "c1b", dilation, l2)
    h = _scse(rec, _selu(rec, h), params, grads, pfx + "s1")
    h = _selu(rec, _conv(rec, h, params, grads, pfx + "c2w", pfx + "c2b", dilation, l2))
    if need_x:
        rec.ops.append((_split, (skip,)))
    return _scse(rec, h + xd, params, grads, pfx + "s2")


def _split(g, skip):
    """The gradient of ``h + x``: kept for the skip path, handed to the branch."""
    skip.append(g)
    return g


def _join(g, skip, pen):
    s = skip.pop()
    if pen is not None:
        s = _penalty_back(s, *pen)
    return g + s


def _forward_recorded(specs, params, xd, ctx, grads):
    """``forward_stack`` on plain arrays, recording each op's backward on
    ``ctx.recorder``.  The noise layer's backward hands its gradient on
    unchanged, so it records nothing."""
    rec, l2 = ctx.recorder, ctx.activity_l2
    for i, spec in enumerate(specs):
        pfx = f"{i}."
        kind = spec.kind
        if kind == "conv1d":
            _check_conv_input(i, spec, xd.shape)
            xd = _conv(rec, xd, params, grads, pfx + "w", pfx + "b", spec.dilation, l2)
        elif kind == "dense":
            xd = _dense(rec, xd, params, grads, pfx)
        elif kind == "selu":
            xd = _selu(rec, xd)
        elif kind == "sigmoid":
            xd = tz._sigmoid_raw(xd)
            rec.add(tz._sigmoid_grad, xd)
        elif kind == "softmax":
            xd = tz._softmax_raw(xd)
            rec.add(tz._softmax_grad, xd)
        elif kind == "gap":
            rec.add(tz._gap_grad, xd)
            xd = tz._gap_raw(xd)
        elif kind == "scse":
            xd = _scse(rec, xd, params, grads, pfx)
        elif kind == "residual-scse-block":
            xd = _residual(rec, xd, params, grads, pfx, spec.dilation, l2)
        elif kind == "gaussian-noise":
            if ctx.train and spec.sigma > 0.0:
                if ctx.rng is None:
                    raise ValueError("gaussian-noise layer needs an rng in train mode")
                xd = xd + ctx.rng.normal(0.0, spec.sigma, size=xd.shape)
        else:  # pragma: no cover - guarded by LayerSpec validation
            raise ValueError(f"unknown layer kind '{kind}'")
    return xd


def _forward_segments(specs, params, xd, segments, captures):
    """``forward_stack`` in eval mode over a (rows, C) array packed in
    ``segments``.  Each array passed on is this forward's own, so SELU and
    the residual add run in place.  ``gap`` leaves one row per trial, which
    ``dense`` and ``softmax`` map row by row; noise passes its input on."""
    for i, spec in enumerate(specs):
        pfx = f"{i}."
        kind = spec.kind
        if kind == "conv1d":
            _check_conv_input(i, spec, xd.shape)
            xd = tz._conv_packed(xd, params[pfx + "w"], params[pfx + "b"], spec.dilation,
                                 segments)
        elif kind == "dense":
            xd = tz._row_products(xd, params[pfx + "w"])
            xd += params[pfx + "b"]
        elif kind == "selu":
            tz._selu_inplace(xd)
        elif kind == "sigmoid":
            xd = tz._sigmoid_raw(xd)
            if "pre_gap" not in captures:  # sigmoid(0) is 0.5; a conv reads halos as 0
                xd[segments.halo_rows] = 0.0
        elif kind == "softmax":
            xd = np.array([tz._softmax_raw(row) for row in xd])
        elif kind == "gap":
            captures["pre_gap"] = xd
            xd = segments.means(xd)
        elif kind == "scse":
            xd = tz._scse_packed(xd, *_scse_params(params, pfx), segments)
        elif kind == "residual-scse-block":
            h = tz._conv_packed(xd, params[pfx + "c1w"], params[pfx + "c1b"], spec.dilation,
                                segments)
            h = tz._scse_packed(tz._selu_inplace(h), *_scse_params(params, pfx + "s1"), segments)
            h = tz._conv_packed(h, params[pfx + "c2w"], params[pfx + "c2b"], spec.dilation,
                                segments)
            tz._selu_inplace(h)
            h += xd
            xd = tz._scse_packed(h, *_scse_params(params, pfx + "s2"), segments)
    return xd


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
        ctx = ForwardContext(segments=segments)
        x = segments.pack(chunk)
        for specs, params in stacks:
            x = forward_stack(specs, params, x, ctx)
        gapped = "pre_gap" in ctx.captures
        outs.extend(list(x) if gapped else segments.unpack(x))
        if capture:
            pre_gaps.extend(segments.unpack(ctx.captures["pre_gap"]))
        i = j
    return (outs, pre_gaps) if capture else outs

