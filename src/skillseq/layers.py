"""Layer catalog: declarative specs, initialization, and stack forward.

A network is an ordered tuple of ``LayerSpec`` values plus a flat
``{name: ndarray}`` parameter mapping.  Parameter names are
``"<layer_index>.<field>"`` within a stack; bundles prefix them with the
group name (``"encoder/0.w"``).

``forward_packed`` runs stacks over many trials at once: it packs them
along time in chunks of at most ``PACK_ROWS`` rows and passes the layout
to the tensor ops on ``ForwardContext.segments`` (see ``tensor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .tensor import Tensor

__all__ = [
    "LayerSpec",
    "KINDS",
    "init_stack_params",
    "forward_stack",
    "ForwardContext",
    "forward_packed",
    "is_kernel_param",
    "wrap_params",
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
    """Side outputs of a forward pass.

    ``activity`` collects per-conv-output penalty terms, in conv order,
    when ``activity_l2 > 0``; ``captures`` records named intermediate
    tensors (the input of each ``gap`` layer is stored under ``"pre_gap"``).
    ``segments`` is the row layout of a packed forward (``tz.Segments``),
    which runs in eval mode without penalties.
    """

    train: bool = False
    rng: object = None
    activity_l2: float = 0.0
    activity: list = field(default_factory=list)
    captures: dict = field(default_factory=dict)
    segments: object = None

    def _note_conv_out(self, t):
        if self.activity_l2 > 0.0:
            self.activity.append(tz.activity_penalty(t, self.activity_l2))

    def _conv_selu(self, x, w, b, dilation):
        out, penalty = tz.conv1d_selu(x, w, b, dilation, self.activity_l2, self.segments)
        if penalty is not None:
            self.activity.append(penalty)
        return out


def _scse_forward(x, p, pfx, ctx):
    return tz.scse_op(x, p[pfx + "cw1"], p[pfx + "cb1"],
                      p[pfx + "cw2"], p[pfx + "cb2"],
                      p[pfx + "sw"], p[pfx + "sb"], ctx.segments)


def forward_stack(specs, params, x, ctx=None):
    """Run a stack of layers over input tensor x.

    ``params`` maps ``"<i>.<field>"`` to Tensor objects.  ``ctx`` carries
    train/eval mode, the noise generator, and side-output collection.
    A conv1d layer followed by a selu layer runs as one fused node
    (``tz.conv1d_selu``).
    """
    if ctx is None:
        ctx = ForwardContext()
    if ctx.segments is not None and (ctx.train or ctx.activity_l2 > 0.0):
        raise ValueError("a packed forward runs in eval mode without activity penalties")
    out = x
    fused = False
    for i, spec in enumerate(specs):
        if fused:  # this selu ran inside the conv before it
            fused = False
            continue
        pfx = f"{i}."
        kind = spec.kind
        if kind == "conv1d":
            if out.data.ndim != 2 or out.data.shape[1] != spec.in_channels:
                raise ValueError(
                    f"layer {i} (conv1d) expects (T, {spec.in_channels}), "
                    f"got {out.data.shape}"
                )
            w, b = params[pfx + "w"], params[pfx + "b"]
            fused = i + 1 < len(specs) and specs[i + 1].kind == "selu"
            if fused:
                out = ctx._conv_selu(out, w, b, spec.dilation)
            else:
                out = tz.conv1d(out, w, b, spec.dilation, ctx.segments)
                ctx._note_conv_out(out)
        elif kind == "dense":
            out = tz.dense(out, params[pfx + "w"], params[pfx + "b"])
        elif kind == "selu":
            out = tz.selu(out)
        elif kind == "sigmoid":
            out = tz.sigmoid(out)
        elif kind == "softmax":
            out = tz.softmax(out)
        elif kind == "gap":
            ctx.captures["pre_gap"] = out
            out = tz.gap(out, ctx.segments)
        elif kind == "scse":
            out = _scse_forward(out, params, pfx, ctx)
        elif kind == "residual-scse-block":
            h = ctx._conv_selu(out, params[pfx + "c1w"], params[pfx + "c1b"], spec.dilation)
            h = _scse_forward(h, params, pfx + "s1", ctx)
            h = ctx._conv_selu(h, params[pfx + "c2w"], params[pfx + "c2b"], spec.dilation)
            out = _scse_forward(tz.add(h, out), params, pfx + "s2", ctx)
        elif kind == "gaussian-noise":
            if ctx.train and spec.sigma > 0.0:
                if ctx.rng is None:
                    raise ValueError("gaussian-noise layer needs an rng in train mode")
                out = tz.add_noise(out, ctx.rng.normal(0.0, spec.sigma, size=out.data.shape))
        else:  # pragma: no cover - guarded by LayerSpec validation
            raise ValueError(f"unknown layer kind '{kind}'")
    return out


# Rows per packed forward.  Packing saves per-call overhead, which stops
# mattering long before this; the bound keeps the work arrays small.
PACK_ROWS = 2048


def _reach(specs):
    """Widest zero padding any convolution in ``specs`` reads."""
    return max((s.kernel_size // 2 * s.dilation for s in specs
                if s.kind in ("conv1d", "residual-scse-block")), default=0)


def forward_packed(stacks, values, capture=False):
    """Eval-mode forward of ``stacks``, a sequence of ``(specs, params)``
    run in order, over each (T_i, C) array in ``values``.

    Trials are packed along time in chunks of at most ``PACK_ROWS`` rows
    (a longer trial runs alone) between zero halos as wide as the widest
    convolution reach; a chunk of one trial runs unpacked.  Returns the
    per-trial outputs, equal byte for byte to one ``forward_stack`` pass
    per trial; with ``capture``, also the per-trial ``"pre_gap"``
    activations (``(outputs, pre_gaps)``).  Outputs may be views into a
    chunk's arrays.
    """
    halo = max(_reach(specs) for specs, _ in stacks)
    taps = tz.TapBuffer()
    outs, pre_gaps = [], []
    i = 0
    while i < len(values):
        j, rows = i + 1, values[i].shape[0]
        while j < len(values) and rows + halo + values[j].shape[0] <= PACK_ROWS:
            rows += halo + values[j].shape[0]
            j += 1
        chunk = values[i:j]
        segments = tz.Segments([v.shape[0] for v in chunk], halo, taps) if j - i > 1 else None
        ctx = ForwardContext(segments=segments)
        x = tz.constant(segments.pack(chunk) if segments else chunk[0])
        for specs, params in stacks:
            x = forward_stack(specs, params, x, ctx)
        pre_gap = ctx.captures["pre_gap"].data if capture else None
        if segments is None:
            outs.append(x.data)
            pre_gaps.append(pre_gap)
        else:
            gapped = "pre_gap" in ctx.captures
            outs.extend(list(x.data) if gapped else segments.unpack(x.data))
            if capture:
                pre_gaps.extend(segments.unpack(pre_gap))
        i = j
    return (outs, pre_gaps) if capture else outs


def wrap_params(arrays, requires_grad=True):
    """Lift a {name: ndarray} mapping into Tensor leaves (shared storage)."""
    out = {}
    for name, arr in arrays.items():
        t = Tensor(arr, requires_grad=requires_grad)
        out[name] = t
    return out
