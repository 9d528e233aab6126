"""The tests' reference forward: a stack of layers on the tape.

The package runs every stack over plain arrays (``layers.forward_stack``
with a ``Recorder`` in training, and with a ``PackedEval`` in
``forward_packed`` for eval).
``forward`` runs the same stack as tape ops, one per layer op
(``tz.conv1d``, ``tz.selu``, ``tz.activity_penalty``, ...), so its values
are the reference outputs and ``tz.backward`` of a loss over them gives
the reference gradients.  Both are compared with the package's bit for
bit.

``TrainingLoop`` sets up a stage's training loop the way
``training._run_training`` does, from the data the stage hands it, and
stops before the first step, so a test can drive the production step
function (``training._step``) one step at a time.
"""

import inspect
from unittest import mock

import pytest

import skillseq.tensor as tz
import skillseq.training as training
from skillseq.layers import _scse_params


def leaves(params, grads=None):
    """Tensor leaves over the arrays of ``params``; with ``grads``, each
    leaf takes part in the gradient, which accumulates into the array of
    the same name."""
    out = {}
    for name, arr in params.items():
        t = tz.Tensor(arr, requires_grad=grads is not None)
        if grads is not None:
            t.grad = grads[name]
        out[name] = t
    return out


def forward(specs, params, x, penalties=None, rng=None, activity_l2=0.0, captures=None):
    """The stack over the Tensor ``x`` with Tensor ``params`` (see
    ``leaves``).  With ``rng`` (training) the noise layer draws its noise
    from it; without, it passes its input on (eval).  With
    ``activity_l2 > 0`` the penalty node of every convolution output is
    appended to ``penalties``, in conv order.  ``captures``, a dict, takes
    the input of the ``gap`` layer as ``"pre_gap"``."""
    out = x
    for i, spec in enumerate(specs):
        pfx = f"{i}."
        kind = spec.kind
        if kind == "conv1d":
            out = _conv(out, params, pfx + "w", pfx + "b", spec.dilation, penalties,
                        activity_l2)
        elif kind == "dense":
            out = tz.dense(out, params[pfx + "w"], params[pfx + "b"])
        elif kind == "selu":
            out = tz.selu(out)
        elif kind == "sigmoid":
            out = tz.sigmoid(out)
        elif kind == "softmax":
            out = tz.softmax(out)
        elif kind == "gap":
            if captures is not None:
                captures["pre_gap"] = out
            out = tz.gap(out)
        elif kind == "scse":
            out = tz.scse_op(out, *_scse_params(params, pfx))
        elif kind == "residual-scse-block":
            h = tz.selu(_conv(out, params, pfx + "c1w", pfx + "c1b", spec.dilation, penalties,
                              activity_l2))
            h = tz.scse_op(h, *_scse_params(params, pfx + "s1"))
            h = tz.selu(_conv(h, params, pfx + "c2w", pfx + "c2b", spec.dilation, penalties,
                              activity_l2))
            out = tz.scse_op(tz.add(h, out), *_scse_params(params, pfx + "s2"))
        elif kind == "gaussian-noise":
            if rng is not None and spec.sigma > 0.0:
                out = tz.add_noise(out, rng.normal(0.0, spec.sigma, size=out.data.shape))
    return out


class _Stop(Exception):
    pass


class TrainingLoop:
    """The loop ``train(*args)`` would run, stopped before its first step.

    ``data`` holds the arguments the stage passes to
    ``training._run_training``; ``flat`` (``training._FlatParams``) and
    ``train_indices`` (``training._val_split``) are built from them as
    that loop builds them, and ``config`` is the stage's recipe.
    """

    def __init__(self, train, *args):
        bound, signature = {}, inspect.signature(training._run_training)

        def capture(*a, **kw):
            call = signature.bind(*a, **kw)
            call.apply_defaults()
            bound.update(call.arguments)
            raise _Stop

        with mock.patch.object(training, "_run_training", side_effect=capture), \
                pytest.raises(_Stop):
            train(*args)
        self.data = bound
        self.config = bound["config"]
        self.flat = training._FlatParams(bound["groups"])
        self.train_indices, _ = training._val_split(
            range(len(bound["inputs"])), bound["strata"], self.config.val_fraction,
            bound["seed"])

    def step_args(self, i):
        """The arguments of ``training._step`` for a step on trial ``i``."""
        d = self.data
        return (d["specs"], self.flat, d["inputs"][i], d["targets"][i], d["weights"][i],
                d["loss"], self.config.l2, d["noise_rng"])


def _conv(x, params, wn, bn, dilation, penalties, activity_l2):
    out = tz.conv1d(x, params[wn], params[bn], dilation)
    if activity_l2 > 0.0:
        penalties.append(tz.activity_penalty(out, activity_l2))
    return out
