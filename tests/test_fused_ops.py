"""Tape ordering, and the in-place SELU of packed eval forwards.

``tz.topo_order`` leaves leaves out of the backward walk, and
``layers._selu_inplace`` must give the bytes of ``layers._selu_raw``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import skillseq.layers as layers
import skillseq.tensor as tz


def test_backward_order_leaves_out_leaves():
    rng = np.random.default_rng(5)
    x, w, b = (tz.parameter(rng.normal(size=shape)) for shape in ((8, 2), (3, 2, 3), (3,)))
    pre = tz.conv1d(x, w, b, 1)
    loss = tz.add_n([tz.loss_eval("mse", tz.selu(pre), rng.normal(size=(8, 3))),
                     tz.activity_penalty(pre, 0.3)])
    order = tz.topo_order(loss)
    assert order[-1] is loss
    assert all(node.bwd is not None for node in order)


# packed eval forwards compute SELU in place, without ``np.where``

SELU_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308,
              -2.2250738585072014e-308, np.inf, -np.inf, -745.0, -746.0, 745.0, 1e300,
              -1e300, 1e-300, -1e-300, np.nan, 1.0, -1.0]


def _selu_bits(x):
    return layers._selu_raw(x)[0].view(np.uint64)


def test_in_place_selu_matches_selu_raw_on_edge_values():
    x = np.array(SELU_EDGES)
    got = layers._selu_inplace(x.copy())
    assert np.array_equal(got.view(np.uint64), _selu_bits(x))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_in_place_selu_matches_selu_raw(values):
    x = np.array(values, dtype=np.float64)
    c = x.copy()
    with np.errstate(over="ignore"):   # λx overflows near the largest doubles
        got = layers._selu_inplace(c)
        want = _selu_bits(x)
    assert got is c
    assert np.array_equal(got.view(np.uint64), want)
