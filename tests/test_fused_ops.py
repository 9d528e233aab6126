"""The fused conv1d -> SELU node against the separate ops, bit for bit.

``tz.conv1d_selu`` must give the bytes of ``tz.conv1d`` followed by
``tz.selu``, plus ``tz.activity_penalty`` of the pre-activation: the
forward value, the penalty value and the gradients of x, w and b.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skillseq.tensor as tz


def _inputs(seed, T, cin, cout, K):
    rng = np.random.default_rng(seed)
    return (rng.normal(0.0, 1.0, size=(T, cin)),
            rng.normal(0.0, 1.0 / np.sqrt(K * cin), size=(K, cin, cout)),
            rng.normal(0.0, 0.3, size=cout),
            rng.normal(0.0, 1.0, size=(T, cout)))


def _separate(x, w, b, dilation, coeff, target, use_out=True, use_penalty=True):
    ts = [tz.parameter(a) for a in (x, w, b)]
    pre = tz.conv1d(*ts, dilation)
    out = tz.selu(pre)
    penalty = tz.activity_penalty(pre, coeff) if coeff > 0.0 else None
    return ts, out, penalty, _loss(out, penalty, target, use_out, use_penalty)


def _fused(x, w, b, dilation, coeff, target, use_out=True, use_penalty=True):
    ts = [tz.parameter(a) for a in (x, w, b)]
    out, penalty = tz.conv1d_selu(*ts, dilation, coeff)
    return ts, out, penalty, _loss(out, penalty, target, use_out, use_penalty)


def _loss(out, penalty, target, use_out, use_penalty):
    terms = [tz.loss_eval("mse", out, target)] if use_out else []
    if penalty is not None and use_penalty:
        terms.append(_scaled(penalty, 0.7))
    return tz.add_n(terms)


def _scaled(t, k):
    """k * t as a node, so the penalty's incoming gradient is not 1."""
    def bwd(g):
        t.accumulate(g * k)

    return tz.Tensor(k * t.data, requires_grad=t.requires_grad, parents=(t,),
                     bwd=bwd if t.requires_grad else None)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 40), cin=st.integers(1, 6),
       cout=st.integers(1, 6), K=st.sampled_from([1, 3, 5]), dilation=st.sampled_from([1, 2]),
       coeff=st.sampled_from([0.0, 1e-5, 0.3]))
def test_fused_node_matches_separate_ops_bit_for_bit(seed, T, cin, cout, K, dilation, coeff):
    x, w, b, target = _inputs(seed, T, cin, cout, K)
    ref_ts, ref_out, ref_pen, ref_loss = _separate(x, w, b, dilation, coeff, target)
    ts, out, pen, loss = _fused(x, w, b, dilation, coeff, target)
    assert (pen is None) == (coeff == 0.0)
    assert _bits(out.data) == _bits(ref_out.data)
    if pen is not None:
        assert _bits(pen.data) == _bits(ref_pen.data)
    tz.backward(ref_loss)
    tz.backward(loss)
    assert _bits(loss.data) == _bits(ref_loss.data)
    for name, got, want in zip("xwb", ts, ref_ts):
        assert _bits(got.grad) == _bits(want.grad), name


@pytest.mark.parametrize("use_out, use_penalty", [(True, False), (False, True)])
def test_fused_node_with_one_output_off_the_loss(use_out, use_penalty):
    # the gradient of whichever output is on the loss still reaches x, w and b
    x, w, b, target = _inputs(7, 12, 3, 4, 5)
    ref_ts, _, _, ref_loss = _separate(x, w, b, 2, 0.3, target, use_out, use_penalty)
    ts, _, _, loss = _fused(x, w, b, 2, 0.3, target, use_out, use_penalty)
    tz.backward(ref_loss)
    tz.backward(loss)
    for got, want in zip(ts, ref_ts):
        assert np.array_equal(got.grad, want.grad)


def test_fused_node_without_gradients_records_no_backward():
    x, w, b, _ = _inputs(3, 6, 2, 2, 3)
    out, pen = tz.conv1d_selu(tz.constant(x), tz.constant(w), tz.constant(b), 1, 0.3)
    assert not out.requires_grad and out.bwd is None
    assert not pen.requires_grad and pen.bwd is None


def test_backward_order_leaves_out_leaves():
    x, w, b, target = _inputs(5, 8, 2, 3, 3)
    _, _, _, loss = _fused(x, w, b, 1, 0.3, target)
    order = tz.topo_order(loss)
    assert order[-1] is loss
    assert all(node.bwd is not None for node in order)


# packed eval forwards compute SELU in place, without ``np.where``

SELU_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308,
              -2.2250738585072014e-308, np.inf, -np.inf, -745.0, -746.0, 745.0, 1e300,
              -1e300, 1e-300, -1e-300, np.nan, 1.0, -1.0]


def _selu_bits(x):
    return tz._selu_raw(x)[0].view(np.uint64)


def test_in_place_selu_matches_selu_raw_on_edge_values():
    x = np.array(SELU_EDGES)
    got = tz._selu_inplace(x.copy())
    assert np.array_equal(got.view(np.uint64), _selu_bits(x))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_in_place_selu_matches_selu_raw(values):
    x = np.array(values, dtype=np.float64)
    c = x.copy()
    with np.errstate(over="ignore"):   # λx overflows near the largest doubles
        got = tz._selu_inplace(c)
        want = _selu_bits(x)
    assert got is c
    assert np.array_equal(got.view(np.uint64), want)


@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("dilation", [1, 2])
def test_fused_node_on_constants_matches_the_tape_path(K, dilation):
    x, w, b, _ = _inputs(11, 23, 3, 4, K)
    x[0, 0], x[1, 1] = 40.0, -800.0   # saturated and underflowing exponentials
    out, pen = tz.conv1d_selu(tz.constant(x), tz.constant(w), tz.constant(b), dilation)
    ref, _ = tz.conv1d_selu(tz.parameter(x), tz.parameter(w), tz.parameter(b), dilation)
    assert pen is None and out.bwd is None and ref.bwd is not None
    assert _bits(out.data) == _bits(ref.data)
