"""Forward-value oracles for the differentiable ops.

Every op is checked against an independent computation: either a hand
calculation small enough to verify on paper or a straightforward numpy
reimplementation that shares no code with the graph version.
"""

import numpy as np
import pytest

import skillseq.tensor as tz

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


def const(a):
    return tz.Tensor(a)


# --- convolution ---


def naive_conv1d(x, w, b, dilation=1):
    """Direct loop evaluation of dilated same-padded convolution."""
    T, _ = x.shape
    K, _, co = w.shape
    half = (K - 1) // 2
    out = np.zeros((T, co))
    for t in range(T):
        for k in range(K):
            src = t + (k - half) * dilation
            if 0 <= src < T:
                out[t] += x[src] @ w[k]
    return out + b


@pytest.mark.parametrize("T,ci,co,K,dil", [
    (7, 1, 1, 3, 1), (9, 2, 3, 5, 1), (11, 3, 2, 5, 2),
    (5, 4, 4, 1, 1), (6, 2, 2, 3, 3), (1, 2, 2, 5, 1),
])
def test_conv1d_matches_naive(T, ci, co, K, dil):
    rng = np.random.default_rng(hash((T, ci, co, K, dil)) % 2**32)
    x = rng.normal(size=(T, ci))
    w = rng.normal(size=(K, ci, co))
    b = rng.normal(size=co)
    got = tz.conv1d(const(x), const(w), const(b), dilation=dil).data
    np.testing.assert_allclose(got, naive_conv1d(x, w, b, dil), atol=1e-12)


def test_conv1d_identity_kernel():
    x = np.arange(12.0).reshape(6, 2)
    w = np.zeros((3, 2, 2))
    w[1] = np.eye(2)
    got = tz.conv1d(const(x), const(w), const(np.zeros(2))).data
    np.testing.assert_array_equal(got, x)


def test_conv1d_hand_case():
    # x = [1, 2, 3], kernel [1, 1, 1]: zero-padded sums [3, 6, 5]
    x = np.array([[1.0], [2.0], [3.0]])
    w = np.ones((3, 1, 1))
    got = tz.conv1d(const(x), const(w), const(np.zeros(1))).data
    np.testing.assert_array_equal(got[:, 0], [3.0, 6.0, 5.0])


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ValueError):
        tz.conv1d(const(np.zeros((4, 1))), const(np.zeros((2, 1, 1))),
                  const(np.zeros(1)))


# --- pointwise activations ---


def test_selu_constants():
    x = np.array([[-1.0, 0.0, 1.0, 2.5]])
    got = tz.selu(const(x)).data
    want = np.where(x > 0, SELU_LAMBDA * x,
                    SELU_LAMBDA * SELU_ALPHA * (np.exp(x) - 1.0))
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert got[0, 1] == 0.0
    assert got[0, 2] == pytest.approx(SELU_LAMBDA)


def test_sigmoid_values():
    x = np.array([[0.0, np.log(3.0), -np.log(3.0)]])
    got = tz.sigmoid(const(x)).data
    np.testing.assert_allclose(got, [[0.5, 0.75, 0.25]], atol=1e-15)


def test_sigmoid_saturates_without_overflow():
    got = tz.sigmoid(const(np.array([[1e4, -1e4]]))).data
    assert got[0, 0] == pytest.approx(1.0)
    assert got[0, 1] == pytest.approx(0.0)
    assert np.all(np.isfinite(got))


def test_softmax_matches_direct():
    x = np.array([1.0, 2.0, 3.0])
    got = tz.softmax(const(x)).data
    want = np.exp(x - x.max())
    want /= want.sum()
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert got.sum() == pytest.approx(1.0)


def test_gap_is_time_mean():
    x = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
    np.testing.assert_allclose(tz.gap(const(x)).data, [3.0, 20.0])


def test_add_and_add_n():
    a, b, c = (np.full((2, 2), v) for v in (1.0, 2.0, 4.0))
    np.testing.assert_array_equal(tz.add(const(a), const(b)).data, a + b)
    np.testing.assert_array_equal(
        tz.add_n([const(a), const(b), const(c)]).data, a + b + c)


# --- channel and time gating ---


def naive_scse(x, cw1, cb1, cw2, cb2, sw, sb):
    """Channel gate from the GAP summary, spatial gate per timestep,
    output is the sum of the two gated copies."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))
    z = x.mean(axis=0)
    ch = sig(np.maximum(z @ cw1 + cb1, 0.0) @ cw2 + cb2)
    sp = sig(x @ sw + sb)
    return x * ch + x * sp[:, None]


def test_scse_matches_naive():
    rng = np.random.default_rng(3)
    T, C, R = 9, 6, 3
    x = rng.normal(size=(T, C))
    cw1, cb1 = rng.normal(size=(C, R)), rng.normal(size=R)
    cw2, cb2 = rng.normal(size=(R, C)), rng.normal(size=C)
    sw, sb = rng.normal(size=C), rng.normal()
    got = tz.scse_op(const(x), const(cw1), const(cb1), const(cw2), const(cb2),
                     const(sw), const(np.asarray(sb))).data
    np.testing.assert_allclose(got, naive_scse(x, cw1, cb1, cw2, cb2, sw, sb),
                               atol=1e-12)


def test_scse_zero_params_is_identity():
    # both gates sigmoid(0) = 0.5; the summed copies reproduce the input
    x = np.random.default_rng(0).normal(size=(5, 4))
    zeros = [np.zeros(s) for s in [(4, 2), (2,), (2, 4), (4,), (4,), ()]]
    got = tz.scse_op(const(x), *[const(z) for z in zeros]).data
    np.testing.assert_allclose(got, x, atol=1e-15)


# --- losses ---


def test_bce_hand_case():
    pred = const(np.array([[0.9, 0.2]]))
    target = np.array([[1.0, 0.0]])
    want = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert tz.loss_eval("bce", pred, target).data == pytest.approx(want, rel=1e-12)


def test_bce_clips_extreme_predictions():
    pred = const(np.array([[0.0, 1.0]]))
    target = np.array([[1.0, 0.0]])
    want = -np.log(1e-7)
    assert tz.loss_eval("bce", pred, target).data == pytest.approx(want, rel=1e-9)


def test_mse_hand_case():
    pred = const(np.array([[1.0, 2.0], [3.0, 5.0]]))
    target = np.array([[0.0, 2.0], [3.0, 1.0]])
    assert tz.loss_eval("mse", pred, target).data == pytest.approx(17.0 / 4.0)


def test_cosine_loss_alignment_extremes():
    v = np.array([1.0, 2.0, 3.0])
    assert tz.loss_eval("cosine", const(v), v).data == pytest.approx(0.0, abs=1e-12)
    assert tz.loss_eval("cosine", const(v), -v).data == pytest.approx(2.0, rel=1e-12)
    w = np.array([-2.0, 1.0, 0.0])
    assert v @ w == 0.0
    assert tz.loss_eval("cosine", const(v), w).data == pytest.approx(1.0, rel=1e-12)


def test_sample_weight_scales_losses():
    rng = np.random.default_rng(7)
    pred = const(rng.uniform(0.1, 0.9, size=(3, 2)))
    target = (rng.uniform(size=(3, 2)) > 0.5).astype(float)
    for kind in ("bce", "mse"):
        base = tz.loss_eval(kind, pred, target).data
        scaled = tz.loss_eval(kind, pred, target, sample_weight=2.5).data
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_loss_eval_dispatch_and_rejection():
    pred = const(np.array([0.3, 0.7]))
    target = np.array([0.0, 1.0])
    assert tz.loss_eval("mse", pred, target).data == pytest.approx(0.09)
    with pytest.raises(ValueError, match="loss kind"):
        tz.loss_eval("hinge", pred, target)


def test_activity_penalty_value():
    x = np.array([[1.0, -2.0], [3.0, 0.0]])
    got = tz.activity_penalty(const(x), 0.5).data
    assert got == pytest.approx(0.5 * np.mean(x ** 2))


def test_add_noise_is_plain_addition():
    """The noise is added, and the gradient passes through unchanged."""
    x = tz.parameter(np.arange(8.0).reshape(4, 2))
    noise = np.random.default_rng(1).normal(size=(4, 2))
    out = tz.add_noise(x, noise)
    np.testing.assert_array_equal(out.data, x.data + noise)
    tz.backward(tz.activity_penalty(out, 1.0))
    np.testing.assert_array_equal(x.grad, (2.0 / out.data.size) * out.data)


# --- graph mechanics ---


def test_backward_accumulates_shared_input():
    x = tz.parameter(np.array([[2.0]]))
    y = tz.add(x, x)
    s = tz.loss_eval("mse", y, np.array([[0.0]]))
    tz.backward(s)
    # d/dx mean((2x)^2) = 8x = 16
    assert x.grad[0, 0] == pytest.approx(16.0)


def test_constant_receives_no_gradient():
    x = tz.parameter(np.ones((2, 1)))
    c = tz.Tensor(np.ones((2, 1)))
    s = tz.loss_eval("mse", tz.add(x, c), np.zeros((2, 1)))
    tz.backward(s)
    assert c.grad is None
    assert x.grad is not None
