"""Forward values, gradients, and SGD semantics of the tensor core."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mclkit.autodiff as ad
from mclkit.errors import ConfigurationError, NumericError, StateError

import conv_reference
from gradcheck import check_tensor_grad, numeric_grad, assert_grads_close

RNG = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(ad.softmax(ad.Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_large_logits_no_overflow():
    p = ad.softmax(ad.Tensor([1000.0, 1000.0])).data
    assert np.allclose(p, [0.5, 0.5])
    assert np.isfinite(p).all()


def test_relu_values():
    assert np.array_equal(ad.relu(ad.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_cross_entropy_perfect_prediction():
    assert float(ad.cross_entropy_onehot(ad.Tensor([0.0, 0.0, 1.0]), [0, 0, 1])) == 0.0


def test_cross_entropy_uniform():
    val = float(ad.cross_entropy_onehot(ad.Tensor([1 / 3, 1 / 3, 1 / 3]), [1, 0, 0]))
    assert val == pytest.approx(1.0986122886681098, abs=1e-12)


def test_cross_entropy_quarter():
    # independent oracle: -math.log(0.25) = 1.3862943611198906
    val = float(ad.cross_entropy_onehot(ad.Tensor([0.25, 0.75]), [1, 0]))
    assert val == pytest.approx(1.3862943611198906, abs=1e-12)


def test_cross_entropy_length_mismatch():
    with pytest.raises(ConfigurationError):
        ad.cross_entropy_onehot(ad.Tensor([0.5, 0.5]), [1, 0, 0])


def test_kl_to_onehot_matches_cross_entropy():
    rng = np.random.default_rng(7)
    for _ in range(100):
        logits = rng.normal(size=5)
        p = np.exp(logits) / np.exp(logits).sum()
        hot = np.zeros(5)
        hot[rng.integers(5)] = 1.0
        a = float(ad.kl_to_onehot(hot, ad.Tensor(p)))
        b = float(ad.cross_entropy_onehot(ad.Tensor(p), hot))
        assert a == b


def test_kl_to_onehot_exact_match_and_uniform():
    assert float(ad.kl_to_onehot([0, 0, 1], ad.Tensor([0.0, 0.0, 1.0]))) == 0.0
    uniform = ad.Tensor([1 / 3, 1 / 3, 1 / 3])
    assert float(ad.kl_to_onehot([0, 0, 1], uniform)) == pytest.approx(math.log(3), abs=1e-12)


def test_kl_uniform_zero_on_uniform():
    assert float(ad.kl_uniform_to(ad.Tensor([0.5, 0.5]))) == pytest.approx(0.0, abs=1e-12)


def test_kl_uniform_value():
    # independent oracle: 0.5*(log(0.5/0.75)+log(0.5/0.25)) = 0.14384103622589042
    val = float(ad.kl_uniform_to(ad.Tensor([0.75, 0.25])))
    assert val == pytest.approx(0.14384103622589042, abs=1e-12)


def test_kl_uniform_clamps_instead_of_nan():
    val = float(ad.kl_uniform_to(ad.Tensor([1.0 - 1e-15, 1e-15])))
    assert np.isfinite(val)
    assert val > 5.0


def test_kl_uniform_rejects_empty():
    with pytest.raises(ConfigurationError):
        ad.kl_uniform_to(ad.Tensor(np.zeros((0,))))


def test_dense_shape_mismatch():
    x = ad.Tensor(RNG.normal(size=(2, 3)))
    w = ad.Tensor(RNG.normal(size=(4, 5)))
    with pytest.raises(ConfigurationError):
        ad.dense(x, w)


def test_nonfinite_input_raises():
    with pytest.raises(NumericError):
        ad.Tensor([1.0, np.inf])
    x = ad.Tensor([1.0, 2.0])
    x.data[0] = np.nan  # corrupt in place, next op must catch it
    with pytest.raises(NumericError):
        ad.relu(x)


def test_conv2d_matches_scipy_correlate():
    from scipy.signal import correlate2d

    x = RNG.normal(size=(2, 3, 8, 8))
    w = RNG.normal(size=(4, 3, 3, 3))
    b = RNG.normal(size=4)
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
    for bi in range(2):
        for f in range(4):
            ref = sum(
                correlate2d(x[bi, c], w[f, c], mode="same") for c in range(3)
            ) + b[f]
            assert np.allclose(out[bi, f], ref, atol=1e-12)


def test_conv2d_rejects_bad_configs():
    x = ad.Tensor(RNG.normal(size=(1, 2, 4, 4)))
    w = ad.Tensor(RNG.normal(size=(3, 2, 3, 3)))
    with pytest.raises(ConfigurationError):
        ad.conv2d(x, w, stride=2)
    with pytest.raises(ConfigurationError):
        ad.conv2d(x, w, padding="valid")
    with pytest.raises(ConfigurationError):
        ad.conv2d(x, ad.Tensor(RNG.normal(size=(3, 5, 3, 3))))


# (C, F, H, k): the three member conv layers, then fusion's 1x1 projection.
CONV_SHAPES = [(1, 32, 16, 3), (32, 64, 8, 3), (64, 128, 4, 3), (64, 32, 16, 1)]
# The GEMM op sums in another order than the reference; float64 tolerance.
CONV_TOL = dict(rtol=1e-10, atol=1e-12)


def _conv_case(cin, f, size, k):
    """Input, kernel, bias and output gradient at batch 4."""
    rng = np.random.default_rng([cin, f, size, k])
    return (
        rng.normal(size=(4, cin, size, size)),
        ad.Tensor(rng.normal(size=(f, cin, k, k)), op="param"),
        ad.Tensor(rng.normal(size=f), op="param"),
        rng.normal(size=(4, f, size, size)),
    )


@pytest.mark.parametrize("cin,f,size,k", CONV_SHAPES)
def test_conv2d_matches_loop_reference(cin, f, size, k):
    x_data, w, b, g = _conv_case(cin, f, size, k)
    x = ad.Tensor(x_data, op="param")
    out = ad.conv2d(x, w, b)
    ad.mul(out, g).sum().backward()
    gx, gw, gb = conv_reference.conv2d_backward(x.data, w.data, g)
    np.testing.assert_allclose(
        out.data, conv_reference.conv2d_forward(x.data, w.data, b.data), **CONV_TOL
    )
    np.testing.assert_allclose(x.grad, gx, **CONV_TOL)
    np.testing.assert_allclose(w.grad, gw, **CONV_TOL)
    np.testing.assert_allclose(b.grad, gb, **CONV_TOL)


@pytest.mark.parametrize("x_op", ["const", "input"])
def test_conv2d_computes_no_gradient_into_input_batches(x_op):
    x_data, w, b, g = _conv_case(1, 32, 16, 3)
    x = ad.as_tensor(x_data) if x_op == "const" else ad.Tensor(x_data, op="input")
    assert not x.requires_grad
    out = ad.conv2d(x, w, b)
    assert all(parent is not x for parent in out.parents)
    ad.mul(out, g).sum().backward()
    assert x.grad is None
    _, gw, gb = conv_reference.conv2d_backward(x_data, w.data, g)
    np.testing.assert_allclose(w.grad, gw, **CONV_TOL)
    np.testing.assert_allclose(b.grad, gb, **CONV_TOL)


def test_requires_grad_only_off_for_constants_and_inputs():
    assert not ad.as_tensor(np.ones(2)).requires_grad
    assert not ad.Tensor(np.ones(2), op="input").requires_grad
    assert ad.Tensor(np.ones(2)).requires_grad
    assert ad.Tensor(np.ones(2), op="param").requires_grad
    assert ad.relu(ad.as_tensor(np.ones(2))).requires_grad


def test_maxpool_matches_bruteforce():
    x = RNG.normal(size=(2, 3, 6, 4))
    out = ad.maxpool2x2(ad.Tensor(x)).data
    for b in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(2):
                    assert out[b, c, i, j] == x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()


def test_maxpool_ties_route_gradient_to_first_max():
    # One 2x2 window per channel, listed in (0,0), (0,1), (1,0), (1,1) order,
    # with the position of the first maximum in that order.
    windows = [
        ([5.0, 5.0, 1.0, 2.0], 0),  # two maxima
        ([1.0, 3.0, 3.0, 0.0], 1),
        ([1.0, 2.0, 4.0, 4.0], 2),
        ([6.0, 6.0, 6.0, 1.0], 0),  # three maxima
        ([0.0, 7.0, 7.0, 7.0], 1),
        ([2.0, 2.0, 2.0, 2.0], 0),  # four maxima
        ([-1.0, -2.0, -3.0, -4.0], 0),  # all zero after relu
        ([-3.0, 0.0, -1.0, -0.5], 0),
    ]
    x = ad.Tensor(np.array([w for w, _ in windows]).reshape(1, -1, 2, 2), op="param")
    pre = ad.relu(x)
    g = np.arange(1.0, len(windows) + 1).reshape(1, -1, 1, 1)
    ad.mul(ad.maxpool2x2(pre), g).sum().backward()
    expected = np.zeros((1, len(windows), 4))
    for c, (_, first) in enumerate(windows):
        expected[0, c, first] = g[0, c, 0, 0]
    assert np.array_equal(pre.grad, expected.reshape(pre.shape))


def test_maxpool_rejects_odd_extents():
    with pytest.raises(ConfigurationError):
        ad.maxpool2x2(ad.Tensor(RNG.normal(size=(1, 1, 5, 4))))


# ---------------------------------------------------------------------------
# softmax properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(-50, 50),
    )
)
def test_softmax_is_probability_vector(x):
    p = ad.softmax(ad.Tensor(x), axis=-1).data
    assert (p >= 0).all()
    assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, (4,), elements=st.floats(-30, 30)),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(x, c):
    a = ad.softmax(ad.Tensor(x)).data
    b = ad.softmax(ad.Tensor(x + c)).data
    assert np.abs(a - b).max() <= 1e-9


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_sum_is_ones():
    x = ad.Tensor([1.0, 2.0, 3.0], op="param")
    x.sum().backward()
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_requires_scalar():
    x = ad.Tensor([1.0, 2.0], op="param")
    with pytest.raises(StateError):
        ad.backward(ad.relu(x))


def test_fused_softmax_ce_gradient_closed_form():
    logits = ad.Tensor(RNG.normal(size=(3, 5)), op="param")
    hot = np.zeros((3, 5))
    hot[np.arange(3), [1, 4, 0]] = 1.0
    loss = ad.softmax_cross_entropy(logits, hot).sum()
    loss.backward()
    p = ad.softmax(logits).data
    assert np.allclose(logits.grad, p - hot, atol=1e-12)
    numeric = numeric_grad(
        lambda: float(ad.softmax_cross_entropy(logits, hot).sum()), logits.data
    )
    assert_grads_close(logits.grad, numeric)


def test_composed_softmax_ce_gradient_closed_form():
    logits = ad.Tensor(RNG.normal(size=(2, 4)), op="param")
    hot = np.zeros((2, 4))
    hot[np.arange(2), [2, 0]] = 1.0
    loss = ad.cross_entropy_onehot(ad.softmax(logits), hot).sum()
    loss.backward()
    p = ad.softmax(logits).data
    assert np.allclose(logits.grad, p - hot, atol=1e-9)


def test_double_backward_doubles_grads():
    x = ad.Tensor(RNG.normal(size=(3, 3)), op="param")
    w = ad.Tensor(RNG.normal(size=(3, 2)), op="param")

    loss = ad.relu(ad.matmul(x, w)).sum()
    loss.backward()
    first_x, first_w = x.grad.copy(), w.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, 2.0 * first_x)
    assert np.array_equal(w.grad, 2.0 * first_w)


def test_topo_order_parents_precede_consumers():
    x = ad.Tensor(RNG.normal(size=(2, 2)), op="param")
    y = ad.relu(x)
    z = ad.mul(y, y) + x
    order = ad.topo_order(z.sum())
    seen = set()
    for node in order:
        for parent in node.parents:
            assert id(parent) in seen
        seen.add(id(node))


def test_forward_backward_bit_determinism():
    def run():
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(size=(4, 3, 8, 8)), op="param")
        w = ad.Tensor(rng.normal(size=(5, 3, 3, 3)), op="param")
        out = ad.softmax(
            ad.reshape(ad.maxpool2x2(ad.relu(ad.conv2d(x, w))), (4, -1))
        )
        loss = ad.cross_entropy_onehot(out, np.eye(out.shape[-1])[:4]).sum()
        loss.backward()
        return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_backward_drops_gradients_into_constants():
    # The gradient into the constant 1e-200 would overflow (1e200 * 1e200);
    # nobody reads it, so it is neither computed, checked nor accumulated.
    x = ad.Tensor([1e200])
    c = ad.as_tensor([1e-200])
    with np.errstate(over="ignore"):
        (ad.mul(x, c) * 1e200).sum().backward()
    assert np.array_equal(x.grad, [1.0])
    assert c.grad is None


def test_backward_still_checks_gradients_into_parameters():
    # The same graph with the small factor as a parameter: its gradient is
    # read, so the overflow is caught at the op that produced it.
    x = ad.Tensor([1e200])
    c = ad.Tensor([1e-200], op="param")
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="mul.backward"):
        (ad.mul(x, c) * 1e200).sum().backward()


def test_constant_operands_are_recorded_as_no_parent():
    x = ad.Tensor(RNG.normal(size=(2, 3)), op="param")
    const = RNG.normal(size=(2, 3))
    assert ad.mul(x, const).parents == (x,)
    assert ad.add(const, x).parents == (x,)
    assert ad.sub(x, ad.Tensor(const, op="input")).parents == (x,)
    assert ad.matmul(ad.as_tensor(const.T), x).parents == (x,)
    assert ad.concat([const, x], axis=0).parents == (x,)
    assert ad.reshape(const, (3, 2)).parents == ()
    assert ad.stack([x, const]).parents == (x,)


def test_closures_compute_no_gradient_for_constant_operands():
    # With over="raise", computing the gradient into the constant 1e-200
    # (1e200 * 1e200) would raise; recorded as no parent, it never runs.
    x = ad.Tensor([1e200])
    c = ad.as_tensor([1e-200])
    out = ad.mul(x, c) * 1e200
    assert len(out._backward(np.ones(1))) == 1
    with np.errstate(over="raise"):
        out.sum().backward()
    assert np.array_equal(x.grad, [1.0])


@pytest.mark.parametrize("shared", ["none", "left", "right"])
def test_member_axis_matmul_slices_equal_2d_matmul_bitwise(shared):
    rng = np.random.default_rng(list(shared.encode()))
    m, b, k, n = 3, 33, 16, 8
    a_data = rng.normal(size=(b, k) if shared == "left" else (m, b, k))
    w_data = rng.normal(size=(k, n) if shared == "right" else (m, k, n))
    a, w = ad.Tensor(a_data, op="param"), ad.Tensor(w_data, op="param")
    g = rng.normal(size=(m, b, n))
    out = ad.matmul(a, w)
    ad.mul(out, g).sum().backward()
    a_grad, w_grad = np.zeros_like(a_data), np.zeros_like(w_data)
    for i in range(m):
        ai = ad.Tensor((a_data if shared == "left" else a_data[i]).copy(), op="param")
        wi = ad.Tensor((w_data if shared == "right" else w_data[i]).copy(), op="param")
        outi = ad.matmul(ai, wi)
        ad.mul(outi, g[i].copy()).sum().backward()
        assert np.array_equal(out.data[i], outi.data)
        if shared == "left":
            a_grad += ai.grad
        else:
            a_grad[i] = ai.grad
        if shared == "right":
            w_grad += wi.grad
        else:
            w_grad[i] = wi.grad
    if shared != "left":
        assert np.array_equal(a.grad, a_grad)
    else:
        np.testing.assert_allclose(a.grad, a_grad, rtol=1e-12)
    if shared != "right":
        assert np.array_equal(w.grad, w_grad)
    else:
        np.testing.assert_allclose(w.grad, w_grad, rtol=1e-12)


def test_matmul_rejects_bad_member_axes():
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.Tensor(np.ones((1, 2, 3, 4))), ad.Tensor(np.ones((4, 5))))
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((3, 5))))


def test_stack_rejects_empty_and_mismatched_inputs():
    with pytest.raises(ConfigurationError):
        ad.stack([])
    with pytest.raises(ConfigurationError):
        ad.stack([ad.Tensor(np.ones(2)), ad.Tensor(np.ones(3))])


def test_backward_with_array_seed_equals_weighted_scalar_loss():
    rng = np.random.default_rng(5)
    seed = rng.normal(size=(4, 2))
    x = ad.Tensor(rng.normal(size=(4, 3)), op="param")
    w = ad.Tensor(rng.normal(size=(3, 2)), op="param")
    ad.backward(ad.relu(ad.matmul(x, w)), seed=seed)
    seeded = x.grad.copy(), w.grad.copy()
    x.grad = w.grad = None
    ad.mul(ad.relu(ad.matmul(x, w)), seed).sum().backward()
    assert np.array_equal(seeded[0], x.grad)
    assert np.array_equal(seeded[1], w.grad)


def test_backward_rejects_seed_of_another_shape():
    x = ad.Tensor(np.ones((2, 3)), op="param")
    root = ad.relu(x)
    for seed in (np.ones((3, 2)), np.ones(6), np.ones((1, 2, 3))):
        with pytest.raises(StateError, match="seed shape"):
            ad.backward(root, seed=seed)
    assert x.grad is None


# ---------------------------------------------------------------------------
# deferred finite checks
# ---------------------------------------------------------------------------

def _checks_on() -> bool:
    try:
        ad.Tensor([np.nan])
    except NumericError:
        return True
    return False


def test_deferred_checks_nest_and_are_restored_after_an_error():
    assert _checks_on()
    with pytest.raises(ConfigurationError):
        with ad.deferred_checks():
            assert not _checks_on()
            ad.matmul(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0]))
    assert _checks_on()
    with ad.deferred_checks():
        with ad.deferred_checks():
            assert not _checks_on()
        with ad.deferred_checks(False):
            assert not _checks_on()
        assert not _checks_on()
    with ad.deferred_checks(False):
        assert _checks_on()
    assert _checks_on()


def test_deferred_checks_are_thread_local():
    import threading

    entered, release = threading.Event(), threading.Event()
    inside = {}

    def deferred_worker():
        with ad.deferred_checks():
            entered.set()
            release.wait(timeout=10)
            inside["on"] = _checks_on()

    worker = threading.Thread(target=deferred_worker)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        assert _checks_on()
    finally:
        release.set()
        worker.join(timeout=10)
    assert inside == {"on": False}


def test_deferred_checks_skip_op_and_gradient_checks():
    # The overflowing gradient of test_backward_still_checks_gradients_into_parameters
    # is not checked inside the scope; it is left for the caller to find.
    x = ad.Tensor([1e200])
    c = ad.Tensor([1e-200], op="param")
    with np.errstate(over="ignore"), ad.deferred_checks():
        (ad.mul(x, c) * 1e200).sum().backward()
    assert not np.isfinite(c.grad).all()


def test_neg_inf_absorbed_by_relu_raises_only_outside_the_scope():
    # The one behaviour the scope changes: a non-finite value that is dropped
    # before anything reads it no longer raises.
    x = ad.Tensor([1e200, 1.0], op="param")
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="op 'mul'"):
            ad.relu(ad.mul(x, -1e200))
        with ad.deferred_checks():
            out = ad.relu(ad.mul(x, -1e200))
            out.sum().backward()
    assert np.array_equal(out.data, [0.0, 0.0])
    assert np.array_equal(x.grad, [0.0, 0.0])


# ---------------------------------------------------------------------------
# no-graph evaluation
# ---------------------------------------------------------------------------

def test_no_graph_ops_record_no_parents_and_no_closure():
    w = ad.Tensor(RNG.normal(size=(3, 2)), op="param")
    with ad.no_graph():
        out = ad.relu(ad.matmul(ad.as_tensor(RNG.normal(size=(4, 3))), w))
        loss = out.sum()
    for node in (out, loss):
        assert node.parents == ()
        assert node._backward is None
    loss.backward()
    assert w.grad is None
    recorded = ad.relu(w)
    assert recorded.parents == (w,) and recorded._backward is not None


def test_no_graph_restored_after_exception_and_when_nested():
    x = ad.Tensor([1.0, 2.0], op="param")
    with pytest.raises(ConfigurationError):
        with ad.no_graph():
            ad.matmul(x, x)
    assert ad.relu(x).parents == (x,)
    with ad.no_graph():
        with ad.no_graph():
            assert ad.relu(x).parents == ()
        assert ad.relu(x).parents == ()
    assert ad.relu(x).parents == (x,)


def test_no_graph_is_thread_local():
    import threading

    entered, release = threading.Event(), threading.Event()
    inside = {}

    def evaluate():
        with ad.no_graph():
            entered.set()
            release.wait(timeout=10)
            inside["parents"] = ad.relu(ad.Tensor([1.0])).parents

    worker = threading.Thread(target=evaluate)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        x = ad.Tensor([1.0, -1.0], op="param")
        assert ad.relu(x).parents == (x,)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert inside["parents"] == ()


# ---------------------------------------------------------------------------
# finite-difference checks, one per op kind
# ---------------------------------------------------------------------------

def _fd_case(name):
    rng = np.random.default_rng(list(name.encode()))
    if name == "dense":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(4, 2)), op="param")
        b = ad.Tensor(rng.normal(size=2), op="param")
        return lambda: ad.relu(ad.dense(x, w, b)).sum(), [x, w, b]
    if name == "conv2d":
        x = ad.Tensor(rng.normal(size=(2, 2, 4, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), op="param")
        b = ad.Tensor(rng.normal(size=3), op="param")
        return lambda: ad.conv2d(x, w, b).sum(), [x, w, b]
    if name == "maxpool":
        x = ad.Tensor(rng.normal(size=(2, 2, 4, 4)), op="param")
        return lambda: ad.mul(ad.maxpool2x2(x), rng2_const(x)).sum(), [x]
    if name == "relu":
        x = ad.Tensor(rng.normal(size=(5, 5)), op="param")
        return lambda: ad.relu(x).sum(), [x]
    if name == "sigmoid":
        x = ad.Tensor(rng.normal(size=(4, 3)), op="param")
        return lambda: ad.sigmoid(x).sum(), [x]
    if name == "softmax":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        probe = rng.normal(size=(3, 4))
        return lambda: ad.mul(ad.softmax(x), probe).sum(), [x]
    if name == "log":
        x = ad.Tensor(rng.uniform(0.2, 2.0, size=(4,)), op="param")
        return lambda: ad.log(x).sum(), [x]
    if name == "mul_broadcast":
        x = ad.Tensor(rng.normal(size=(2, 3, 2, 2)), op="param")
        g = ad.Tensor(rng.normal(size=(2, 3, 1, 1)), op="param")
        return lambda: ad.mul(x, g).sum(), [x, g]
    if name == "concat":
        a = ad.Tensor(rng.normal(size=(2, 2)), op="param")
        b = ad.Tensor(rng.normal(size=(2, 3)), op="param")
        probe = rng.normal(size=(2, 5))
        return lambda: ad.mul(ad.concat([a, b], axis=1), probe).sum(), [a, b]
    if name == "matmul_member_axis":
        x = ad.Tensor(rng.normal(size=(2, 3, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(2, 4, 2)), op="param")
        probe = rng.normal(size=(2, 3, 2))
        return lambda: ad.mul(ad.matmul(x, w), probe).sum(), [x, w]
    if name == "matmul_shared_operand":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(2, 4, 2)), op="param")
        probe = rng.normal(size=(2, 3, 2))
        return lambda: ad.mul(ad.matmul(x, w), probe).sum(), [x, w]
    if name == "stack":
        a = ad.Tensor(rng.normal(size=(2, 3)), op="param")
        b = ad.Tensor(rng.normal(size=(2, 3)), op="param")
        probe = rng.normal(size=(2, 2, 3))
        return lambda: ad.mul(ad.stack([a, b]), probe).sum(), [a, b]
    if name == "mean":
        x = ad.Tensor(rng.normal(size=(3, 4, 2)), op="param")
        return lambda: ad.mul(x.mean(axis=(1, 2)), np.array([1.0, -2.0, 0.5])).sum(), [x]
    if name == "softmax_cross_entropy":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        hot = np.eye(4)[[0, 2, 3]]
        return lambda: ad.softmax_cross_entropy(x, hot).sum(), [x]
    if name == "cross_entropy_composed":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        hot = np.eye(4)[[1, 1, 2]]
        return lambda: ad.cross_entropy_onehot(ad.softmax(x), hot).sum(), [x]
    if name == "kl_uniform":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        return lambda: ad.kl_uniform_to(ad.softmax(x)).sum(), [x]
    raise AssertionError(name)


def rng2_const(x):
    return np.random.default_rng(99).normal(size=x.shape[:2] + (x.shape[2] // 2, x.shape[3] // 2))


@pytest.mark.parametrize(
    "case",
    [
        "dense",
        "conv2d",
        "maxpool",
        "relu",
        "sigmoid",
        "softmax",
        "log",
        "mul_broadcast",
        "concat",
        "matmul_member_axis",
        "matmul_shared_operand",
        "stack",
        "mean",
        "softmax_cross_entropy",
        "cross_entropy_composed",
        "kl_uniform",
    ],
)
def test_gradients_match_finite_differences(case):
    build, params = _fd_case(case)
    check_tensor_grad(build, params)


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def test_sgd_definition():
    p = ad.Tensor(np.array([1.0]), op="param")
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    ad.sgd_step([p], [np.array([0.5])], cfg)
    assert p.data[0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_zero_grad_is_fixed_point():
    p = ad.Tensor(RNG.normal(size=(3,)), op="param")
    before = p.data.copy()
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    ad.sgd_step([p], [np.zeros(3)], cfg)
    assert np.array_equal(p.data, before)


def test_sgd_momentum_unroll():
    # buf1 = g, buf2 = 0.9 g + g = 1.9 g, so the second update is lr*g*1.9
    p = ad.Tensor(np.array([1.0]), op="param")
    g = np.array([0.5])
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    bufs = ad.sgd_step([p], [g], cfg)
    after_first = p.data.copy()
    ad.sgd_step([p], [g], cfg, bufs)
    second_update = after_first[0] - p.data[0]
    assert second_update == pytest.approx(0.1 * 0.5 * 1.9, abs=1e-15)


def test_sgd_missing_grad_raises():
    p = ad.Tensor(np.array([1.0]), op="param")
    with pytest.raises(StateError):
        ad.sgd_step([p], [None], ad.SgdConfig())


def test_sgd_config_validation():
    with pytest.raises(ConfigurationError):
        ad.SgdConfig(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        ad.SgdConfig(momentum=1.0)
    with pytest.raises(ConfigurationError):
        ad.SgdConfig(weight_decay=-1.0)


def test_optimizer_updates_and_zeroes():
    p = ad.Tensor(np.array([2.0]), op="param")
    opt = ad.SgdOptimizer([p], ad.SgdConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0))
    (p * 3.0).sum().backward()
    opt.step()
    assert p.data[0] == pytest.approx(2.0 - 0.5 * 3.0)
    opt.zero_grad()
    assert p.grad is None
