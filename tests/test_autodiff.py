"""Forward values, gradients, and SGD semantics of the tensor core."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mclkit.autodiff as ad
from mclkit.errors import ConfigurationError, NumericError, StateError

import conv_reference
import objective_reference
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


def _ce(logits, y):
    """Softmax cross-entropy of ``logits`` against class ``y``, in log space."""
    return float(ad.nll(ad.log_softmax(ad.Tensor(logits)), y))


def _kl_uniform(logits):
    """KL(uniform || softmax(logits)), the confident objective's penalty."""
    return float(objective_reference._kl_uniform(ad.log_softmax(ad.Tensor(logits))))


def test_cross_entropy_perfect_prediction():
    assert _ce([0.0, 0.0, 1000.0], 2) == 0.0


def test_cross_entropy_uniform():
    assert _ce([0.0, 0.0, 0.0], 0) == pytest.approx(1.0986122886681098, abs=1e-12)


def test_cross_entropy_quarter():
    # independent oracle: -math.log(0.25) = 1.3862943611198906
    assert _ce(np.log([0.25, 0.75]), 0) == pytest.approx(1.3862943611198906, abs=1e-12)


def test_cross_entropy_length_mismatch():
    with pytest.raises(ConfigurationError):
        ad.nll(ad.Tensor(np.zeros((2, 3))), [1, 0, 0])


def test_cross_entropy_at_saturation_is_exact():
    # A probability of e^-60 rounds to nothing next to 1; its log-space loss
    # and gradient stay exact where a clamped log(softmax) read 27.63 and ~0.
    logits = ad.Tensor(np.array([[0.0, 60.0, 0.0]]), op="param")
    loss = ad.nll(ad.log_softmax(logits), np.array([0]))
    loss.sum().backward()
    assert loss.data[0] == pytest.approx(60.0, rel=1e-15)
    want = ad.softmax(ad.Tensor(logits.data)).data - np.eye(3)[0]
    assert np.allclose(logits.grad, want, rtol=0.0, atol=1e-6)
    assert logits.grad[0, 0] == -1.0


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, st.integers(2, 8), elements=st.floats(-700.0, 700.0)),
    st.data(),
)
def test_log_softmax_cross_entropy_matches_logsumexp_at_any_saturation(x, data):
    from scipy.special import logsumexp, softmax

    y = data.draw(st.integers(0, x.size - 1))
    logits = ad.Tensor(x, op="param")
    loss = ad.nll(ad.log_softmax(logits), y)
    loss.backward()
    want = logsumexp(x) - x[y]
    # absolute near 0: scipy rounds a vanishing loss through log1p, log_softmax does not
    assert abs(float(loss) - want) <= 1e-12 * max(1.0, want)
    assert np.allclose(logits.grad, softmax(x) - np.eye(x.size)[y], rtol=0.0, atol=1e-12)


def test_kl_to_onehot_matches_cross_entropy():
    # KL(t || p) = sum t log(t / p) = -sum t log p for one-hot t: the cross-entropy
    rng = np.random.default_rng(7)
    for _ in range(100):
        logits = rng.normal(size=5)
        p = np.exp(logits) / np.exp(logits).sum()
        y = int(rng.integers(5))
        a = -(np.eye(5)[y] * np.log(p)).sum()
        assert _ce(logits, y) == pytest.approx(a, rel=1e-12)


def test_kl_to_onehot_exact_match_and_uniform():
    assert _ce([-1000.0, -1000.0, 0.0], 2) == 0.0
    assert _ce([1.0, 1.0, 1.0], 2) == pytest.approx(math.log(3), abs=1e-12)


def test_kl_uniform_zero_on_uniform():
    assert _kl_uniform([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_kl_uniform_value():
    # independent oracle: 0.5*(log(0.5/0.75)+log(0.5/0.25)) = 0.14384103622589042
    assert _kl_uniform(np.log([0.75, 0.25])) == pytest.approx(0.14384103622589042, abs=1e-12)


def test_kl_uniform_saturated_stays_exact():
    # p = (1, e^-1000): -mean(log p) - log 2, with no clamp on the tiny entry
    assert _kl_uniform([0.0, -1000.0]) == pytest.approx(500.0 - math.log(2), rel=1e-15)


def test_kl_uniform_rejects_empty():
    with pytest.raises(ConfigurationError):
        _kl_uniform(np.zeros((0,)))


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


# Evaluation runs conv2d on tiles of batch rows (ensemble_forward), each one GEMM.
def _one_gemm_conv2d(x, w, b, relu):
    """The untiled forward: one patch matrix for the whole batch and one GEMM
    (per member for a member-major input), bias and relu on its NHWC output."""
    one, shared = w.ndim == 4, x.ndim == 4
    wm, xm = (w[None] if one else w), (x[None] if shared else x)
    m, f, cin, kh, kw = wm.shape
    mx, bsz, _, h, wd = xm.shape
    xp = np.zeros((mx, bsz, h + kh - 1, wd + kw - 1, cin))
    xp[:, :, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + wd] = xm.transpose(0, 1, 3, 4, 2)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.moveaxis(windows, -3, -1).reshape(mx, -1, kh * kw * cin)
    if shared:
        out = (cols[0] @ wm.transpose(3, 4, 2, 0, 1).reshape(-1, m * f)).reshape(bsz, h, wd, m, f)
        out = out.transpose(3, 0, 1, 2, 4)
    else:
        out = (cols @ wm.transpose(0, 3, 4, 2, 1).reshape(m, -1, f)).reshape(m, bsz, h, wd, f)
    if b is not None:
        out += (b[None] if one else b).reshape(m, 1, 1, 1, f)
    if relu:
        np.maximum(out, 0.0, out=out)
    nchw = out.transpose(0, 1, 4, 2, 3)
    return nchw[0] if one else nchw


def _tile_examples(x_shape, k):
    """Examples per evaluation tile if this conv decided it: the most whose
    patch bytes (every member's, for a member-major input) stay below
    ``MMAP_THRESHOLD``, as ``models.tile_examples`` sizes them."""
    members = x_shape[0] if len(x_shape) == 5 else 1
    cin, h, w = x_shape[-3:]
    return (ad.MMAP_THRESHOLD - 1) // (members * h * w * k * k * cin * 8)


def _near_equal_tiles(bsz, step):
    tiles = -(-bsz // step)
    return [(bsz * i // tiles, bsz * (i + 1) // tiles) for i in range(tiles)]


def _counting_im2col(monkeypatch):
    calls = []
    im2col = ad._im2col

    def counted(*args):
        calls.append(args[0].shape[-4])  # the block's examples
        return im2col(*args)

    monkeypatch.setattr(ad, "_im2col", counted)
    return calls


# (kernel rank, input rank) of one member's kernel, member kernels over a
# shared input, and member kernels over member-major inputs; (C, H, k) with
# one example's patch rows large enough that tiles hold few examples.
CONV_TILE_LAYOUTS = {"one": (4, 4), "shared": (5, 4), "member_major": (5, 5)}
CONV_TILE_SHAPES = {3: (32, 16), 1: (64, 32)}


@pytest.mark.parametrize("batch", ["single", "block-1", "block", "block+1"])
@pytest.mark.parametrize("k", [3, 1])
@pytest.mark.parametrize("layout", list(CONV_TILE_LAYOUTS))
def test_tiled_conv2d_is_bit_identical_to_one_gemm(monkeypatch, layout, k, batch):
    w_rank, x_rank = CONV_TILE_LAYOUTS[layout]
    cin, size = CONV_TILE_SHAPES[k]
    m, f = 2, 6
    lead = (m,) if x_rank == 5 else ()
    step = _tile_examples((*lead, 1, cin, size, size), k)
    bsz = {"single": 1, "block-1": step - 1, "block": step, "block+1": step + 1}[batch]
    rng = np.random.default_rng(list(f"{layout}{k}{batch}".encode()))
    x = rng.normal(size=(*lead, bsz, cin, size, size))
    w = rng.normal(size=((m,) if w_rank == 5 else ()) + (f, cin, k, k))
    b = rng.normal(size=w.shape[:-3])
    calls = _counting_im2col(monkeypatch)
    tiles = _near_equal_tiles(bsz, step)
    for bias in (None, b):
        for relu in (False, True):
            with ad.no_graph():
                parts = [ad.conv2d(x[..., lo:hi, :, :, :], w, bias, relu=relu).data for lo, hi in tiles]
            out = np.concatenate(parts, axis=parts[0].ndim - 4)
            assert np.array_equal(out, _one_gemm_conv2d(x, w, bias, relu))
            assert relu is False or 0 < np.count_nonzero(out) < out.size
    blocks = [bsz] if bsz <= step else [bsz // 2, bsz - bsz // 2]  # near-equal
    assert calls == blocks * 4  # one patch matrix per call


@pytest.mark.parametrize("relu", [False, True])
def test_tiled_conv2d_names_itself_on_a_minus_infinity_in_a_later_block(relu):
    # The checked pre-activation of the second tile: relu would hide the -inf.
    cin, size = CONV_TILE_SHAPES[3]
    step = _tile_examples((1, cin, size, size), 3)
    x = RNG.normal(size=(step + 1, cin, size, size))
    x[-1, 0] = 1e200  # the last example: in the second tile
    w = RNG.normal(size=(4, cin, 3, 3))
    w[:, 0] = -1e200
    (lo, mid), (_, hi) = _near_equal_tiles(step + 1, step)
    with np.errstate(over="ignore", invalid="ignore"), ad.no_graph():
        assert np.isfinite(ad.conv2d(x[lo:mid], w, relu=relu).data).all()
        with pytest.raises(NumericError, match="op 'conv2d'"):
            ad.conv2d(x[mid:hi], w, relu=relu)
        x[-1, 0] = 1.0
        assert np.isfinite(ad.conv2d(x[mid:hi], w, relu=relu).data).all()


@pytest.mark.parametrize("bsz", [32, 64])  # the benchmark's training batch; TrainConfig's default
@pytest.mark.parametrize("x_shape,w_shape", [
    ((1, 16, 16), (2, 32, 1, 3, 3)),  # conv1: the members' filters over the shared batch
    ((2, 32, 8, 8), (2, 64, 32, 3, 3)),  # conv2, member-major
    ((2, 64, 4, 4), (2, 128, 64, 3, 3)),  # conv3, member-major
])
def test_conv2d_at_a_training_batch_is_one_block(monkeypatch, x_shape, w_shape, bsz):
    # conv2d is one GEMM at any batch, recorded or not: evaluation bounds
    # its patch matrices by tiling the batch above the op.
    x_shape = (*x_shape[:-3], bsz, *x_shape[-3:]) if len(x_shape) == 4 else (bsz, *x_shape)
    calls = _counting_im2col(monkeypatch)
    x = ad.Tensor(RNG.normal(size=x_shape), op="param")
    w = ad.Tensor(RNG.normal(size=w_shape), op="param")
    out = ad.conv2d(x, w, relu=True)
    assert calls == [bsz]
    assert out.parents
    with ad.no_graph():
        untracked = ad.conv2d(x, w, relu=True)
    assert calls == [bsz, bsz]
    assert np.array_equal(untracked.data, out.data)


# conv_workspace: conv2d's patch matrices and column gradients in one reused buffer.
def _conv2d_step(leaves, relu):
    """Output and (x, w, b) gradients of one recorded conv2d with a fixed
    upstream gradient."""
    out = ad.conv2d(*leaves, relu=relu)
    ad.mul(out, np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)).sum().backward()
    grads = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    return out.data, grads


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("k", [3, 1])
@pytest.mark.parametrize("layout", ["shared", "member_major"])
def test_conv_workspace_is_bit_identical_and_one_buffer(layout, k, relu):
    rng = np.random.default_rng(list(f"{layout}{k}{relu}".encode()))
    x = rng.normal(size=(5, 3, 6, 4) if layout == "shared" else (2, 5, 3, 6, 4))
    leaves = [ad.Tensor(a, op="param") for a in (x, rng.normal(size=(2, 4, 3, k, k)), rng.normal(size=(2, 4)))]
    out, grads = _conv2d_step(leaves, relu)
    with ad.conv_workspace():
        for _ in range(2):  # the second step reuses the first one's buffer
            ws_out, ws_grads = _conv2d_step(leaves, relu)
            assert np.array_equal(ws_out, out)
            assert all(np.array_equal(a, b) for a, b in zip(ws_grads, grads))
        # The largest matrix made: the [M, B*H*W, k*k*C] column gradient.
        assert ad._graph.workspace[0].size == 2 * 5 * 6 * 4 * k * k * 3
    assert ad._graph.workspace is None


def test_conv_workspace_nests_and_restores_on_error():
    with ad.conv_workspace():
        outer = ad._graph.workspace
        with pytest.raises(RuntimeError):
            with ad.conv_workspace():
                assert ad._graph.workspace is not outer
                raise RuntimeError
        assert ad._graph.workspace is outer
    assert ad._graph.workspace is None


def test_recorded_conv2_in_a_workspace_makes_no_patch_or_column_matrix():
    # conv2 at the benchmark's training batch (B=32, M=2): its patch matrix
    # and its column gradient are 9 MiB each. In a workspace a step after the
    # first makes neither: tracemalloc peaks of 4.1 MiB (forward) and 4.0 MiB
    # (backward), against 12.8 and 13.0 MiB without one.
    rng = np.random.default_rng(4)
    leaves = [ad.Tensor(rng.normal(size=shape), op="param")
              for shape in ((2, 32, 32, 8, 8), (2, 64, 32, 3, 3), (2, 64))]
    with ad.conv_workspace():
        _conv2d_step(leaves, relu=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(*leaves, relu=True)
            forward = tracemalloc.get_traced_memory()[1]
            g = rng.normal(size=out.shape)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            grads = out._backward(g)
            backward = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert [a.shape for a in grads] == [t.shape for t in leaves]
    assert forward < 6 * 2**20 and backward < 6 * 2**20


# Member-axis conv2d: each member's share of the one GEMM is its own 4-D call's.
def _per_member_conv(x, w, b, relu, probe, shared):
    """Outputs and (x, w, b) gradients of one 4-D conv2d call per member; a
    shared input's gradient is the members' summed in member order."""
    outs, grads = [], []
    for m in range(w.shape[0]):
        leaves = [ad.Tensor(a.copy(), op="param") for a in ((x if shared else x[m]), w[m], b[m])]
        out = ad.conv2d(*leaves, relu=relu)
        ad.mul(out, probe[m].copy()).sum().backward()
        outs.append(out.data)
        grads.append([t.grad for t in leaves])
    gx = [g[0] for g in grads]
    if shared:
        total = gx[0].copy()
        for part in gx[1:]:
            total += part
        gx = total
    return np.stack(outs), gx if shared else np.stack(gx), [np.stack([g[i] for g in grads]) for i in (1, 2)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("layout", ["shared", "member_major"])
def test_member_axis_conv2d_slices_equal_per_member_conv2d_bitwise(layout, relu, k):
    rng = np.random.default_rng(list(f"{layout}{relu}{k}".encode()))
    m, shared = 3, layout == "shared"
    x = rng.normal(size=(5, 4, 6, 6) if shared else (m, 5, 4, 6, 6))
    w, b = rng.normal(size=(m, 7, 4, k, k)), rng.normal(size=(m, 7))
    probe = rng.normal(size=(m, 5, 7, 6, 6))
    leaves = [ad.Tensor(a.copy(), op="param") for a in (x, w, b)]
    out = ad.conv2d(*leaves, relu=relu)
    ad.mul(out, probe).sum().backward()
    ref_out, ref_gx, (ref_gw, ref_gb) = _per_member_conv(x, w, b, relu, probe, shared)
    assert relu is False or 0 < np.count_nonzero(out.data) < out.data.size
    assert out.shape == (m, 5, 7, 6, 6)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(leaves[0].grad, ref_gx)
    assert np.array_equal(leaves[1].grad, ref_gw)
    assert np.array_equal(leaves[2].grad, ref_gb)


def test_member_axis_conv2d_over_a_shared_input_is_one_nhwc_buffer():
    # The members' filters run side by side: the output is an NCHW view of
    # one [B, H, W, M*F] buffer, whose channel concatenation is a view too.
    x = ad.Tensor(RNG.normal(size=(2, 1, 4, 4)), op="input")
    out = ad.conv2d(x, ad.Tensor(RNG.normal(size=(3, 5, 1, 3, 3))), ad.Tensor(RNG.normal(size=(3, 5))))
    cat = ad.concat_members(out)
    assert cat.data.base is out.data.base and cat.data.transpose(0, 2, 3, 1).flags.c_contiguous
    assert np.array_equal(cat.data, ad.concat(list(out.data), axis=1).data)


def test_member_axis_conv2d_rejects_what_does_not_fit():
    x5 = ad.Tensor(RNG.normal(size=(2, 1, 2, 4, 4)))
    with pytest.raises(ConfigurationError):  # two members' inputs, three members' kernels
        ad.conv2d(x5, ad.Tensor(RNG.normal(size=(3, 3, 2, 3, 3))))
    with pytest.raises(ConfigurationError):  # a member-major input needs member-axis kernels
        ad.conv2d(x5, ad.Tensor(RNG.normal(size=(3, 2, 3, 3))))
    with pytest.raises(ConfigurationError):  # one bias row per member
        ad.conv2d(x5, ad.Tensor(RNG.normal(size=(2, 3, 2, 3, 3))), ad.Tensor(RNG.normal(size=3)))


def test_member_axis_maxpool_slices_equal_per_member_maxpool_bitwise():
    x = np.round(RNG.normal(size=(3, 2, 4, 6, 4)), 1)  # rounded: ties to route
    probe = RNG.normal(size=(3, 2, 4, 3, 2))
    t = ad.Tensor(x, op="param")
    out = ad.maxpool2x2(t)
    ad.mul(out, probe).sum().backward()
    for m in range(3):
        tm = ad.Tensor(x[m].copy(), op="param")
        om = ad.maxpool2x2(tm)
        ad.mul(om, probe[m].copy()).sum().backward()
        assert np.array_equal(out.data[m], om.data)
        assert np.array_equal(t.grad[m], tm.grad)


def test_concat_members_and_add_members_are_bit_identical_to_per_member_chains():
    # fusion's features: concat of the members' taps, and shared + own tap per member
    m, rng = 3, np.random.default_rng(3)
    taps, shared = rng.normal(size=(m, 4, 2, 3, 3)), rng.normal(size=(4, 2, 3, 3))
    probe_cat, probe = rng.normal(size=(4, 2 * m, 3, 3)), rng.normal(size=(m, 4, 2, 3, 3))
    t, s = ad.Tensor(taps.copy(), op="param"), ad.Tensor(shared.copy(), op="param")
    loss = ad.add(ad.mul(ad.concat_members(t), probe_cat).sum(),
                  ad.mul(ad.add_members(t, s), probe).sum())
    loss.backward()
    ts, s2 = [ad.Tensor(a.copy(), op="param") for a in taps], ad.Tensor(shared.copy(), op="param")
    feats = objective_reference.stack([ad.add(s2, tm) for tm in ts])
    ref = ad.add(ad.mul(ad.concat(ts, axis=1), probe_cat).sum(), ad.mul(feats, probe).sum())
    ref.backward()
    assert np.array_equal(ad.add_members(t, s).data, feats.data)
    assert np.array_equal(ad.concat_members(t).data, ad.concat(ts, axis=1).data)
    assert np.array_equal(t.grad, np.stack([tm.grad for tm in ts]))
    assert np.array_equal(s.grad, s2.grad)


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


def _slice_wise_max(x, axis):
    """The class max as an elementwise maximum of the axis's slices."""
    moved = x.swapaxes(axis, 0)
    out = moved[:1].copy()
    for i in range(1, x.shape[axis]):
        np.maximum(out, moved[i], out=out)
    return out.swapaxes(0, axis)


def test_log_softmax_is_bit_identical_with_a_slice_wise_max():
    # The max is exact, so numpy's row-by-row reduction and the slice-wise
    # maximum give the same log-probabilities, ties and saturation included.
    x = np.random.default_rng(7).normal(scale=20.0, size=(3, 512, 5))
    x[0, :64, 1] = x[0, :64, 3]
    shifted = x - _slice_wise_max(x, -1)
    want = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    assert np.array_equal(ad.log_softmax(ad.Tensor(x), axis=-1).data, want)


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
    y = np.array([1, 4, 0])
    loss = ad.nll(ad.log_softmax(logits), y).sum()
    loss.backward()
    p = ad.softmax(logits).data
    assert np.allclose(logits.grad, p - np.eye(5)[y], atol=1e-12)
    numeric = numeric_grad(
        lambda: float(ad.nll(ad.log_softmax(logits), y).sum()), logits.data
    )
    assert_grads_close(logits.grad, numeric)


def test_composed_softmax_ce_gradient_closed_form():
    # member-major [M, B, C] logits, as training passes them
    logits = ad.Tensor(RNG.normal(size=(2, 2, 4)), op="param")
    y = np.array([2, 0])
    loss = ad.nll(ad.log_softmax(logits), y).sum()
    loss.backward()
    p = ad.softmax(logits).data
    assert np.allclose(logits.grad, p - np.eye(4)[y], atol=1e-12)


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
        out = ad.log_softmax(
            ad.reshape(ad.maxpool2x2(ad.relu(ad.conv2d(x, w))), (4, -1))
        )
        loss = ad.nll(out, np.arange(4)).sum()
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


# ---------------------------------------------------------------------------
# fused ops: bit-identical to the chains of ops they replace
# ---------------------------------------------------------------------------

def _fused_and_composed(fused, composed, leaves, probe, ops=None):
    """Run ``fused`` and ``composed`` over fresh copies of ``leaves`` (param
    arrays, or leaves of the matching ``ops``), back-propagate ``probe``
    through each, and return both outputs with both sets of leaf gradients."""
    ops = ops or ["param"] * len(leaves)
    runs = []
    for build in (fused, composed):
        params = [ad.Tensor(leaf.copy(), op=op) for leaf, op in zip(leaves, ops)]
        out = build(*params)
        ad.mul(out, probe).sum().backward()
        runs.append((out.data, [t.grad for t in params]))
    return runs


def _assert_bit_identical(runs):
    (out_f, grads_f), (out_c, grads_c) = runs
    assert np.array_equal(out_f, out_c)
    for gf, gc in zip(grads_f, grads_c):
        if gf is None or gc is None:  # an input leaf gets no gradient either way
            assert gf is gc
        else:
            assert gf.shape == gc.shape and np.array_equal(gf, gc)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("layout", ["member_axis", "shared_input", "two_d"])
def test_dense_is_bit_identical_to_matmul_add_relu(layout, bias, relu):
    rng = np.random.default_rng(list(f"{layout}{bias}{relu}".encode()))
    m, b, k, n = 3, 32, 16, 8
    x = rng.normal(size=(m, b, k) if layout == "member_axis" else (b, k))
    w = rng.normal(size=(k, n) if layout == "two_d" else (m, k, n))
    leaves = [x, w] + ([rng.normal(size=(n,) if layout == "two_d" else (m, 1, n))] if bias else [])
    probe = rng.normal(size=(b, n) if layout == "two_d" else (m, b, n))

    def composed(x, w, b=None):
        out = ad.matmul(x, w)
        if b is not None:
            out = ad.add(out, b)
        return ad.relu(out) if relu else out

    runs = _fused_and_composed(
        lambda x, w, b=None: ad.dense(x, w, b, relu=relu), composed, leaves, probe
    )
    assert relu is False or 0 < np.count_nonzero(runs[0][0]) < runs[0][0].size
    _assert_bit_identical(runs)


@pytest.mark.parametrize("x_op", ["param", "input"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("bias", [False, True])
def test_conv2d_relu_is_bit_identical_to_relu_of_conv2d(bias, k, x_op):
    rng = np.random.default_rng(list(f"{bias}{k}{x_op}".encode()))
    leaves = [rng.normal(size=(4, 3, 6, 6)), rng.normal(size=(5, 3, k, k))]
    leaves += [rng.normal(size=5)] if bias else []
    ops = [x_op] + ["param"] * (len(leaves) - 1)
    probe = rng.normal(size=(4, 5, 6, 6))

    def composed(x, w, b=None):
        return ad.relu(ad.conv2d(x, w, b))

    runs = _fused_and_composed(
        lambda x, w, b=None: ad.conv2d(x, w, b, relu=True), composed, leaves, probe, ops
    )
    assert 0 < np.count_nonzero(runs[0][0]) < runs[0][0].size
    assert (runs[0][1][0] is None) == (x_op == "input")
    _assert_bit_identical(runs)


@pytest.mark.parametrize("target", ["labels", "aux_slot"])
def test_nll_is_bit_identical_to_mul_sum_neg(target):
    rng = np.random.default_rng(list(target.encode()))
    logp = ad.log_softmax(ad.Tensor(rng.normal(scale=30.0, size=(3, 16, 5)))).data
    y = rng.integers(0, 5, 16) if target == "labels" else 4
    hot = np.eye(5)[y]

    def composed(logp):
        return ad.neg(ad.tensor_sum(ad.mul(logp, hot), axis=-1))

    runs = _fused_and_composed(
        lambda logp: ad.nll(logp, y), composed, [logp], rng.normal(size=(3, 16))
    )
    _assert_bit_identical(runs)


def test_kl_uniform_to_is_bit_identical_to_log_mean_neg_add():
    # the confident objective's uniform term, against the composition it names
    rng = np.random.default_rng(7)
    logp = ad.log_softmax(ad.Tensor(rng.normal(scale=30.0, size=(3, 16, 5)))).data
    y = rng.integers(0, 5, 16)

    def composed(logp):
        mean_neglog = ad.neg(ad.tensor_mean(logp, axis=-1))  # 1/5 is inexact, so the order shows
        return ad.tensor_sum(ad.add(mean_neglog, -math.log(5)), axis=-1)

    runs = _fused_and_composed(
        # No member assigned anywhere: each term is its member's whole penalty.
        lambda logp: ad.assigned_nll(logp, y, np.zeros((16, 3)), "uniform", 1.0)[0],
        composed,
        [logp],
        rng.normal(size=3),
    )
    _assert_bit_identical(runs)


@pytest.mark.parametrize("weight", [0.0, 0.75])
@pytest.mark.parametrize("penalty", [None, "aux", "uniform"])
def test_assigned_nll_is_bit_identical_to_nll_mul_sum_chain(penalty, weight):
    # The chain the op replaces: masked sums of the class gather and of the
    # penalty, the penalty's scaled by the weight and added.
    rng = np.random.default_rng(list(f"{penalty}{weight}".encode()))
    logp = ad.log_softmax(ad.Tensor(rng.normal(scale=30.0, size=(3, 32, 5)))).data
    y = rng.integers(0, 4, 32)
    on = (rng.random((32, 3)) < 0.4).astype(np.int64)
    on_t = np.ascontiguousarray(on.T, dtype=np.float64)
    off_t = np.ascontiguousarray((1 - on).T, dtype=np.float64)

    def composed(logp):
        terms = ad.mul(ad.nll(logp, y), on_t).sum(axis=1)
        if penalty is None or not weight:
            return terms
        if penalty == "aux":
            pen = ad.nll(logp, 4)
        else:
            pen = ad.add(ad.mul(logp.sum(axis=-1), -1.0 / 5), -math.log(5))
        return ad.add(terms, ad.mul(ad.mul(pen, off_t).sum(axis=1), weight))

    runs = _fused_and_composed(
        lambda logp: ad.assigned_nll(logp, y, on, penalty, weight)[0],
        composed,
        [logp],
        rng.normal(size=3),
    )
    _assert_bit_identical(runs)


@pytest.mark.parametrize(
    "y,on,penalty",
    [
        (np.zeros(3, dtype=np.int64), np.ones((2, 1)), None),
        (np.zeros(2, dtype=np.int64), np.ones((1, 2)), None),
        (np.zeros(2, dtype=np.int64), np.ones((2, 1)), "kl"),
    ],
    ids=["labels", "assignment", "penalty"],
)
def test_assigned_nll_rejects_what_does_not_fit(y, on, penalty):
    with pytest.raises(ConfigurationError):
        ad.assigned_nll(np.zeros((1, 2, 3)), y, on, penalty, 1.0)


@pytest.mark.parametrize("assigned", [1, 0])
def test_assigned_nll_names_itself_on_a_picked_minus_infinity(assigned):
    # An assigned -inf gives an infinite term; an unassigned one 0 * inf.
    with ad.deferred_checks():
        logp = ad.Tensor([[[-np.inf, 0.0], [math.log(0.5), math.log(0.5)]]], op="param")
    on = np.array([[assigned], [1]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="op 'assigned_nll'"):
            ad.assigned_nll(logp, [0, 0], on)
        with ad.deferred_checks():
            terms, _ = ad.assigned_nll(logp, [0, 0], on)
    assert not np.isfinite(terms.data).any()


def test_dense_checks_its_pre_activation_before_relu():
    # As matmul followed by relu does: an overflow to -inf that relu would
    # zero still raises under per-op checks, and names the fused op.
    x = ad.Tensor([[1e200, 1.0]], op="param")
    w = ad.Tensor([[-1e200], [0.0]], op="param")
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="op 'matmul'"):
            ad.relu(ad.matmul(x, w))
        with pytest.raises(NumericError, match="op 'dense'"):
            ad.dense(x, w, relu=True)
        with ad.deferred_checks():
            out = ad.dense(x, w, relu=True)
    assert np.array_equal(out.data, [[0.0]])


def test_conv2d_checks_its_pre_activation_before_relu():
    # As for dense: the -inf that relu would zero raises under per-op
    # checks, and names the convolution.
    x = ad.Tensor(np.array([1e200, 1.0]).reshape(1, 2, 1, 1), op="param")
    w = ad.Tensor(np.array([-1e200, 0.0]).reshape(1, 2, 1, 1), op="param")
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="op 'conv2d'"):
            ad.conv2d(x, w, relu=True)
        with ad.deferred_checks():
            out = ad.conv2d(x, w, relu=True)
    assert np.array_equal(out.data, np.zeros((1, 1, 1, 1)))


def test_dense_rejects_a_bias_that_widens_the_product():
    with pytest.raises(ConfigurationError, match="bias"):
        ad.dense(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 4))), np.ones((2, 2, 4)))


def test_matmul_rejects_bad_member_axes():
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.Tensor(np.ones((1, 2, 3, 4))), ad.Tensor(np.ones((4, 5))))
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((3, 5))))


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
    if name == "conv2d_relu":
        x = ad.Tensor(rng.normal(size=(2, 2, 4, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), op="param")
        b = ad.Tensor(rng.normal(size=3), op="param")
        probe = rng.normal(size=(2, 3, 4, 4))
        return lambda: ad.mul(ad.conv2d(x, w, b, relu=True), probe).sum(), [x, w, b]
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
    if name in ("dense_member_axis", "dense_shared_operand"):
        x = ad.Tensor(rng.normal(size=(2, 3, 4) if name == "dense_member_axis" else (3, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(2, 4, 2)), op="param")
        b = ad.Tensor(rng.normal(size=(2, 1, 2)), op="param")
        probe = rng.normal(size=(2, 3, 2))
        return lambda: ad.mul(ad.dense(x, w, b, relu=True), probe).sum(), [x, w, b]
    if name == "nll":
        logp = ad.Tensor(rng.normal(size=(2, 3, 4)), op="param")
        probe = rng.normal(size=(2, 3))
        return lambda: ad.mul(ad.nll(logp, [0, 2, 3]), probe).sum(), [logp]
    if name == "kl_uniform_to":
        logp = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        probe = rng.normal(size=3)
        return lambda: ad.mul(objective_reference._kl_uniform(logp), probe).sum(), [logp]
    if name in ("assigned_nll", "assigned_nll_uniform"):
        logp = ad.Tensor(rng.normal(size=(2, 5, 4)), op="param")
        on = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 0]])
        penalty = "aux" if name == "assigned_nll" else "uniform"
        probe = np.array([1.5, -0.5])
        terms = lambda: ad.assigned_nll(logp, [0, 2, 1, 2, 0], on, penalty, 0.75)[0]
        return lambda: ad.mul(terms(), probe).sum(), [logp]
    if name == "conv2d_members":  # member-major input, [M, F, C, kh, kw] kernels, relu
        x = ad.Tensor(rng.normal(size=(2, 2, 2, 4, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(2, 3, 2, 3, 3)), op="param")
        b = ad.Tensor(rng.normal(size=(2, 3)), op="param")
        probe = rng.normal(size=(2, 2, 3, 4, 4))
        return lambda: ad.mul(ad.conv2d(x, w, b, relu=True), probe).sum(), [x, w, b]
    if name == "conv2d_members_shared":  # one input shared by the members' filters
        x = ad.Tensor(rng.normal(size=(2, 2, 4, 4)), op="param")
        w = ad.Tensor(rng.normal(size=(3, 2, 2, 3, 3)), op="param")
        b = ad.Tensor(rng.normal(size=(3, 2)), op="param")
        probe = rng.normal(size=(3, 2, 2, 4, 4))
        return lambda: ad.mul(ad.conv2d(x, w, b), probe).sum(), [x, w, b]
    if name == "maxpool_members":
        x = ad.Tensor(rng.normal(size=(2, 2, 2, 4, 4)), op="param")
        probe = rng.normal(size=(2, 2, 2, 2, 2))
        return lambda: ad.mul(ad.maxpool2x2(x), probe).sum(), [x]
    if name == "concat_members":
        a = ad.Tensor(rng.normal(size=(3, 2, 2, 2)), op="param")
        probe = rng.normal(size=(2, 6, 2))
        return lambda: ad.mul(ad.concat_members(a), probe).sum(), [a]
    if name == "permute_members":
        a = ad.Tensor(rng.normal(size=(3, 4, 2)), op="param")
        perms = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0], [0, 2, 1]])
        probe = rng.normal(size=(3, 4, 2))
        return lambda: ad.mul(ad.permute_members(a, perms), probe).sum(), [a]
    if name == "mean":
        x = ad.Tensor(rng.normal(size=(3, 4, 2)), op="param")
        return lambda: ad.mul(x.mean(axis=(1, 2)), np.array([1.0, -2.0, 0.5])).sum(), [x]
    if name == "log_softmax":
        x = ad.Tensor(rng.normal(size=(2, 4, 3)), op="param")
        probe = rng.normal(size=(2, 4, 3))
        return lambda: ad.mul(ad.log_softmax(x, axis=1), probe).sum(), [x]
    if name == "softmax_cross_entropy":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        return lambda: ad.nll(ad.log_softmax(x), [0, 2, 3]).sum(), [x]
    if name == "cross_entropy_composed":  # member-major, as training composes it
        a = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        b = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        probe = rng.normal(size=(2, 3))
        return lambda: ad.mul(ad.nll(ad.log_softmax(objective_reference.stack([a, b])), [1, 1, 2]), probe).sum(), [a, b]
    if name == "kl_uniform":
        x = ad.Tensor(rng.normal(size=(3, 4)), op="param")
        return lambda: objective_reference._kl_uniform(ad.log_softmax(x)).sum(), [x]
    raise AssertionError(name)


def rng2_const(x):
    return np.random.default_rng(99).normal(size=x.shape[:2] + (x.shape[2] // 2, x.shape[3] // 2))


@pytest.mark.parametrize(
    "case",
    [
        "dense",
        "conv2d",
        "conv2d_relu",
        "maxpool",
        "relu",
        "sigmoid",
        "softmax",
        "log",
        "mul_broadcast",
        "concat",
        "matmul_member_axis",
        "matmul_shared_operand",
        "dense_member_axis",
        "dense_shared_operand",
        "nll",
        "kl_uniform_to",
        "assigned_nll",
        "assigned_nll_uniform",
        "conv2d_members",
        "conv2d_members_shared",
        "maxpool_members",
        "concat_members",
        "permute_members",
        "mean",
        "log_softmax",
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


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_sgd_updates_in_place_and_only_reads_the_gradient(weight_decay):
    p = ad.Tensor(RNG.normal(size=(2, 3)), op="param")
    storage = p.data
    g = RNG.normal(size=(2, 3))
    before = g.copy()
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=weight_decay)
    bufs = ad.sgd_step([p], [g], cfg)
    ad.sgd_step([p], [g], cfg, bufs)
    assert p.data is storage
    assert np.array_equal(g, before)


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_sgd_step_after_the_first_allocates_one_temporary(weight_decay):
    n = 1 << 17
    p, g = ad.Tensor(RNG.normal(size=n), op="param"), RNG.normal(size=n)
    cfg = ad.SgdConfig(weight_decay=weight_decay)
    bufs = ad.sgd_step([p], [g], cfg)
    tracemalloc.start()
    try:
        ad.sgd_step([p], [g], cfg, bufs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * 8


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


def _arena_params():
    """Parameters of several shapes and layouts: a transposed (F-ordered)
    matrix, a 0-d scalar, a [M, 1, out] bias and a 4-D kernel."""
    return [
        ad.Tensor(RNG.normal(size=(4, 3)).T, op="param"),
        ad.Tensor(RNG.normal(size=()), op="param"),
        ad.Tensor(RNG.normal(size=(2, 1, 5)), op="param"),
        ad.Tensor(RNG.normal(size=(3, 2, 3, 3)), op="param"),
    ]


def test_optimizer_packs_every_parameter_into_one_vector_unchanged():
    params = _arena_params()
    before = [(p.data.shape, p.data.tobytes()) for p in params]
    opt = ad.SgdOptimizer(params, ad.SgdConfig())
    vector = opt.arena.data
    assert vector.ndim == 1 and vector.flags.c_contiguous
    assert vector.size == opt.grad.size == sum(p.data.size for p in params)
    start = 0
    for p, (shape, raw) in zip(params, before):
        assert p.data.shape == shape and p.data.tobytes() == raw
        assert p.data.flags.c_contiguous and p.data.base is vector
        assert np.shares_memory(p.data, vector[start : start + p.data.size])
        start += p.data.size


def test_optimizer_steps_match_a_per_tensor_sgd_step_byte_for_byte():
    cfg = ad.SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=5e-4)
    packed = _arena_params()
    reference = [ad.Tensor(p.data.copy(), op="param") for p in packed]
    opt = ad.SgdOptimizer(packed, cfg)
    buffers = None
    for _ in range(3):
        grads = [RNG.normal(size=p.data.shape) for p in reference]
        for p, g in zip(packed, grads):
            p.grad = g
        opt.step(opt.gather())
        opt.zero_grad()
        buffers = ad.sgd_step(reference, grads, cfg, buffers)
    for p, ref in zip(packed, reference):
        assert p.data.tobytes() == ref.data.tobytes()


def test_optimizer_gather_raises_on_a_missing_gradient():
    p, q = ad.Tensor(np.ones(2), op="param"), ad.Tensor(np.ones(3), op="param")
    opt = ad.SgdOptimizer([p, q], ad.SgdConfig())
    p.grad = np.ones(2)
    with pytest.raises(StateError):
        opt.gather()
