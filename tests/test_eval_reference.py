"""The slice-wise evaluation path against its reduction-based form, bit for bit."""
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mclkit.autodiff as ad
from mclkit import ensemble
from mclkit.ensemble import _class_major_softmax, build_ensemble, member_probabilities
from mclkit.errors import NumericError
from mclkit.evaluation import ensemble_average, evaluate_ensemble, ood_score
from mclkit.fusion import FusionModule
from mclkit.models import ArchitectureSpec

import eval_reference as ref

WIDTHS = (1, 2, 5, 9)
# 6 rows take numpy's own reduction for the softmax max; 700 rows (at least
# 64·width per slice at every width here, 576 at width 9) the elementwise
# maximum of slices.
ROWS = (6, 700)


def _logits(shape, seed):
    # Wide logits, with repeated maxima in some rows.
    x = np.random.default_rng(seed).normal(scale=20.0, size=shape)
    x.reshape(-1)[::7] = x.reshape(-1)[0]
    return x


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("shape,axis", [  # W is the softmax axis, R a row count
    (("W",), 0), (("W",), -1), (("W", "R"), 0), ((2, "W", "R/2"), 1), ((2, "R/2", "W"), -1),
])
def test_softmax_bit_identical(width, rows, shape, axis):
    sizes = {"W": width, "R": rows, "R/2": rows // 2}
    shape = tuple(sizes.get(s, s) for s in shape)
    x = _logits(shape, width)
    p = ad.softmax(ad.Tensor(x), axis=axis)
    assert p.shape == shape
    assert np.array_equal(p.data, ref.softmax(x, axis=axis))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("rows", ROWS)
def test_softmax_bit_identical_on_a_channel_view_of_nhwc_memory(width, rows):
    nhwc = _logits((2, rows // 14 or 1, 7, width), width)
    nchw = nhwc.transpose(0, 3, 1, 2)
    assert width == 1 or not nchw.flags.c_contiguous
    p = ad.softmax(ad.Tensor(nchw), axis=1)
    assert np.array_equal(p.data, ref.softmax(nchw, axis=1))


def test_softmax_of_nan_names_softmax_outside_deferred_checks():
    x = ad.Tensor([1.0, 2.0, 3.0])
    x.data[1] = np.nan  # corrupt in place, so only softmax's own check can see it
    with pytest.raises(NumericError, match="op 'softmax'"):
        ad.softmax(x)
    with ad.deferred_checks():
        assert np.isnan(ad.softmax(x).data).all()


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("rows", ROWS)
def test_softmax_cross_entropy_bit_identical(width, rows):
    x = _logits((2, rows // 2, width), width + 1)
    y = np.random.default_rng(width).integers(0, width, size=rows // 2)
    logits = ad.Tensor(x, op="param")
    logp = ad.log_softmax(logits)
    ce = ad.nll(logp, y)
    ce.sum().backward()
    want_ce, want_grad = ref.softmax_cross_entropy(x, y)
    assert np.array_equal(logp.data, ref.log_softmax(x))
    assert np.array_equal(ce.data, want_ce)
    assert np.array_equal(logits.grad, want_grad)


@pytest.mark.parametrize("width", (1, 2, 5, 7, 8, 9, 17))
@pytest.mark.parametrize("members,rows", [(1, 1), (3, 11), (3, 512), (2, 700)])
def test_class_major_softmax_bit_identical(width, members, rows):
    # Widths 7 and 8 straddle the switch from slice adds to numpy's pairwise sum.
    x = _logits((members, rows, width), width + rows)
    p = _class_major_softmax(x)
    assert p.shape == (width, members, rows) and p.flags.c_contiguous
    assert np.array_equal(p, ref.softmax(x).transpose(2, 0, 1))


def _member_probs(b, m, width, rejected_rows, seed):
    probs = np.random.default_rng(seed).dirichlet(np.ones(width), size=(b, m))
    probs[rejected_rows] = np.eye(width)[-1]  # every member puts all mass on the auxiliary slot
    return probs


def _reference_evaluation(has_aux, probs, labels):
    """(per_model, averaged, normalized, oracle error, top-1 error) as the
    reduction-based post-processing and argmaxes give them."""
    per_model, averaged, normalized = ref.evaluate_predictions(has_aux, probs)
    oracle = 100.0 * float((per_model.argmax(axis=2) != labels[:, None]).all(axis=1).mean())
    top1 = 100.0 * float((averaged.argmax(axis=1) != labels).mean())
    return per_model, averaged, normalized, oracle, top1


def _assert_evaluation_equal(pred, report, want):
    got = (pred.per_model, pred.averaged, pred.normalized)
    for g, w in zip(got, want[:3]):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    assert (report.oracle_error, report.top1_error) == want[3:]


@pytest.mark.parametrize("m", [1, 2, 3, 9])
@pytest.mark.parametrize("has_aux", [True, False])
def test_evaluate_predictions_bit_identical(m, has_aux, caplog, monkeypatch):
    # evaluate_ensemble's chunk loop against the reference evaluate_predictions,
    # on logits fed through in place of a forward: every member puts all mass
    # on the auxiliary slot of rows 3 and 17 (exp(-1000) is exactly 0).
    width = 5
    logits = np.random.default_rng(m).normal(scale=3.0, size=(40, m, width))
    if has_aux:
        logits[[3, 17]] = 1000.0 * np.eye(width)[-1]
    monkeypatch.setattr(
        ensemble, "ensemble_forward",
        lambda state, x, train_mode: ad.Tensor(np.ascontiguousarray(x.transpose(1, 0, 2))),
    )
    state = SimpleNamespace(has_aux=has_aux, n_classes=width - has_aux, members=[None] * m)
    data = SimpleNamespace(features=logits, labels=np.random.default_rng(m + 1).integers(0, width - has_aux, 40))
    with caplog.at_level("WARNING"):
        pred, report = evaluate_ensemble(state, data, batch_size=16)
    probs = ref.softmax(np.ascontiguousarray(logits.transpose(1, 0, 2))).transpose(1, 0, 2)
    _assert_evaluation_equal(pred, report, _reference_evaluation(has_aux, probs, data.labels))
    messages = [r.message for r in caplog.records]
    if has_aux:
        assert not pred.normalized[[3, 17]].any()
        assert messages == ["2 example(s) rejected by all members"]
    else:
        assert not messages


@pytest.mark.parametrize("m", [1, 2, 3, 9])
@pytest.mark.parametrize("normalize", [False, True])
def test_ensemble_average_bit_identical(m, normalize):
    stripped = _member_probs(12, m, 5, [4], seed=10 + m)[..., :-1]  # a strided view
    assert np.array_equal(ensemble_average(stripped, normalize), ref.ensemble_average(stripped, normalize))
    one = stripped[0]
    assert np.array_equal(ensemble_average(one, normalize), ref.ensemble_average(one, normalize))
    rejected = stripped[4]
    assert np.array_equal(ensemble_average(rejected, normalize), ref.ensemble_average(rejected, normalize))


CNN = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
MLP = ArchitectureSpec(kind="mlp", input_shape=(8,), n_classes=3, hidden_sizes=(16, 16))
MLP9 = ArchitectureSpec(kind="mlp", input_shape=(8,), n_classes=9, hidden_sizes=(16,))


@pytest.mark.parametrize("arch,fusion,method", [
    (MLP, "none", "amcl"), (MLP, "module", "ie"), (CNN, "none", "smcl"), (CNN, "module", "amcl"), (CNN, "share", "amcl"),
])
def test_member_probabilities_matches_concatenated_chunks(arch, fusion, method):
    state = build_ensemble(
        method=method, arch=arch, members=3, overlap_k=1, t_tau=2, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=4,
    )
    x = np.random.default_rng(5).uniform(size=(11, *arch.input_shape))
    got = member_probabilities(state, x, batch_size=4)
    want = ref.member_probabilities(state, x, batch_size=4)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("arch,fusion,method,members", [
    (MLP, "none", "amcl", 3), (MLP, "none", "amcl", 1), (MLP, "none", "ie", 3), (MLP, "none", "smcl", 1),
    (MLP9, "none", "amcl", 3), (MLP9, "none", "cmcl", 3), (CNN, "none", "amcl", 3), (CNN, "module", "amcl", 3),
])
def test_evaluate_ensemble_bit_identical(arch, fusion, method, members):
    # 11 examples at 4 a chunk: the last chunk is short. Only amcl has the
    # auxiliary slot, as in training; MLP9's 9 or 10 slots take the pairwise
    # class sum.
    arch = replace(arch, aux_class=method == "amcl")
    state = build_ensemble(
        method=method, arch=arch, members=members, overlap_k=1, t_tau=2, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=8,
    )
    rng = np.random.default_rng(9)
    data = SimpleNamespace(
        features=rng.uniform(size=(11, *arch.input_shape)), labels=rng.integers(0, arch.n_classes, 11),
    )
    pred, report = evaluate_ensemble(state, data, batch_size=4)
    assert pred.per_model.shape == (11, members, arch.n_classes)
    probs = ref.member_probabilities(state, data.features, batch_size=4)
    _assert_evaluation_equal(pred, report, _reference_evaluation(state.has_aux, probs, data.labels))


@pytest.mark.parametrize("members", [2, 3, 9])
def test_ood_score_bit_identical(members):
    state = build_ensemble(
        method="amcl", arch=MLP, members=members, overlap_k=1, t_tau=2, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode="none", seed=6,
    )
    x = np.random.default_rng(7).uniform(size=(13, *MLP.input_shape))
    assert np.array_equal(ood_score(state, x, batch_size=5), ref.ood_score(state, x, batch_size=5))


@pytest.mark.parametrize("arch", [MLP, CNN], ids=["mlp", "cnn"])
def test_ood_score_streams_the_bits_of_the_full_probability_array(arch):
    from mclkit.evaluation import _member_mean

    state = build_ensemble(
        method="amcl", arch=arch, members=3, overlap_k=1, t_tau=2, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode="none", seed=6,
    )
    x = np.random.default_rng(7).uniform(size=(13, *arch.input_shape))
    for batch_size in (5, 13, 512):
        full = member_probabilities(state, x, batch_size=batch_size)
        want = _member_mean(full[:, :, -1:])[:, 0]
        assert np.array_equal(ood_score(state, x, batch_size=batch_size), want)


def _ops(root):
    return [node.op for node in ad.topo_order(root)]


@pytest.mark.parametrize("spatial", [False, True])
def test_inject_at_unit_scale_records_no_mul(spatial):
    tap_shape = (4, 3, 3) if spatial else (6,)
    fusion = FusionModule(members=2, tap_shape=tap_shape, seed=1)
    rng = np.random.default_rng(2)
    fused = ad.Tensor(rng.normal(size=(5, *tap_shape)), op="param")
    own = ad.Tensor(rng.normal(size=(2, 5, *tap_shape)), op="param")  # member-major taps
    got = fusion.inject(fused, own)
    assert "mul" not in _ops(got)
    want = ref.inject(fused, own, 1.0)
    assert "mul" in _ops(want)
    assert np.array_equal(got.data, want.data)
    got.sum().backward()
    assert np.array_equal(own.grad, np.ones(own.shape))
