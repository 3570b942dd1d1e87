"""Member architectures: shapes, seeding, and forward purity."""
import numpy as np
import pytest

import mclkit.autodiff as ad
from mclkit.ensemble import build_ensemble
from mclkit.errors import ConfigurationError
from mclkit.models import ArchitectureSpec, tile_examples, trunk_to_tap

RNG = np.random.default_rng(42)


def member(spec, index, seed):
    """Member ``index`` of a freshly built ensemble seeded with ``seed``."""
    state = build_ensemble(
        method="amcl", arch=spec, members=index + 1, overlap_k=1, t_tau=1, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode="none", seed=seed,
    )
    return state.members[index]


def pooled(model, tap):
    """What ``forward_from_tap`` takes: a CNN's tap max-pooled, an MLP's as it is."""
    return ad.maxpool2x2(tap) if model.spec.kind == "simple_cnn" else tap


def forward(model, x):
    """One member's logits and its own tap features."""
    tap = model.forward_to_tap(x)
    return model.forward_from_tap(pooled(model, tap)), tap


def predict_proba(model, batch):
    """Softmax class probabilities of one member, forwarded under ``no_graph``."""
    with ad.no_graph():
        logits, _ = forward(model, batch)
        return ad.softmax(logits, axis=-1).data


CNN_SPEC = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
MLP_SPEC = ArchitectureSpec(kind="mlp", input_shape=(8,), n_classes=3, hidden_sizes=(16, 16))


def test_cnn_emits_n_classes_plus_one_logits():
    model = member(CNN_SPEC, 0, seed=1)
    logits, tap = forward(model, RNG.uniform(size=(4, 1, 16, 16)))
    assert logits.shape == (4, 3)
    assert tap.shape == (4, 32, 16, 16)


def test_aux_flag_controls_head_width():
    spec = ArchitectureSpec(kind="mlp", input_shape=(8,), n_classes=3, aux_class=False)
    model = member(spec, 0, seed=1)
    logits, _ = forward(model, RNG.normal(size=(5, 8)))
    assert logits.shape == (5, 3)
    assert spec.output_dim == 3
    assert MLP_SPEC.output_dim == 4


def test_same_seed_same_member_bit_identical():
    a = member(CNN_SPEC, 1, seed=9)
    b = member(CNN_SPEC, 1, seed=9)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_same_seed_different_members_differ():
    a = member(CNN_SPEC, 0, seed=9)
    b = member(CNN_SPEC, 1, seed=9)
    checksums = [
        np.abs(model.params["conv1.w"].data).sum() for model in (a, b)
    ]
    assert checksums[0] != checksums[1]


def test_unsupported_kind_rejected():
    with pytest.raises(ConfigurationError):
        ArchitectureSpec(kind="resnet", input_shape=(3, 32, 32), n_classes=2)


def test_forward_member_shape_contract():
    model = member(MLP_SPEC, 0, seed=2)
    logits, tap = forward(model, RNG.normal(size=(6, 8)))
    assert logits.shape == (6, 4)
    assert tap.shape == (6, 16)


def test_forward_member_batch_mismatch():
    model = member(MLP_SPEC, 0, seed=2)
    with pytest.raises(ConfigurationError):
        forward(model, RNG.normal(size=(6, 9)))


def test_injecting_own_tap_is_identity():
    model = member(CNN_SPEC, 0, seed=3)
    x = RNG.uniform(size=(2, 1, 16, 16))
    logits_plain, tap = forward(model, x)
    logits_inj = model.forward_from_tap(pooled(model, tap.data))
    assert np.array_equal(logits_plain.data, logits_inj.data)


def test_injected_tap_shape_checked():
    model = member(CNN_SPEC, 0, seed=3)
    with pytest.raises(ConfigurationError):
        model.forward_from_tap(RNG.normal(size=(2, 16, 16, 16)))
    with pytest.raises(ConfigurationError):  # a tap not yet pooled
        model.forward_from_tap(RNG.normal(size=(2, 32, 16, 16)))


def test_two_members_same_input_different_logits():
    x = RNG.uniform(size=(3, 1, 16, 16))
    outs = []
    for m in range(2):
        model = member(CNN_SPEC, m, seed=5)
        logits, _ = forward(model, x)
        outs.append(logits.data.sum())
    assert outs[0] != outs[1]


def test_predict_proba_rows_are_distributions():
    model = member(MLP_SPEC, 0, seed=4)
    probs = predict_proba(model, RNG.normal(size=(10, 8)))
    assert probs.shape == (10, 4)
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_predict_proba_matches_recorded_forward():
    for spec, x in ((CNN_SPEC, RNG.uniform(size=(3, 1, 16, 16))), (MLP_SPEC, RNG.normal(size=(6, 8)))):
        model = member(spec, 0, seed=5)
        logits, _ = forward(model, x)
        assert np.array_equal(predict_proba(model, x), ad.softmax(logits, axis=-1).data)


def test_fresh_model_predicts_near_uniform():
    # head init is scaled down, so logits start close to zero
    for spec, shape in ((CNN_SPEC, (32, 1, 16, 16)), (MLP_SPEC, (32, 8))):
        model = member(spec, 0, seed=6)
        x = RNG.uniform(size=shape) if spec.kind == "simple_cnn" else RNG.normal(size=shape)
        probs = predict_proba(model, x)
        width = spec.output_dim
        assert np.abs(probs - 1.0 / width).max() < 0.2


def test_forward_is_pure():
    model = member(CNN_SPEC, 0, seed=7)
    x = RNG.uniform(size=(2, 1, 16, 16))
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    assert np.array_equal(a.data, b.data)


def test_strip_and_renormalize_yields_distribution():
    from mclkit.evaluation import strip_auxiliary

    model = member(CNN_SPEC, 0, seed=8)
    probs = predict_proba(model, RNG.uniform(size=(5, 1, 16, 16)))
    stripped = strip_auxiliary(probs)
    renorm = stripped / stripped.sum(axis=1, keepdims=True)
    assert np.abs(renorm.sum(axis=1) - 1.0).max() <= 1e-9


def test_cnn_input_divisibility_checked():
    with pytest.raises(ConfigurationError):
        ArchitectureSpec(kind="simple_cnn", input_shape=(1, 12, 12), n_classes=2)


def test_untracked_tap_is_one_2d_conv_of_every_members_filters(monkeypatch):
    # Over the shared input, the members' filters side by side form one
    # [M*F, C, kh, kw] kernel: the same GEMM as the member-axis call, so the
    # same bits and the same strides, through the 4-D ``conv2d``.
    state = build_ensemble(
        method="amcl", arch=CNN_SPEC, members=3, overlap_k=1, t_tau=1, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode="none", seed=4,
    )
    x = RNG.uniform(size=(5, 1, 16, 16))
    w, b = state.layers["conv1.w"], state.layers["conv1.b"]
    recorded = ad.conv2d_members(x, w, b, relu=True).data
    kernels = []
    conv2d = ad.conv2d

    def counted(x, w, *args, **kwargs):
        kernels.append(ad.as_tensor(w).shape)
        return conv2d(x, w, *args, **kwargs)

    monkeypatch.setattr(ad, "conv2d", counted)
    with ad.no_graph():
        tap = trunk_to_tap(CNN_SPEC, state.layers.__getitem__, x).data
    assert kernels == [(3 * 32, 1, 3, 3)]
    assert np.array_equal(tap, recorded)
    assert tap.strides == recorded.strides


@pytest.mark.parametrize("input_shape,filters,members,examples", [
    ((1, 16, 16), (32, 64, 128), 1, 56),  # conv2's patches decide: 147,456 bytes an example
    ((1, 16, 16), (32, 64, 128), 2, 28),  # the workloads' shapes
    ((1, 16, 16), (32, 64, 128), 3, 18),
    ((3, 16, 16), (2, 2, 2), 3, 151),  # conv1's one matrix of the shared input decides, whatever M
])
def test_tile_examples_keeps_every_conv_patch_matrix_below_the_limit(input_shape, filters, members, examples):
    spec = ArchitectureSpec(kind="simple_cnn", input_shape=input_shape, n_classes=2, conv_filters=filters)
    state = build_ensemble(
        method="amcl", arch=spec, members=members, overlap_k=1, t_tau=1, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode="none", seed=4,
    )
    assert tile_examples(spec, state.layers.__getitem__, ad.MMAP_THRESHOLD) == examples


def test_tile_examples_of_an_mlp_is_zero():
    state = build_ensemble(
        method="amcl", arch=MLP_SPEC, members=2, overlap_k=1, t_tau=1, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode="none", seed=4,
    )
    assert tile_examples(MLP_SPEC, state.layers.__getitem__, ad.MMAP_THRESHOLD) == 0
