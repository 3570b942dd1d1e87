"""Evaluation forward: the same probabilities as training's, without a graph."""
import math
import tracemalloc

import numpy as np
import pytest

import mclkit.autodiff as ad
from mclkit.data import load_checkpoint, save_checkpoint
from mclkit.ensemble import build_ensemble, ensemble_forward, member_probabilities
from mclkit.errors import NumericError
from mclkit.models import ArchitectureSpec

RNG = np.random.default_rng(515)

CNN = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
MLP = ArchitectureSpec(kind="mlp", input_shape=(8,), n_classes=3, hidden_sizes=(16, 16))


def _ensemble(arch, fusion, members=2):
    return build_ensemble(
        method="amcl", arch=arch, members=members, overlap_k=1, t_tau=2, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=9,
    )


def _batch(arch, n):
    return RNG.uniform(size=(n, *arch.input_shape))


def _recorded_probabilities(state, x):
    """The forward with its graph recorded, kept alive until softmax is taken."""
    logits = ensemble_forward(state, x, train_mode=False)
    assert logits.parents
    return np.stack(list(ad.softmax(logits, axis=-1).data), axis=1)


@pytest.mark.parametrize("arch,fusion", [(MLP, "none"), (CNN, "none"), (CNN, "module"), (MLP, "module")])
def test_member_probabilities_bit_identical_to_recorded_forward(arch, fusion):
    state = _ensemble(arch, fusion)
    x = _batch(arch, 12)
    expected = np.concatenate(
        [_recorded_probabilities(state, x[i : i + 5]) for i in range(0, 12, 5)]
    )
    assert np.array_equal(member_probabilities(state, x, batch_size=5), expected)


@pytest.mark.parametrize("arch", [MLP, CNN], ids=["mlp", "cnn"])
@pytest.mark.parametrize("fusion", ["none", "module"])
def test_every_parameter_is_c_contiguous_fresh_and_loaded(arch, fusion, tmp_path):
    # A matmul's bits depend on its operands' layout, and sgd_step updates in
    # place: a parameter must start out in the layout it keeps.
    state = _ensemble(arch, fusion)
    save_checkpoint(state, tmp_path / "ck.amc1")
    for s in (state, load_checkpoint(tmp_path / "ck.amc1")):
        assert len(s.parameters()) == len(s.layers) + (6 if fusion == "module" else 0)
        assert all(p.data.flags.c_contiguous for p in s.parameters())


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fusion", ["none", "module"])
def test_member_probabilities_peak_memory_under_half_of_recorded_forward(fusion):
    state = _ensemble(CNN, fusion)
    x = _batch(CNN, 16)
    free = _peak_bytes(lambda: member_probabilities(state, x))
    recorded = _peak_bytes(lambda: _recorded_probabilities(state, x))
    assert free < 0.5 * recorded


def test_member_probabilities_without_fusion_holds_one_member_trunk_at_a_time():
    # Nothing mixes features, so each member runs to its logits before the
    # next starts: two more members cost less than one tap (8 MiB here).
    x = _batch(CNN, 128)
    tap_bytes = 128 * math.prod(CNN.tap_shape) * 8
    one, three = (_ensemble(CNN, "none", members) for members in (1, 3))
    growth = _peak_bytes(lambda: member_probabilities(three, x)) - _peak_bytes(
        lambda: member_probabilities(one, x)
    )
    assert growth < tap_bytes


def test_member_probabilities_with_fusion_holds_no_features_of_every_member_past_the_mix():
    # A fusion module needs every member's tap before any member continues.
    # Untracked, its gate multiplies into the projection's buffer and its
    # inject adds into the taps' buffer; each member's features are then
    # max-pooled out and that buffer freed. So the peak (3 taps at M=2: the
    # taps and the fused tensor) is less than one tap above a no-fusion pass;
    # holding both members' features through the first member's trunk costs 2.
    x = _batch(CNN, 128)
    tap_bytes = 128 * math.prod(CNN.tap_shape) * 8
    plain, fused = (_ensemble(CNN, fusion) for fusion in ("none", "module"))
    growth = _peak_bytes(lambda: member_probabilities(fused, x)) - _peak_bytes(
        lambda: member_probabilities(plain, x)
    )
    assert growth < 1.5 * tap_bytes


@pytest.mark.parametrize("arch,param,op", [(MLP, "dense2.w", "dense"), (CNN, "conv2.w", "conv2d")])
def test_member_probabilities_names_the_op_of_a_nonfinite_chunk(arch, param, op):
    state = _ensemble(arch, "none")
    state.members[1].params[param].data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=f"op '{op}'"):
        member_probabilities(state, _batch(arch, 6), batch_size=4)


@pytest.mark.parametrize("arch", [MLP, CNN])
def test_member_params_are_writable_views_of_the_ensemble_layers(arch):
    state = _ensemble(arch, "none")
    assert state.parameters() == list(state.layers.values())
    for name, layer in state.layers.items():
        view = state.members[1].params[name].data
        view.flat[-1] = 7.5
        assert layer.data.shape[0] == 2
        assert layer.data[1].size == view.size
        assert layer.data[1].flat[-1] == 7.5
        assert layer.data[0].flat[-1] != 7.5


def test_fusion_projection_conv_makes_no_padded_copy_of_its_input():
    # The 1x1 projection reads the concatenated taps, which are NHWC in
    # memory, as its patch matrix: only the output is allocated.
    state = _ensemble(CNN, "module")
    taps = [ad.Tensor(RNG.uniform(size=(16, 16, 16, 32)).transpose(0, 3, 1, 2)) for _ in range(2)]
    w, b = state.fusion.params["proj.w"], state.fusion.params["proj.b"]
    with ad.no_graph():
        cat = ad.concat(taps, axis=1)
        nchw = ad.Tensor(cat.data.copy())  # NCHW in memory: its patch matrix is a copy
        out_bytes = ad.conv2d(cat, w, b).data.nbytes
        assert _peak_bytes(lambda: ad.conv2d(cat, w, b)) < 1.5 * out_bytes
        assert _peak_bytes(lambda: ad.conv2d(nchw, w, b)) > 2.5 * out_bytes
