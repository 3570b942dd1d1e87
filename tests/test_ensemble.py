"""Evaluation forward: the same probabilities as training's, without a graph."""
import math
import tracemalloc

import numpy as np
import pytest

import mclkit.autodiff as ad
import mclkit.ensemble as ensemble
from mclkit.data import load_checkpoint, save_checkpoint
from mclkit.ensemble import build_ensemble, ensemble_forward, member_probabilities
from mclkit.errors import NumericError
from mclkit.models import ArchitectureSpec, tile_examples

import eval_reference

RNG = np.random.default_rng(515)

CNN = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
# Tiles of 227 examples at M=2 and 151 at M=3: a recorded forward over 512 stays small.
SMALL_CNN = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2, conv_filters=(4, 8, 16))
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


def _tile_examples(members):
    """Examples per evaluation tile of ``SMALL_CNN``: conv2's patch bytes
    per example over all members decide (``models.tile_examples``)."""
    return (ad.MMAP_THRESHOLD - 1) // (members * 8 * 8 * 9 * SMALL_CNN.conv_filters[0] * 8)


def _counting_bodies(monkeypatch):
    calls = []
    body = ensemble._body

    def counted(state, x, *args):
        calls.append(x.shape[0])
        return body(state, x, *args)

    monkeypatch.setattr(ensemble, "_body", counted)
    return calls


@pytest.mark.parametrize("size", ["1", "5", "t-1", "t", "t+1", "512", "600"])
@pytest.mark.parametrize("fusion", ["none", "module", "share"])
@pytest.mark.parametrize("members", [2, 3])
def test_tiled_evaluation_is_bit_identical_to_the_reference_and_a_recorded_forward(
    members, fusion, size, monkeypatch
):
    # Every conv GEMM of a tile stays above OpenBLAS's small-matrix cutoff
    # (1e6 multiply-adds), so the tiles give the bits of one GEMM per chunk;
    # the head runs on the whole chunk, recorded or not.
    t = _tile_examples(members)
    n = {"1": 1, "5": 5, "t-1": t - 1, "t": t, "t+1": t + 1, "512": 512, "600": 600}[size]
    state = _ensemble(SMALL_CNN, fusion, members)
    x = _batch(SMALL_CNN, n)
    bodies = _counting_bodies(monkeypatch)
    tiled = member_probabilities(state, x)
    chunks = [min(512, n - start) for start in range(0, n, 512)]
    assert bodies == [
        hi - lo for c in chunks for k in [-(-c // t)] for lo, hi in
        ((c * i // k, c * (i + 1) // k) for i in range(k))
    ]
    assert np.array_equal(tiled, eval_reference.member_probabilities(state, x))
    expected = np.concatenate([_recorded_probabilities(state, x[i : i + 512]) for i in range(0, n, 512)])
    assert np.array_equal(tiled, expected)


def test_mlp_evaluation_runs_as_one_tile(monkeypatch):
    state = _ensemble(MLP, "module", 3)
    bodies = _counting_bodies(monkeypatch)
    out = member_probabilities(state, _batch(MLP, 600))
    assert bodies == [512, 88]
    assert out.shape == (600, 3, MLP.output_dim)


@pytest.mark.parametrize("fusion", ["none", "module"])
@pytest.mark.parametrize("members", [2, 3])
def test_member_probabilities_at_an_evaluation_chunk_holds_one_tile(members, fusion):
    # At the benchmark's shapes, 512 examples: one tile's working set (its
    # patch matrices, in one buffer below MMAP_THRESHOLD, and the rest) plus
    # the pooled features of the whole chunk. Peaks of 19.4-21.8 MiB; member
    # by member with 16 MiB blocks of patch rows they were 56-136 MiB.
    state = _ensemble(CNN, fusion, members)
    x = _batch(CNN, 512)
    member_probabilities(state, x)  # warm
    pooled = members * 512 * CNN.conv_filters[2] * 2 * 2 * 8
    assert _peak_bytes(lambda: member_probabilities(state, x)) < pooled + 2.5 * ad.MMAP_THRESHOLD


def test_member_probabilities_with_fusion_holds_no_features_of_every_member_past_the_mix():
    # A fusion module needs every member's tap before any member continues:
    # in a tile, not in the chunk. Untracked, its gate multiplies into the
    # projection's buffer and its inject adds into the taps' buffer, so a
    # fusion pass peaks less than a quarter of one tile's tap above a
    # no-fusion pass (0.08 of one example's tap, about 14 without the two
    # in-place steps; holding the chunk's fused features, 2 taps of it).
    x = _batch(CNN, 128)
    plain, fused = (_ensemble(CNN, fusion) for fusion in ("none", "module"))
    tiles = -(-128 // tile_examples(CNN, fused.layers.__getitem__, ad.MMAP_THRESHOLD))
    tile = -(-128 // tiles)
    tap_bytes = tile * math.prod(CNN.tap_shape) * 8
    growth = _peak_bytes(lambda: member_probabilities(fused, x)) - _peak_bytes(
        lambda: member_probabilities(plain, x)
    )
    assert growth < 0.25 * tap_bytes


def test_member_probabilities_names_conv2d_on_an_overflow_in_a_later_tile():
    # The chunk fails its deferred check and reruns with per-op checks.
    state = _ensemble(CNN, "none")
    x = _batch(CNN, 40)  # two tiles of 20
    x[-1, 0, 0, 0] = 1e200  # the last example: in the second tile
    state.layers["conv1.w"].data[:, :, 0, 1, 1] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="op 'conv2d'"):
            member_probabilities(state, x)
        x[-1, 0, 0, 0] = 1.0
        assert np.isfinite(member_probabilities(state, x)).all()


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
