"""Evaluation forward: the same probabilities as training's, without a graph."""
import tracemalloc

import numpy as np
import pytest

import mclkit.autodiff as ad
from mclkit.ensemble import build_ensemble, ensemble_forward, member_probabilities
from mclkit.errors import NumericError
from mclkit.models import ArchitectureSpec

RNG = np.random.default_rng(515)

CNN = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
MLP = ArchitectureSpec(kind="mlp", input_shape=(8,), n_classes=3, hidden_sizes=(16, 16))


def _ensemble(arch, fusion):
    return build_ensemble(
        method="amcl", arch=arch, members=2, overlap_k=1, t_tau=2, beta=0.75,
        gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=9,
    )


def _batch(arch, n):
    return RNG.uniform(size=(n, *arch.input_shape))


def _recorded_probabilities(state, x):
    """The forward with its graph recorded, kept alive until softmax is taken."""
    logits = ensemble_forward(state, x, train_mode=False)
    assert logits.parents
    return np.stack(list(ad.softmax(logits, axis=-1).data), axis=1)


@pytest.mark.parametrize("arch,fusion", [(MLP, "none"), (CNN, "none"), (CNN, "module")])
def test_member_probabilities_bit_identical_to_recorded_forward(arch, fusion):
    state = _ensemble(arch, fusion)
    x = _batch(arch, 12)
    expected = np.concatenate(
        [_recorded_probabilities(state, x[i : i + 5]) for i in range(0, 12, 5)]
    )
    assert np.array_equal(member_probabilities(state, x, batch_size=5), expected)


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


@pytest.mark.parametrize("arch,param,op", [(MLP, "dense2.w", "stack"), (CNN, "conv2.w", "conv2d")])
def test_member_probabilities_names_the_op_of_a_nonfinite_chunk(arch, param, op):
    state = _ensemble(arch, "none")
    state.members[1].params[param].data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=f"op '{op}'"):
        member_probabilities(state, _batch(arch, 6), batch_size=4)
