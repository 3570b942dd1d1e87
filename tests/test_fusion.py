"""Fusion module and the stochastic feature-sharing baseline."""
import numpy as np
import pytest

import mclkit.autodiff as ad
from mclkit.errors import ConfigurationError
from mclkit.fusion import FusionModule, feature_share

from gradcheck import numeric_grad, assert_grads_close

RNG = np.random.default_rng(77)


def project(fm, taps):
    """The fusion module's projection of the concatenated member-major taps, before the gate."""
    cat = ad.concat(list(ad.as_tensor(taps).data), axis=1)
    if fm.spatial:
        return ad.conv2d(cat, fm.params["proj.w"], fm.params["proj.b"])
    return ad.dense(cat, fm.params["proj.w"], fm.params["proj.b"])


def test_identity_configuration_returns_input():
    # M=1: the averaging projection is the identity
    fm = FusionModule(members=1, tap_shape=(3, 4, 4), seed=0)
    t = ad.Tensor(RNG.normal(size=(1, 2, 3, 4, 4)))
    fused = project(fm, t)
    assert np.allclose(fused.data, t.data[0], atol=1e-12)


def test_equal_taps_average_projection_uniform_return():
    fm = FusionModule(members=3, tap_shape=(4, 4, 4), seed=0)
    t = np.abs(RNG.normal(size=(2, 4, 4, 4)))
    fused = project(fm, ad.Tensor(np.stack([t] * 3)))
    # averaging projection of three equal taps reproduces the tap itself,
    # and by construction every member receives this same tensor
    assert np.allclose(fused.data, t, atol=1e-12)


def test_fuse_output_identical_for_every_member_and_shape_stable():
    fm = FusionModule(members=2, tap_shape=(4, 8, 8), seed=3)
    taps = ad.Tensor(RNG.normal(size=(2, 3, 4, 8, 8)))
    feats = fm.member_features(taps)
    fused = fm.fuse(taps)
    assert fused.shape == taps.shape[1:]
    for m, feat in enumerate(feats.data):
        assert np.allclose(feat, fused.data + taps.data[m])


def test_gate_values_lie_in_unit_interval():
    fm = FusionModule(members=2, tap_shape=(8, 4, 4), seed=1)
    taps = ad.Tensor(RNG.normal(size=(2, 5, 8, 4, 4)))
    z_nogate = project(fm, taps)
    gated = fm.fuse(taps)
    ratio = gated.data / np.where(np.abs(z_nogate.data) > 1e-9, z_nogate.data, 1.0)
    inside = ratio[np.abs(z_nogate.data) > 1e-9]
    assert (inside > 0.0).all() and (inside < 1.0).all()


def test_mismatched_tap_shapes_rejected():
    fm = FusionModule(members=2, tap_shape=(3, 4, 4), seed=0)
    with pytest.raises(ConfigurationError):
        fm.fuse(ad.Tensor(RNG.normal(size=(2, 2, 3, 2, 2))))
    with pytest.raises(ConfigurationError):
        fm.fuse(ad.Tensor(RNG.normal(size=(3, 2, 3, 4, 4))))  # one member too many


def test_gradients_reach_every_member_tap():
    fm = FusionModule(members=3, tap_shape=(2, 4, 4), seed=5)
    taps = ad.Tensor(RNG.normal(size=(3, 2, 2, 4, 4)), op="param")
    probe = RNG.normal(size=(2, 2, 4, 4))

    def loss():
        return ad.mul(fm.member_features(taps), probe).sum()

    out = loss()
    out.backward()
    assert taps.grad is not None
    for m in range(3):
        assert np.abs(taps.grad[m]).max() > 0.0
    numeric = numeric_grad(lambda: float(loss()), taps.data)
    assert_grads_close(taps.grad, numeric)


def test_flat_tap_fusion_for_mlp_members():
    fm = FusionModule(members=2, tap_shape=(6,), seed=2)
    taps = ad.Tensor(RNG.normal(size=(2, 4, 6)))
    fused = fm.fuse(taps)
    assert fused.shape == (4, 6)


def test_feature_share_identity_at_zero():
    taps = ad.Tensor(RNG.normal(size=(2, 5, 3)))
    out = feature_share(taps, p_share=0.0, rng=1)
    for a, b in zip(out.data, taps.data):
        assert np.array_equal(a, b)


def test_feature_share_preserves_multiset_per_example():
    taps = ad.Tensor(RNG.normal(size=(3, 8, 4)))
    out = feature_share(taps, p_share=1.0, rng=7)
    stacked_in = taps.data.swapaxes(0, 1)
    stacked_out = out.data.swapaxes(0, 1)
    for b in range(8):
        got = {row.tobytes() for row in stacked_out[b]}
        want = {row.tobytes() for row in stacked_in[b]}
        assert got == want


def test_feature_share_frequency_monte_carlo():
    taps = ad.Tensor(RNG.normal(size=(2, 10_000, 2)))
    _, shared = feature_share(taps, p_share=0.5, rng=123, return_mask=True)
    freq = shared.mean()
    assert abs(freq - 0.5) <= 0.02


def test_feature_share_gradients_route_through_permutation():
    taps = ad.Tensor(RNG.normal(size=(2, 4, 3)), op="param")
    out, shared = feature_share(taps, p_share=1.0, rng=5, return_mask=True)
    total = ad.mul(out, np.array([1.0, 2.0]).reshape(2, 1, 1)).sum()
    total.backward()
    assert taps.grad is not None
    assert np.isfinite(taps.grad).all()
    # member d of each example passes gradient d + 1 back to the tap it received
    for b in range(4):
        for d in range(2):
            src = [s for s in range(2) if np.array_equal(taps.data[s, b], out.data[d, b])]
            assert [taps.grad[s, b, 0] for s in src] == [d + 1.0]
