"""Fusion module and the stochastic feature-sharing baseline."""
import numpy as np
import pytest

import mclkit.autodiff as ad
from mclkit.errors import ConfigurationError
from mclkit.fusion import FusionModule, feature_share

from gradcheck import numeric_grad, assert_grads_close

RNG = np.random.default_rng(77)


def project(fm, taps):
    """The fusion module's projection of the concatenated taps, before the gate."""
    cat = ad.concat(taps, axis=1)
    if fm.spatial:
        return ad.conv2d(cat, fm.params["proj.w"], fm.params["proj.b"])
    return ad.dense(cat, fm.params["proj.w"], fm.params["proj.b"])


def test_identity_configuration_returns_input():
    # M=1: the averaging projection is the identity
    fm = FusionModule(members=1, tap_shape=(3, 4, 4), seed=0)
    t = ad.Tensor(RNG.normal(size=(2, 3, 4, 4)))
    fused = project(fm, [t])
    assert np.allclose(fused.data, t.data, atol=1e-12)


def test_equal_taps_average_projection_uniform_return():
    fm = FusionModule(members=3, tap_shape=(4, 4, 4), seed=0)
    t = np.abs(RNG.normal(size=(2, 4, 4, 4)))
    fused = project(fm, [ad.Tensor(t) for _ in range(3)])
    # averaging projection of three equal taps reproduces the tap itself,
    # and by construction every member receives this same tensor
    assert np.allclose(fused.data, t, atol=1e-12)


def test_fuse_output_identical_for_every_member_and_shape_stable():
    fm = FusionModule(members=2, tap_shape=(4, 8, 8), seed=3)
    taps = [ad.Tensor(RNG.normal(size=(3, 4, 8, 8))) for _ in range(2)]
    feats = fm.member_features(taps)
    fused = fm.fuse(taps)
    assert fused.shape == taps[0].shape
    for m, feat in enumerate(feats):
        assert np.allclose(feat.data, fused.data + taps[m].data)


def test_gate_values_lie_in_unit_interval():
    fm = FusionModule(members=2, tap_shape=(8, 4, 4), seed=1)
    taps = [ad.Tensor(RNG.normal(size=(5, 8, 4, 4))) for _ in range(2)]
    z_nogate = project(fm, taps)
    gated = fm.fuse(taps)
    ratio = gated.data / np.where(np.abs(z_nogate.data) > 1e-9, z_nogate.data, 1.0)
    inside = ratio[np.abs(z_nogate.data) > 1e-9]
    assert (inside > 0.0).all() and (inside < 1.0).all()


def test_mismatched_tap_shapes_rejected():
    fm = FusionModule(members=2, tap_shape=(3, 4, 4), seed=0)
    with pytest.raises(ConfigurationError):
        fm.fuse([ad.Tensor(RNG.normal(size=(2, 3, 4, 4))), ad.Tensor(RNG.normal(size=(2, 3, 2, 2)))])


def test_gradients_reach_every_member_tap():
    fm = FusionModule(members=3, tap_shape=(2, 4, 4), seed=5)
    taps = [ad.Tensor(RNG.normal(size=(2, 2, 4, 4)), op="param") for _ in range(3)]
    probe = RNG.normal(size=(2, 2, 4, 4))

    def loss():
        feats = fm.member_features(taps)
        total = None
        for f in feats:
            term = ad.mul(f, probe).sum()
            total = term if total is None else ad.add(total, term)
        return total

    out = loss()
    out.backward()
    for tap in taps:
        assert tap.grad is not None
        assert np.abs(tap.grad).max() > 0.0
        numeric = numeric_grad(lambda: float(loss()), tap.data)
        assert_grads_close(tap.grad, numeric)
        tap.grad = None


def test_flat_tap_fusion_for_mlp_members():
    fm = FusionModule(members=2, tap_shape=(6,), seed=2)
    taps = [ad.Tensor(RNG.normal(size=(4, 6))) for _ in range(2)]
    fused = fm.fuse(taps)
    assert fused.shape == (4, 6)


def test_feature_share_identity_at_zero():
    taps = [ad.Tensor(RNG.normal(size=(5, 3))) for _ in range(2)]
    out = feature_share(taps, p_share=0.0, rng=1)
    for a, b in zip(out, taps):
        assert np.array_equal(a.data, b.data)


def test_feature_share_preserves_multiset_per_example():
    taps = [ad.Tensor(RNG.normal(size=(8, 4))) for _ in range(3)]
    out = feature_share(taps, p_share=1.0, rng=7)
    stacked_in = np.stack([t.data for t in taps], axis=1)
    stacked_out = np.stack([t.data for t in out], axis=1)
    for b in range(8):
        got = {row.tobytes() for row in stacked_out[b]}
        want = {row.tobytes() for row in stacked_in[b]}
        assert got == want


def test_feature_share_frequency_monte_carlo():
    taps = [ad.Tensor(RNG.normal(size=(10_000, 2))) for _ in range(2)]
    _, shared = feature_share(taps, p_share=0.5, rng=123, return_mask=True)
    freq = shared.mean()
    assert abs(freq - 0.5) <= 0.02


def test_feature_share_gradients_route_through_permutation():
    taps = [ad.Tensor(RNG.normal(size=(4, 3)), op="param") for _ in range(2)]
    out, shared = feature_share(taps, p_share=1.0, rng=5, return_mask=True)
    total = ad.add(ad.mul(out[0], 1.0).sum(), ad.mul(out[1], 2.0).sum())
    total.backward()
    for tap in taps:
        assert tap.grad is not None
        assert np.isfinite(tap.grad).all()
