"""Cross-member feature combination at the tap point.

Two schemes live here: the trainable fusion module (concat -> 1x1 projection
-> channel gate, shared across the ensemble) and the stochastic feature
sharing baseline that permutes member features per example.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError
from .models import he_uniform


class FusionModule:
    """Attention-gated fusion of the members' tap features.

    The concatenated taps are projected back to a single member's channel
    count by a projection that starts as their average, gated by a
    squeeze-excitation style channel attention (hidden width a quarter of
    the channels), and the same fused tensor is handed back to every member.
    Each member then receives ``fused + own_tap``.
    """

    def __init__(self, members: int, tap_shape: tuple, seed: int):
        if members < 1:
            raise ConfigurationError("fusion needs at least one member")
        self.members = members
        self.tap_shape = tuple(tap_shape)
        self.spatial = len(self.tap_shape) == 3
        channels = self.tap_shape[0]
        self.channels = channels
        hidden = max(1, channels // 4)
        rng = np.random.default_rng([seed, members, 77])

        proj = np.zeros((channels, members * channels))
        for c in range(channels):
            proj[c, c::channels] = 1.0 / members

        self.params: dict[str, ad.Tensor] = {}
        if self.spatial:
            self.params["proj.w"] = ad.Tensor(proj[:, :, None, None], op="param")
        else:
            self.params["proj.w"] = ad.Tensor(np.ascontiguousarray(proj.T), op="param")
        self.params["proj.b"] = ad.Tensor(np.zeros(channels), op="param")
        self.params["gate1.w"] = ad.Tensor(he_uniform(rng, (channels, hidden), channels), op="param")
        self.params["gate1.b"] = ad.Tensor(np.zeros(hidden), op="param")
        self.params["gate2.w"] = ad.Tensor(he_uniform(rng, (hidden, channels), hidden), op="param")
        self.params["gate2.b"] = ad.Tensor(np.zeros(channels), op="param")

    def parameters(self) -> list:
        return list(self.params.values())

    def _check_taps(self, taps) -> None:
        if len(taps) != self.members:
            raise ConfigurationError(
                f"expected {self.members} tap tensors, got {len(taps)}"
            )
        shapes = {tuple(t.shape) for t in taps}
        if len(shapes) != 1:
            raise ConfigurationError(f"tap shapes differ: {sorted(shapes)}")
        shape = shapes.pop()
        if tuple(shape[1:]) != self.tap_shape:
            raise ConfigurationError(
                f"tap shape {tuple(shape[1:])} does not match module shape {self.tap_shape}"
            )

    def fuse(self, taps) -> ad.Tensor:
        """Combine all taps into the single shared feature tensor."""
        taps = [ad.as_tensor(t) for t in taps]
        self._check_taps(taps)
        cat = ad.concat(taps, axis=1)
        if self.spatial:
            z = ad.conv2d(cat, self.params["proj.w"], self.params["proj.b"])
        else:
            z = ad.dense(cat, self.params["proj.w"], self.params["proj.b"])
        del cat  # under no_graph this frees the concatenated taps before the gate
        squeeze = z.mean(axis=(2, 3)) if self.spatial else z
        gate = ad.sigmoid(
            ad.dense(
                ad.dense(squeeze, self.params["gate1.w"], self.params["gate1.b"], relu=True),
                self.params["gate2.w"],
                self.params["gate2.b"],
            )
        )
        if self.spatial:
            gate = gate.reshape(-1, self.channels, 1, 1)
        return ad.mul(z, gate)

    def inject(self, fused: ad.Tensor, own_tap) -> ad.Tensor:
        """Feature a member continues from: shared fused + own tap."""
        return ad.add(fused, ad.as_tensor(own_tap))

    def member_features(self, taps) -> list:
        """fuse + inject for every member in one call."""
        taps = [ad.as_tensor(t) for t in taps]
        fused = self.fuse(taps)
        return [self.inject(fused, t) for t in taps]


def feature_share(taps, p_share: float, rng, return_mask: bool = False):
    """Per example, permute member features uniformly with probability p_share.

    The permutation may be the identity; the multiset of member features is
    preserved exactly per example. ``rng`` is an int seed or a Generator.
    """
    if not 0.0 <= p_share <= 1.0:
        raise ConfigurationError("p_share must lie in [0, 1]")
    taps = [ad.as_tensor(t) for t in taps]
    shapes = {tuple(t.shape) for t in taps}
    if len(shapes) != 1:
        raise ConfigurationError(f"tap shapes differ: {sorted(shapes)}")
    rng = np.random.default_rng(rng)
    m = len(taps)
    bsz = taps[0].shape[0]
    perms = np.tile(np.arange(m), (bsz, 1))
    shared = rng.random(bsz) < p_share
    for b in np.flatnonzero(shared):
        perms[b] = rng.permutation(m)

    trailing = (1,) * (taps[0].ndim - 1)
    out = []
    for dest in range(m):
        acc = None
        for src in range(m):
            mask = (perms[:, dest] == src).astype(np.float64)
            if not mask.any():
                continue
            term = ad.mul(taps[src], mask.reshape(bsz, *trailing))
            acc = term if acc is None else ad.add(acc, term)
        out.append(acc)
    if return_mask:
        return out, shared
    return out
