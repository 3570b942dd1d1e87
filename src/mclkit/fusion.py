"""Cross-member feature combination at the tap point.

Two schemes live here: the trainable fusion module (channel concat -> 1x1
projection -> channel gate, shared across the ensemble) and the stochastic
feature sharing baseline that permutes member features per example. Both
take and return member-major features [M, B, …], one tensor for all members.
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

    def _check_taps(self, taps: ad.Tensor) -> None:
        if taps.ndim != len(self.tap_shape) + 2 or taps.shape[0] != self.members:
            raise ConfigurationError(
                f"expected member-major taps [{self.members}, B, …], got {tuple(taps.shape)}"
            )
        if tuple(taps.shape[2:]) != self.tap_shape:
            raise ConfigurationError(
                f"tap shape {tuple(taps.shape[2:])} does not match module shape {self.tap_shape}"
            )

    def fuse(self, taps) -> ad.Tensor:
        """Combine the member-major taps [M, B, …] into the single shared
        feature tensor [B, …]. The projection reads the taps' channel
        concatenation [B, M*C, …], which for conv2d's member-axis output over
        a shared input is a view of its NHWC buffer."""
        taps = ad.as_tensor(taps)
        self._check_taps(taps)
        cat = ad.concat_members(taps)
        if self.spatial:
            z = ad.conv2d(cat, self.params["proj.w"], self.params["proj.b"])
        else:
            z = ad.dense(cat, self.params["proj.w"], self.params["proj.b"])
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
        if ad.recording():
            return ad.mul(z, gate)
        z.data *= gate.data  # mul's bits, in the projection's own buffer
        return z

    def inject(self, fused: ad.Tensor, taps) -> ad.Tensor:
        """Features the members continue from: the shared fused tensor plus
        each member's own tap, as one broadcast add over the member axis."""
        return ad.add_members(taps, fused)

    def member_features(self, taps) -> ad.Tensor:
        """fuse + inject: member-major taps [M, B, …] to features [M, B, …].
        Under ``no_graph`` the inject adds into the taps' own buffer and
        returns them, so a caller hands its taps over: one buffer of every
        member's features fewer at the peak."""
        taps = ad.as_tensor(taps)
        fused = self.fuse(taps)
        if ad.recording():
            return self.inject(fused, taps)
        np.add(fused.data, taps.data, out=taps.data)  # the bits of inject's shared + members
        return taps


def feature_share(taps, p_share: float, rng, return_mask: bool = False):
    """Per example, permute member features uniformly with probability p_share.

    ``taps`` is member-major [M, B, …], and so is the result: one gather node
    (``permute_members``), whose backward scatters with the inverse
    permutations. The permutation may be the identity; the multiset of member
    features is preserved exactly per example. ``rng`` is an int seed or a
    Generator.
    """
    if not 0.0 <= p_share <= 1.0:
        raise ConfigurationError("p_share must lie in [0, 1]")
    taps = ad.as_tensor(taps)
    if taps.ndim < 2:
        raise ConfigurationError(f"feature_share expects member-major [M, B, …] taps, got {taps.shape}")
    rng = np.random.default_rng(rng)
    m, bsz = taps.shape[:2]
    perms = np.tile(np.arange(m), (bsz, 1))
    shared = rng.random(bsz) < p_share
    for b in np.flatnonzero(shared):
        perms[b] = rng.permutation(m)
    out = ad.permute_members(taps, perms)
    if return_mask:
        return out, shared
    return out
