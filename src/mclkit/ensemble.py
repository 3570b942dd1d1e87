"""Ensemble state: member models, optional fusion, and assignment memory."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, NumericError
from .fusion import FusionModule, feature_share
from .losses import AssignmentCounter, SpecializationMatrix
from .models import ArchitectureSpec, MemberModel, build_member, mlp_forward, mlp_layers

METHODS = ("ie", "smcl", "cmcl", "amcl")
FUSION_MODES = ("none", "module", "share")


@dataclass
class EnsembleState:
    method: str
    members: list
    fusion: FusionModule | None
    fusion_mode: str
    arch: ArchitectureSpec
    n_classes: int
    overlap_k: int
    t_tau: int
    beta: float
    gamma: float
    p_share: float
    seed: int
    counter: AssignmentCounter | None = None
    specialization: SpecializationMatrix | None = None

    @property
    def has_aux(self) -> bool:
        return self.arch.aux_class

    @property
    def phase(self) -> str:
        if self.specialization is not None and self.specialization.frozen:
            return "mba"
        return "lba"

    def parameters(self) -> list:
        params = [p for member in self.members for p in member.parameters()]
        if self.fusion is not None:
            params.extend(self.fusion.parameters())
        return params


def build_ensemble(
    method: str,
    arch: ArchitectureSpec,
    members: int,
    overlap_k: int,
    t_tau: int,
    beta: float,
    gamma: float,
    p_share: float,
    fusion_mode: str,
    seed: int,
) -> EnsembleState:
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}")
    if fusion_mode not in FUSION_MODES:
        raise ConfigurationError(f"unknown fusion mode {fusion_mode!r}")
    if members < 1:
        raise ConfigurationError("need at least one member")
    if not 1 <= overlap_k <= members:
        raise ConfigurationError(
            f"K must satisfy 1 <= K <= M (got K={overlap_k}, M={members})"
        )
    model_list = [build_member(arch, m, seed) for m in range(members)]
    fusion = None
    if fusion_mode == "module":
        fusion = FusionModule(members=members, tap_shape=arch.tap_shape, seed=seed)
    counter = AssignmentCounter.empty(arch.n_classes, members) if method == "amcl" else None
    return EnsembleState(
        method=method,
        members=model_list,
        fusion=fusion,
        fusion_mode=fusion_mode,
        arch=arch,
        n_classes=arch.n_classes,
        overlap_k=overlap_k,
        t_tau=t_tau,
        beta=beta,
        gamma=gamma,
        p_share=p_share,
        seed=seed,
        counter=counter,
    )


def ensemble_forward(state: EnsembleState, x, train_mode: bool = False, share_rng=None) -> ad.Tensor:
    """Forward every member; returns member-major logits [M, B, C].

    MLP members run together, one member-axis matmul per dense layer. CNN
    conv trunks run per member, and their logits are stacked. Fusion needs
    all member taps before any member continues, so with a fusion stage the
    taps are taken per member and routed through it. Feature sharing only
    shuffles during training; at inference the members keep their own
    features.
    """
    x = ad.as_tensor(x)
    mlp = state.arch.kind == "mlp"
    mixes = state.fusion_mode == "module" or (state.fusion_mode == "share" and train_mode)
    if mlp and not mixes:
        return mlp_forward(state.members, x)
    taps = [member.forward_to_tap(x) for member in state.members]
    if state.fusion_mode == "module":
        feats = state.fusion.member_features(taps)
    elif mixes:
        if share_rng is None:
            raise ConfigurationError("feature sharing needs a seeded generator")
        feats = feature_share(taps, p_share=state.p_share, rng=share_rng)
    else:
        feats = taps
    if mlp:
        return mlp_layers(state.members, ad.stack(feats), 2)
    return ad.stack([member.forward_from_tap(f) for member, f in zip(state.members, feats)])


def member_probabilities(state: EnsembleState, features, batch_size: int = 512) -> np.ndarray:
    """Stacked softmax outputs [N, M, width], ``batch_size`` examples at a time.

    Each chunk runs the ordinary forward under ``no_graph``: the arithmetic
    is that of a training forward, but no graph is recorded, so activations
    are freed once the next layer has consumed them (per-member taps, where
    the forward takes them, live until every member has continued). Only the
    probabilities are checked; a failing chunk reruns with per-op checks.
    """
    def chunk_probs(chunk, deferred):
        with ad.deferred_checks(deferred):
            probs = ad.softmax(ensemble_forward(state, chunk, train_mode=False), axis=-1).data
        ad._check_finite(probs, "probabilities")
        return probs.transpose(1, 0, 2)

    chunks = []
    n = features.shape[0]
    with ad.no_graph():
        for start in range(0, n, batch_size):
            chunk = features[start : start + batch_size]
            try:
                chunks.append(chunk_probs(chunk, deferred=True))
            except NumericError:
                chunk_probs(chunk, deferred=False)
                raise
    return np.concatenate(chunks, axis=0)
