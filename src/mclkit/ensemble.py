"""Ensemble state: the member-axis layers and their member views, optional
fusion, and assignment memory."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, NumericError
from .fusion import FusionModule, feature_share
from .losses import AssignmentCounter, SpecializationMatrix
from .models import ArchitectureSpec, MemberModel, init_member, mlp_layers, stack_layers

METHODS = ("ie", "smcl", "cmcl", "amcl")
FUSION_MODES = ("none", "module", "share")
EVAL_BATCH = 512  # examples per evaluation forward


@dataclass
class EnsembleState:
    """``layers`` maps each layer to its [M, …] parameter tensor; ``members`` view its slots."""

    method: str
    layers: dict
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
    members: list = field(init=False)

    def __post_init__(self):
        count = next(iter(self.layers.values())).shape[0]
        self.members = [MemberModel(self.arch, self.layers, m) for m in range(count)]

    @property
    def has_aux(self) -> bool:
        return self.arch.aux_class

    def parameters(self) -> list:
        params = list(self.layers.values())
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
    layers = stack_layers(arch, [init_member(arch, m, seed) for m in range(members)])
    fusion = None
    if fusion_mode == "module":
        fusion = FusionModule(members=members, tap_shape=arch.tap_shape, seed=seed)
    counter = AssignmentCounter.empty(arch.n_classes, members) if method == "amcl" else None
    return EnsembleState(
        method=method,
        layers=layers,
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

    MLP members run together, one member-axis ``dense`` node per layer. CNN
    conv trunks run per member on its slots of the layers, and their logits
    are stacked. When nothing mixes features (no fusion stage, or feature
    sharing at inference: it shuffles only during training), each CNN
    member runs from input to logits before the next starts, so under
    ``no_graph`` one member's trunk is in memory at a time. Fusion needs all
    member taps before any member continues, so with a mixing stage the taps
    are taken per member and routed through it. Each tap and feature is
    dropped once it has been consumed.
    """
    x = ad.as_tensor(x)
    mlp = state.arch.kind == "mlp"
    mixes = state.fusion_mode == "module" or (state.fusion_mode == "share" and train_mode)
    if not mixes:
        if mlp:
            state.members[0]._check_batch(x)
            return mlp_layers(state.arch, state.layers.__getitem__, x, 1)
        return ad.stack([m.forward_from_tap(m.forward_to_tap(x)) for m in state.members])
    taps = [member.forward_to_tap(x) for member in state.members]
    if state.fusion_mode == "module":
        feats = state.fusion.member_features(taps)
    else:
        if share_rng is None:
            raise ConfigurationError("feature sharing needs a seeded generator")
        feats = feature_share(taps, p_share=state.p_share, rng=share_rng)
    del taps
    if mlp:
        return mlp_layers(state.arch, state.layers.__getitem__, ad.stack(feats), 2)
    logits = []
    for m, member in enumerate(state.members):
        logits.append(member.forward_from_tap(feats[m]))
        feats[m] = None  # under no_graph nothing else holds it
    return ad.stack(logits)


def member_probabilities(state: EnsembleState, features, batch_size: int = EVAL_BATCH) -> np.ndarray:
    """Stacked softmax outputs [N, M, width], ``batch_size`` examples at a time,
    written into one C-ordered array.

    Each chunk runs the ordinary forward under ``no_graph``: the arithmetic
    is that of a training forward, but no graph is recorded, so activations
    are freed once the next layer has consumed them. Without a fusion stage
    a CNN chunk holds one member's trunk at a time; with one, every member's
    tap lives until its member has continued past it. Only the probabilities
    are checked; a failing chunk reruns with per-op checks.
    """
    def chunk_probs(chunk, deferred):
        with ad.deferred_checks(deferred):
            probs = ad.softmax(ensemble_forward(state, chunk, train_mode=False), axis=-1).data
        ad._check_finite(probs, "probabilities")
        return probs.transpose(1, 0, 2)

    n = features.shape[0]
    out = np.empty((n, len(state.members), state.arch.output_dim))
    with ad.no_graph():
        for start in range(0, n, batch_size):
            chunk = features[start : start + batch_size]
            try:
                out[start : start + batch_size] = chunk_probs(chunk, deferred=True)
            except NumericError:
                chunk_probs(chunk, deferred=False)
                raise
    # The chunks' freed activations would otherwise stay resident in the heap
    # and raise the next pass's peak by where they happened to lie.
    ad.release_heap()
    return out
