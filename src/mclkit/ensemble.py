"""Ensemble state: the member-axis layers and their one-member views,
optional fusion, and assignment memory; the forward and the evaluation
chunk loop."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, NumericError
from .fusion import FusionModule, feature_share
from .losses import AssignmentCounter, SpecializationMatrix
from .models import ArchitectureSpec, MemberModel, features_from_tap, head, init_member, stack_layers
from .models import tile_examples, trunk_to_tap

METHODS = ("ie", "smcl", "cmcl", "amcl")
FUSION_MODES = ("none", "module", "share")
EVAL_BATCH = 512  # examples per evaluation forward


@dataclass
class EnsembleState:
    """``layers`` maps each layer to its [M, …] parameter tensor; ``members``
    are the one-member views of its slots."""

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

    One body over the ensemble's [M, …] layers: the trunk to the tap, the
    mixing stage (the fusion module, or feature sharing, which shuffles only
    during training), then the features from the tap (a CNN's pooled first)
    and the head. Under ``no_graph`` outside training, a CNN batch of more
    than one tile (``models.tile_examples`` under ``autodiff.MMAP_THRESHOLD``:
    28 examples at M=2, 18 at M=3 at the workloads' shapes) runs its body in
    near-equal tiles of batch rows into one [M, B, …] array of features, and
    the head once on the whole batch: the head's GEMM is small enough that
    its bits can change with its rows, a tile's convs are not.
    """
    x, arch, layer = ad.as_tensor(x), state.arch, state.layers.__getitem__
    rows = 0 if ad.recording() or train_mode or x.ndim != 4 else tile_examples(arch, layer, ad.MMAP_THRESHOLD)
    if not rows or x.shape[0] <= rows:
        return head(arch, layer, _body(state, x, train_mode, share_rng))
    bsz, tiles = x.shape[0], -(-x.shape[0] // rows)
    for i in range(tiles):
        lo, hi = bsz * i // tiles, bsz * (i + 1) // tiles
        part = _body(state, x.data[lo:hi], False, None).data
        if not i:
            feats = np.empty((part.shape[0], bsz, *part.shape[2:]))
        feats[:, lo:hi] = part
    return head(arch, layer, ad.as_tensor(feats))


def _body(state: EnsembleState, x, train_mode: bool, share_rng) -> ad.Tensor:
    """The head's input [M, B, …]: trunk to the tap, mixing stage, features."""
    arch, layer = state.arch, state.layers.__getitem__
    feats = trunk_to_tap(arch, layer, x)
    if state.fusion_mode == "module":
        feats = state.fusion.member_features(feats)
    elif state.fusion_mode == "share" and train_mode:
        if share_rng is None:
            raise ConfigurationError("feature sharing needs a seeded generator")
        feats = feature_share(feats, p_share=state.p_share, rng=share_rng)
    return features_from_tap(arch, layer, ad.maxpool2x2(feats) if arch.kind == "simple_cnn" else feats)


def _class_major_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis of member-major logits [M, B, W], laid out
    class-major [W, M, B], with the bits of ``e / e.sum(-1)`` on [M, B, W].

    One contiguous copy; the max is an elementwise maximum of class slices
    (exact), and subtract, ``exp`` and divide run in place. Below 8 classes
    the class sum is slice adds in index order, which give numpy's bits on
    that short axis; from 8 on numpy sums pairwise, so the sum is numpy's own
    last-axis ``sum`` of a C-ordered [M, B, W] copy.
    """
    p = logits.transpose(2, 0, 1).copy()
    top = p[0].copy()
    for row in p[1:]:
        np.maximum(top, row, out=top)
    p -= top
    np.exp(p, out=p)
    if len(p) < 8:
        total = p[0].copy()
        for row in p[1:]:
            total += row
    else:
        total = np.ascontiguousarray(p.transpose(1, 2, 0)).sum(axis=-1)
    p /= total
    return p


def _chunk_probabilities(state: EnsembleState, chunk, deferred: bool) -> np.ndarray:
    with ad.no_graph(), ad.deferred_checks(deferred):
        logits = ensemble_forward(state, chunk, train_mode=False).data
    probs = _class_major_softmax(logits)
    ad._check_finite(probs, "probabilities")
    return probs


def probability_chunks(state: EnsembleState, features, batch_size: int = EVAL_BATCH):
    """Yield ``(start, probs)`` for each chunk of ``batch_size`` examples from
    ``start`` on, ``probs`` being the members' class-major softmax [W, M, B].

    Each chunk runs the ordinary forward under ``no_graph``: no graph is
    recorded, so activations are freed once consumed. A CNN chunk runs in
    tiles of batch rows (see ``ensemble_forward``), all of the pass in one
    ``autodiff.conv_workspace``; an MLP chunk is one tile. Only the
    probabilities are checked; a failing chunk reruns with per-op checks.
    """
    with ad.conv_workspace():
        for start in range(0, features.shape[0], batch_size):
            chunk = features[start : start + batch_size]
            try:
                probs = _chunk_probabilities(state, chunk, deferred=True)
            except NumericError:
                _chunk_probabilities(state, chunk, deferred=False)
                raise
            yield start, probs


def member_probabilities(state: EnsembleState, features, batch_size: int = EVAL_BATCH) -> np.ndarray:
    """Stacked softmax outputs [N, M, width] in one C-ordered array, written
    chunk by chunk from ``probability_chunks``."""
    out = np.empty((features.shape[0], len(state.members), state.arch.output_dim))
    for start, probs in probability_chunks(state, features, batch_size):
        out[start : start + probs.shape[2]] = probs.transpose(2, 1, 0)
    return out
