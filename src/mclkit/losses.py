"""Ensemble objectives and assignment machinery.

Covers the independent-ensemble sum, the oracle loss, the stochastic top-K
relaxation, the confident (uniform-penalty) variant, and the auxiliary-class
objectives with loss-based and memory-based assignment, plus the cumulative
count matrix from which the fixed specialization is derived.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, InputError, StateError

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def append_auxiliary(y: int, n_classes: int) -> np.ndarray:
    """One-hot of length n_classes + 1 with the ground-truth slot set."""
    if not 0 <= y < n_classes:
        raise InputError(f"label {y} out of range for {n_classes} classes")
    out = np.zeros(n_classes + 1)
    out[y] = 1.0
    return out


def auxiliary_target(n_classes: int) -> np.ndarray:
    """One-hot with only the auxiliary slot (index n_classes) set."""
    out = np.zeros(n_classes + 1)
    out[-1] = 1.0
    return out


def augment_labels(y, n_classes: int) -> np.ndarray:
    """Batch form of append_auxiliary: [B] class indices -> [B, n_classes+1]."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise InputError("labels out of range")
    out = np.zeros((y.shape[0], n_classes + 1))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def one_hot(y, n_classes: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise InputError("labels out of range")
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _as_label_matrix(labels, width: int, aux: bool) -> np.ndarray:
    """Normalize labels to a one-hot [B, width] matrix and validate it."""
    arr = np.asarray(labels, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise InputError(f"labels must be one-hot of width {width}")
    hot = arr.argmax(axis=1)
    onehot = np.zeros_like(arr)
    onehot[np.arange(arr.shape[0]), hot] = 1.0
    if not np.array_equal(arr, onehot):
        raise InputError("labels must be exactly one-hot")
    if aux and np.any(hot == width - 1):
        raise InputError("ground-truth labels may not use the auxiliary slot")
    return arr


def _as_member_probs(probs) -> ad.Tensor:
    """Member-major probabilities [M, B, C], from any accepted input form.

    Accepts a [B, M, C] array, a member-major [M, B, C] Tensor, or a
    sequence of M per-member [B, C] tensors (stacked, so gradients reach
    each of them).
    """
    if isinstance(probs, ad.Tensor):
        if probs.ndim != 3:
            raise ConfigurationError("member-major probabilities must be [M, B, C]")
        return probs
    if isinstance(probs, np.ndarray):
        if probs.ndim != 3:
            raise ConfigurationError("stacked probabilities must be [B, M, C]")
        return ad.as_tensor(np.ascontiguousarray(probs.transpose(1, 0, 2)))
    members = [ad.as_tensor(p) for p in probs]
    if not members:
        raise ConfigurationError("no member probabilities supplied")
    shapes = {tuple(t.shape) for t in members}
    if len(shapes) != 1:
        raise ConfigurationError(f"member probability shapes differ: {sorted(shapes)}")
    if members[0].ndim != 2:
        raise ConfigurationError("member probabilities must be [B, C]")
    return ad.stack(members)


def _as_member_losses(per_model_losses) -> ad.Tensor:
    """Member-major losses [M, B] from a [B, M] array, an [M, B] Tensor, or M [B] vectors."""
    if isinstance(per_model_losses, ad.Tensor):
        out = per_model_losses
    elif isinstance(per_model_losses, np.ndarray):
        if per_model_losses.ndim != 2:
            raise ConfigurationError("per-model losses must be [B, M]")
        out = ad.as_tensor(np.ascontiguousarray(per_model_losses.T))
    else:
        out = ad.stack(per_model_losses)
    if out.ndim != 2:
        raise ConfigurationError("per-model losses must be [M, B]")
    return out


def _aux_ce(p: ad.Tensor) -> ad.Tensor:
    """-log p_aux per member and example; the KL(aux one-hot || p) penalty term."""
    width = p.shape[-1]
    return ad.cross_entropy_onehot(p, auxiliary_target(width - 1))


def _masked_sums(values: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Per-member sums [M] of [M, B] ``values`` over the examples a [B, M] mask selects."""
    return ad.mul(values, np.ascontiguousarray(mask.T, dtype=np.float64)).sum(axis=1)


def _penalized(p: ad.Tensor, ces: ad.Tensor, on: np.ndarray, penalty, weight: float) -> ad.Tensor:
    """Assigned cross-entropy plus ``weight`` times ``penalty(p)`` where unassigned.

    ``on`` is the [B, M] assignment; the result holds one term per member.
    """
    terms = _masked_sums(ces, on)
    if weight:
        terms = ad.add(terms, ad.mul(_masked_sums(penalty(p), 1 - on), weight))
    return terms


def member_cross_entropies(probs, labels, aux: bool = False) -> ad.Tensor:
    """Member-major cross-entropies [M, B] against one-hot ``labels``."""
    p = _as_member_probs(probs)
    lab = _as_label_matrix(labels, p.shape[-1], aux=aux)
    return ad.cross_entropy_onehot(p, lab)


# ---------------------------------------------------------------------------
# configuration and stateful types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and the assignment schedule knobs."""

    beta: float = 0.75
    gamma: float = 0.75
    k: int = 1
    t_tau: int = 10

    def __post_init__(self):
        if self.beta < 0 or self.gamma < 0:
            raise ConfigurationError("penalty weights must be non-negative")
        if self.k < 1:
            raise ConfigurationError("overlap K must be at least 1")
        if self.t_tau < 0:
            raise ConfigurationError("epoch threshold must be non-negative")


@dataclass
class AssignmentCounter:
    """Cumulative per-class assignment counts, one column per member."""

    counts: np.ndarray
    epochs_accumulated: int = 0
    frozen: bool = False

    @classmethod
    def empty(cls, n_classes: int, members: int) -> "AssignmentCounter":
        return cls(counts=np.zeros((n_classes, members), dtype=np.int64))

    def complete_epoch(self):
        self.epochs_accumulated += 1


@dataclass
class SpecializationMatrix:
    """Binary class-by-member flags with exactly K ones per class row."""

    w: np.ndarray
    k: int
    frozen: bool = False

    def rows_for(self, class_indices) -> np.ndarray:
        return self.w[np.asarray(class_indices, dtype=np.int64)]


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------

def assign_top_k(per_model_losses: np.ndarray, k: int) -> np.ndarray:
    """Indicator matrix with ones at the K smallest losses per row.

    Ties break toward the smaller model index, so the result is
    deterministic; the selected sum attains the minimum over all
    K-subsets of each row.
    """
    losses = np.asarray(per_model_losses, dtype=np.float64)
    if losses.ndim != 2:
        raise ConfigurationError("per-model losses must be [B, M]")
    m = losses.shape[1]
    if not 1 <= k <= m:
        raise ConfigurationError(f"K must satisfy 1 <= K <= M (got K={k}, M={m})")
    order = np.argsort(losses, axis=1, kind="stable")[:, :k]
    v = np.zeros_like(losses, dtype=np.int64)
    np.put_along_axis(v, order, 1, axis=1)
    return v


def accumulate_counts(counter: AssignmentCounter, v: np.ndarray, class_indices) -> AssignmentCounter:
    """Add one batch of assignments into the per-class count matrix."""
    if counter.frozen:
        raise StateError("assignment counter is frozen; accumulation is over")
    ci = np.asarray(class_indices, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if v.shape[0] != ci.shape[0] or v.shape[1] != counter.counts.shape[1]:
        raise ConfigurationError("assignment/counter shape mismatch")
    np.add.at(counter.counts, ci, v)
    return counter


def fix_specialization(counter: AssignmentCounter, k: int) -> SpecializationMatrix:
    """Top-K counts per class row, frozen into a binary flag matrix.

    Ties break toward the smaller model index. An all-zero row still gets K
    ones (indices 0..K-1) with a diagnostic, so downstream code always sees
    exact row sums.
    """
    if counter.counts.sum() == 0 and counter.epochs_accumulated == 0:
        raise StateError("cannot fix specialization from an empty counter")
    n_classes, m = counter.counts.shape
    if not 1 <= k <= m:
        raise ConfigurationError(f"K must satisfy 1 <= K <= M (got K={k}, M={m})")
    order = np.argsort(-counter.counts, axis=1, kind="stable")[:, :k]
    w = np.zeros((n_classes, m), dtype=np.int64)
    np.put_along_axis(w, order, 1, axis=1)
    zero_rows = np.flatnonzero(counter.counts.sum(axis=1) == 0)
    if zero_rows.size:
        log.warning(
            "classes %s have no recorded assignments; defaulting to models 0..%d",
            zero_rows.tolist(),
            k - 1,
        )
    idle = np.flatnonzero(w.sum(axis=0) == 0)
    if idle.size:
        log.warning("models %s received no specialized classes", idle.tolist())
    return SpecializationMatrix(w=w, k=k, frozen=True)


# ---------------------------------------------------------------------------
# objectives (sum form, matching the dataset-level definitions)
# ---------------------------------------------------------------------------

def _total(terms: ad.Tensor) -> ad.Tensor:
    return terms.sum()


def ie_loss_terms(per_model_losses) -> ad.Tensor:
    """Per-member loss sums [M] for the independent-ensemble objective."""
    return _as_member_losses(per_model_losses).sum(axis=1)


def ie_loss(per_model_losses) -> ad.Tensor:
    """Sum of every per-example, per-member loss."""
    return _total(ie_loss_terms(per_model_losses))


def oracle_loss(per_model_losses) -> float:
    """Sum over examples of the minimum loss across members."""
    return float(_as_member_losses(per_model_losses).data.min(axis=0).sum())


def _top_k_ces(probs, labels, k: int, aux: bool):
    """Member-major probabilities, their [M, B] cross-entropies, and the top-K
    [B, M] assignment those detached values select."""
    p = _as_member_probs(probs)
    ces = ad.cross_entropy_onehot(p, _as_label_matrix(labels, p.shape[-1], aux=aux))
    return p, ces, assign_top_k(ces.data.T, k)


def smcl_loss_terms(probs, labels, k: int):
    """Top-K assigned cross-entropy terms [M] and the [B, M] assignment."""
    _, ces, v = _top_k_ces(probs, labels, k, aux=False)
    return _masked_sums(ces, v), v


def smcl_loss(probs, labels, k: int):
    terms, v = smcl_loss_terms(probs, labels, k)
    return _total(terms), v


def lba_loss_terms(probs, labels, cfg: PenaltyConfig):
    """Loss-based assignment: assigned CE plus the auxiliary-KL penalty.

    The assignment itself is derived from the detached cross-entropy values
    (hard top-K, no gradient through the selection).
    """
    p, ces, v = _top_k_ces(probs, labels, cfg.k, aux=True)
    return _penalized(p, ces, v, _aux_ce, cfg.beta), v


def lba_loss(probs, labels, cfg: PenaltyConfig):
    terms, v = lba_loss_terms(probs, labels, cfg)
    return _total(terms), v


def mba_loss_terms(probs, labels, w: SpecializationMatrix, class_indices=None, cfg: PenaltyConfig | None = None):
    """Memory-based assignment: flags come from the frozen matrix, not losses."""
    if not isinstance(w, SpecializationMatrix) or not w.frozen:
        raise StateError("memory-based assignment requires a frozen specialization matrix")
    cfg = cfg or PenaltyConfig()
    p = _as_member_probs(probs)
    lab = _as_label_matrix(labels, p.shape[-1], aux=True)
    ci = lab.argmax(axis=1) if class_indices is None else np.asarray(class_indices, dtype=np.int64)
    if np.any(ci != lab.argmax(axis=1)):
        raise InputError("class_indices disagree with the one-hot labels")
    flags = w.rows_for(ci)
    return _penalized(p, ad.cross_entropy_onehot(p, lab), flags, _aux_ce, cfg.gamma), flags


def mba_loss(probs, labels, w: SpecializationMatrix, class_indices=None, cfg: PenaltyConfig | None = None) -> ad.Tensor:
    terms, _ = mba_loss_terms(probs, labels, w, class_indices, cfg)
    return _total(terms)


def cmcl_loss_terms(probs, labels, cfg: PenaltyConfig):
    """Confident variant: unassigned members are pushed toward uniform output.

    Heads carry no auxiliary slot here; probabilities are plain class
    distributions.
    """
    p, ces, v = _top_k_ces(probs, labels, cfg.k, aux=False)
    return _penalized(p, ces, v, ad.kl_uniform_to, cfg.beta), v


def cmcl_loss(probs, labels, cfg: PenaltyConfig):
    terms, v = cmcl_loss_terms(probs, labels, cfg)
    return _total(terms), v


def amcl_objective_terms(
    epoch: int,
    probs,
    labels,
    cfg: PenaltyConfig,
    specialization: SpecializationMatrix | None = None,
):
    """Per-member terms of the epoch-dispatched objective.

    Epochs up to and including the threshold use loss-based assignment;
    afterwards the frozen specialization matrix decides. Returns
    (terms, assignment, phase).
    """
    if epoch <= cfg.t_tau:
        terms, v = lba_loss_terms(probs, labels, cfg)
        return terms, v, "lba"
    if specialization is None or not specialization.frozen:
        raise StateError(
            "memory-based phase requested before the specialization was frozen "
            "(assignment counter empty or never fixed)"
        )
    terms, flags = mba_loss_terms(probs, labels, specialization, cfg=cfg)
    return terms, flags, "mba"


def amcl_objective(
    epoch: int,
    probs,
    labels,
    cfg: PenaltyConfig,
    counter: AssignmentCounter | None = None,
    specialization: SpecializationMatrix | None = None,
):
    """Scalar form of amcl_objective_terms: (loss, assignment, phase)."""
    terms, v, phase = amcl_objective_terms(epoch, probs, labels, cfg, specialization)
    return _total(terms), v, phase
