"""Ensemble objectives and assignment machinery.

Covers the independent-ensemble sum, the stochastic top-K relaxation, the
confident (uniform-penalty) variant, and the auxiliary-class objectives with
loss-based and memory-based assignment, plus the cumulative count matrix
from which the fixed specialization is derived.

Each objective has one form, ``*_loss_terms``: it takes the member-major
log-probabilities [M, B, C] as one Tensor (ie takes the [M, B]
cross-entropies of ``member_cross_entropies``) and the [B] class indices,
and returns one term per member [M], plus the [B, M] assignment it used. The
batch loss is ``terms.sum()``. Every term is computed in log space, so no
probability is clamped or logged: the cross-entropy and the auxiliary term
gather one log-probability, and the confident variant's uniform term is
-mean(log p) - log C. The smcl, cmcl and amcl objectives are one
``autodiff.assigned_nll`` node each (assigned cross-entropy plus the weighted
penalty where unassigned); ie sums ``autodiff.nll``'s cross-entropies.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, StateError

log = logging.getLogger(__name__)


def _as_member_logp(logp: ad.Tensor) -> ad.Tensor:
    """The member-major log-probabilities [M, B, C] that ``train`` passes, checked."""
    if not isinstance(logp, ad.Tensor) or logp.ndim != 3:
        raise ConfigurationError("log-probabilities must be a member-major [M, B, C] Tensor")
    return logp


def _top_k(k: int):
    """The top-K [B, M] assignment of detached member-major cross-entropies [M, B]."""
    return lambda ces: assign_top_k(ces.T, k)


def member_cross_entropies(logp, y) -> ad.Tensor:
    """Member-major cross-entropies [M, B] against the [B] class indices ``y``."""
    return ad.nll(_as_member_logp(logp), y)


# ---------------------------------------------------------------------------
# configuration and stateful types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weights and the assignment schedule knobs; ``TrainConfig``
    takes its defaults for them from here."""

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
    v[np.arange(losses.shape[0])[:, None], order] = 1
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

    The flags are ``assign_top_k`` of the negated counts (exact in float64),
    so ties break toward the smaller model index. An all-zero row still gets
    K ones (indices 0..K-1) with a diagnostic, so downstream code always sees
    exact row sums.
    """
    if counter.counts.sum() == 0 and counter.epochs_accumulated == 0:
        raise StateError("cannot fix specialization from an empty counter")
    w = assign_top_k(-counter.counts, k)
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
# objectives: per-member terms [M] over member-major inputs; a batch's loss is
# their sum
# ---------------------------------------------------------------------------

def ie_loss_terms(per_model_losses: ad.Tensor) -> ad.Tensor:
    """Per-member sums [M] of member-major losses [M, B]: the independent-ensemble objective."""
    if not isinstance(per_model_losses, ad.Tensor) or per_model_losses.ndim != 2:
        raise ConfigurationError("per-model losses must be a member-major [M, B] Tensor")
    return per_model_losses.sum(axis=1)


def smcl_loss_terms(logp, y, k: int):
    """Top-K assigned cross-entropy terms [M] and the [B, M] assignment.

    At K=1 the terms sum to the oracle loss: each example's smallest
    cross-entropy across members.
    """
    return ad.assigned_nll(_as_member_logp(logp), y, _top_k(k))


def lba_loss_terms(logp, y, cfg: PenaltyConfig):
    """Loss-based assignment: assigned CE plus the auxiliary-KL penalty.

    The assignment itself is derived from the detached cross-entropy values
    (hard top-K, no gradient through the selection).
    """
    return ad.assigned_nll(_as_member_logp(logp), y, _top_k(cfg.k), "aux", cfg.beta)


def mba_loss_terms(logp, y, w: SpecializationMatrix, cfg: PenaltyConfig):
    """Memory-based assignment: flags come from the frozen matrix, not losses."""
    if not isinstance(w, SpecializationMatrix) or not w.frozen:
        raise StateError("memory-based assignment requires a frozen specialization matrix")
    return ad.assigned_nll(_as_member_logp(logp), y, w.rows_for(y), "aux", cfg.gamma)


def cmcl_loss_terms(logp, y, cfg: PenaltyConfig):
    """Confident variant: unassigned members are pushed toward uniform output
    (Lee et al. 2017).

    Heads carry no auxiliary slot here; log-probabilities are of plain class
    distributions.
    """
    return ad.assigned_nll(_as_member_logp(logp), y, _top_k(cfg.k), "uniform", cfg.beta)


def amcl_objective_terms(
    epoch: int,
    logp,
    y,
    cfg: PenaltyConfig,
    specialization: SpecializationMatrix | None = None,
):
    """Per-member terms of the epoch-dispatched objective.

    Epochs up to and including the threshold use loss-based assignment;
    afterwards the frozen specialization matrix decides. Returns
    (terms, assignment, phase).
    """
    if epoch <= cfg.t_tau:
        terms, v = lba_loss_terms(logp, y, cfg)
        return terms, v, "lba"
    if specialization is None or not specialization.frozen:
        raise StateError(
            "memory-based phase requested before the specialization was frozen "
            "(assignment counter empty or never fixed)"
        )
    terms, flags = mba_loss_terms(logp, y, specialization, cfg)
    return terms, flags, "mba"
