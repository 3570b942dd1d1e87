"""Training loops for the four ensemble objectives.

One coordinator owns the loop. Each step builds one graph for all members:
the member-major [M, B, C] forward and its log-softmax, the objective's [M]
per-member terms (``losses.*_loss_terms`` against the batch's class indices,
which ``train`` checks once per dataset), one backward from their sum into
the ensemble's [M, …] layers, and one in-place SGD update of the
optimizer's packed parameter vector, which every layer is a view of. Steps
run under ``autodiff.deferred_checks`` and are checked once (the terms, the
logits and the gradient, gathered into one vector); a failing one is
replayed with per-op checks to name the op.

``TrainConfig`` is the one source of training defaults; the CLI reads its
own from it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import SgdConfig, SgdOptimizer
from .data import LabeledDataset
from .ensemble import EnsembleState, build_ensemble, ensemble_forward
from .errors import ConfigurationError, NumericError, StateError
from .evaluation import purity_flow, strip_auxiliary
from .losses import PenaltyConfig
from .models import ArchitectureSpec

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run. The SGD, penalty and layer-width knobs
    take their defaults from ``SgdConfig``, ``PenaltyConfig`` and
    ``ArchitectureSpec``; the CLI's ``ExperimentConfig`` reads its own here."""

    method: str
    members: int = 2
    overlap_k: int = PenaltyConfig.k
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    sgd: SgdConfig = field(default_factory=SgdConfig)
    beta: float = PenaltyConfig.beta
    gamma: float = PenaltyConfig.gamma
    t_tau: int = PenaltyConfig.t_tau
    fusion: str = "none"
    p_share: float = 0.5
    arch_kind: str = "auto"  # auto | simple_cnn | mlp
    conv_filters: tuple = ArchitectureSpec.conv_filters
    hidden_sizes: tuple = ArchitectureSpec.hidden_sizes

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if not 1 <= self.overlap_k <= self.members:
            raise ConfigurationError(
                f"K must satisfy 1 <= K <= M (got K={self.overlap_k}, M={self.members})"
            )

    @property
    def penalty(self) -> PenaltyConfig:
        return PenaltyConfig(
            beta=self.beta, gamma=self.gamma, k=self.overlap_k, t_tau=self.t_tau
        )


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    train_loss: float
    oracle_error: float
    top1_error: float
    assignment_counts: np.ndarray


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write("epoch,phase,train_loss,oracle_error,top1_error\n")
            for r in self.records:
                f.write(
                    f"{r.epoch},{r.phase},{r.train_loss!r},{r.oracle_error!r},{r.top1_error!r}\n"
                )

    def purity_to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write("epoch,class,model,count,ratio\n")
            for r in self.records:
                ratios = purity_flow([r.assignment_counts])[0]
                for (c, m), count in np.ndenumerate(r.assignment_counts):
                    f.write(f"{r.epoch},{c},{m},{int(count)},{float(ratios[c, m])!r}\n")


def resolve_architecture(dataset: LabeledDataset, cfg: TrainConfig) -> ArchitectureSpec:
    kind = cfg.arch_kind
    if kind == "auto":
        kind = "simple_cnn" if dataset.features.ndim == 4 else "mlp"
    return ArchitectureSpec(
        kind=kind,
        input_shape=tuple(dataset.features.shape[1:]),
        n_classes=dataset.n_classes,
        conv_filters=tuple(cfg.conv_filters),
        hidden_sizes=tuple(cfg.hidden_sizes),
        aux_class=cfg.method == "amcl",
    )


def freeze_specialization(state: EnsembleState) -> EnsembleState:
    """Fix the class-to-model flags from the accumulated counts; one-shot."""
    if state.specialization is not None and state.specialization.frozen:
        raise StateError("specialization is already frozen")
    if state.counter is None:
        raise StateError("no assignment counter to freeze from")
    state.specialization = losses.fix_specialization(state.counter, state.overlap_k)
    state.counter.frozen = True
    return state


def _objective_terms(state, cfg, epoch, logp, y):
    """Per-member loss terms [M] plus the assignment actually used."""
    if state.method == "ie":
        terms = losses.ie_loss_terms(losses.member_cross_entropies(logp, y))
        return terms, np.ones((y.shape[0], len(state.members)), dtype=np.int64), "-"
    if state.method == "smcl":
        terms, v = losses.smcl_loss_terms(logp, y, cfg.overlap_k)
        return terms, v, "-"
    if state.method == "cmcl":
        terms, v = losses.cmcl_loss_terms(logp, y, cfg.penalty)
        return terms, v, "-"
    return losses.amcl_objective_terms(epoch, logp, y, cfg.penalty, state.specialization)


def _step(state, optimizer, cfg, epoch, x, y, share_rng, held, deferred):
    """Forward, objective, backward and finite checks of one batch, as arrays:
    the gathered gradient vector first. ``held`` keeps the last step's graph
    until this step's objective replaces it: a graph freed at its step's end
    is faulted back in by the next step."""
    with ad.deferred_checks(deferred):
        logits = ensemble_forward(state, x, train_mode=True, share_rng=share_rng)
        logp = ad.log_softmax(logits, axis=-1)
        terms, v, phase = _objective_terms(state, cfg, epoch, logp, y)
        held[:] = [terms]
        ad.backward(terms.sum(), seed=1.0 / len(y))
    ad._check_finite(terms.data, "terms")
    ad._check_finite(logits.data, "logits")
    grad = optimizer.gather()
    ad._check_finite(grad, "gradient")
    return grad, logp.data, terms.data, v, phase


def train(dataset: LabeledDataset, cfg: TrainConfig, on_epoch=None):
    """Train an ensemble; returns (EnsembleState, TrainLog).

    Deterministic for a fixed config and dataset: shuffling, sharing, and
    parameter init all derive from cfg.seed. ``on_epoch(epoch, state,
    record)`` runs after every completed epoch (checkpoint hooks, progress
    reporting). The epochs run inside ``autodiff.conv_workspace``; training
    returns no heap pages (its convs record a graph, so they do not either).
    """
    if dataset.n_classes < 2:
        raise ConfigurationError("dataset must carry at least two classes")
    if len(dataset) == 0:
        raise ConfigurationError("dataset is empty")
    if dataset.labels.min() < 0 or dataset.labels.max() >= dataset.n_classes:
        raise ConfigurationError("dataset labels out of range")
    if cfg.method == "amcl" and cfg.t_tau < 1:
        # Epoch 1 would already need the memory-based phase, whose
        # specialization is fixed from counts that only epochs <= t_tau gather.
        raise StateError(
            f"amcl needs t_tau >= 1 to gather assignment counts (got t_tau={cfg.t_tau})"
        )

    arch = resolve_architecture(dataset, cfg)
    state = build_ensemble(
        method=cfg.method,
        arch=arch,
        members=cfg.members,
        overlap_k=cfg.overlap_k,
        t_tau=cfg.t_tau,
        beta=cfg.beta,
        gamma=cfg.gamma,
        p_share=cfg.p_share,
        fusion_mode=cfg.fusion,
        seed=cfg.seed,
    )
    optimizer = SgdOptimizer(state.parameters(), cfg.sgd)
    shuffle_rng = np.random.default_rng([cfg.seed, 101])
    share_rng = np.random.default_rng([cfg.seed, 202])

    features = np.ascontiguousarray(dataset.features, dtype=np.float64)
    labels = dataset.labels.astype(np.int64)
    n = len(dataset)
    train_log = TrainLog()
    held = []
    # The epoch's probabilities [N, M, width] and assignments [N, M] in step
    # order, counted once per epoch. Allocated once, ahead of the step graphs'
    # heap churn, and overwritten every epoch.
    seen_probs = np.empty((n, cfg.members, arch.output_dim))
    seen_v = np.empty((n, cfg.members), dtype=np.int64)

    with ad.conv_workspace():
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            phase = "-"
            for start in range(0, n, cfg.batch_size):
                rows = slice(start, start + cfg.batch_size)
                idx = order[rows]
                x, y = features[idx], labels[idx]
                step = (state, optimizer, cfg, epoch, x, y, share_rng, held)
                rng_state = share_rng.bit_generator.state
                try:
                    try:
                        grad, logp, terms, v, phase = _step(*step, deferred=True)
                    except NumericError:
                        optimizer.zero_grad()
                        share_rng.bit_generator.state = rng_state
                        _step(*step, deferred=False)
                        raise
                    optimizer.step(grad)
                    optimizer.zero_grad()
                except NumericError as exc:
                    raise NumericError(
                        f"epoch {epoch}, batch at example {start}: {exc}"
                    ) from exc
                loss_sum += sum(terms.tolist())
                np.exp(logp.transpose(1, 0, 2), out=seen_probs[rows])
                seen_v[rows] = v

            y = labels[order]
            epoch_counts = np.zeros((dataset.n_classes, cfg.members), dtype=np.int64)
            np.add.at(epoch_counts, y, seen_v)
            if state.method == "amcl" and epoch <= cfg.t_tau:
                losses.accumulate_counts(state.counter, seen_v, y)
                state.counter.complete_epoch()
                if epoch == cfg.t_tau:
                    freeze_specialization(state)
            stripped = strip_auxiliary(seen_probs) if state.has_aux else seen_probs
            all_wrong = int((stripped.argmax(axis=2) != y[:, None]).all(axis=1).sum())
            top1_wrong = int((stripped.mean(axis=1).argmax(axis=1) != y).sum())

            record = EpochRecord(
                epoch=epoch,
                phase=phase,
                train_loss=loss_sum / n,
                oracle_error=100.0 * all_wrong / n,
                top1_error=100.0 * top1_wrong / n,
                assignment_counts=epoch_counts,
            )
            train_log.records.append(record)
            if on_epoch is not None:
                on_epoch(epoch, state, record)

    return state, train_log
