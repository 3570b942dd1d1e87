"""Training loops for the four ensemble objectives.

One coordinator owns the loop. Each step builds one graph for all members:
the member-major [M, B, C] forward, the objective's [M] per-member terms,
and one backward. With no fusion stage and AMCL_THREADS above 1 (the
default is 1), the members' forward and backward passes instead run on a
thread pool: their logits meet in one detached [M, B, C] leaf, the
objective back-propagates into it, and each member back-propagates its own
slice. Every member's arithmetic is the same either way, so the thread
count never changes a result. Steps run under ``autodiff.deferred_checks`` and
are checked once; a failing one is replayed with per-op checks to name the op.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import SgdConfig, SgdOptimizer
from .data import LabeledDataset
from .ensemble import EnsembleState, build_ensemble, ensemble_forward
from .errors import ConfigurationError, NumericError, StateError
from .evaluation import strip_auxiliary
from .models import ArchitectureSpec

log = logging.getLogger(__name__)

THREADS_ENV = "AMCL_THREADS"


@dataclass(frozen=True)
class TrainConfig:
    method: str
    members: int = 2
    overlap_k: int = 1
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    sgd: SgdConfig = field(default_factory=SgdConfig)
    beta: float = 0.75
    gamma: float = 0.75
    t_tau: int = 10
    fusion: str = "none"
    p_share: float = 0.5
    arch_kind: str = "auto"  # auto | simple_cnn | mlp
    conv_filters: tuple = (32, 64, 128)
    hidden_sizes: tuple = (64, 64)

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
    def penalty(self) -> losses.PenaltyConfig:
        return losses.PenaltyConfig(
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
                counts = r.assignment_counts
                totals = counts.sum(axis=1)
                for c in range(counts.shape[0]):
                    for m in range(counts.shape[1]):
                        ratio = float(counts[c, m] / totals[c]) if totals[c] else 0.0
                        f.write(f"{r.epoch},{c},{m},{int(counts[c, m])},{ratio!r}\n")

    def snapshots(self) -> list:
        return [r.assignment_counts for r in self.records]


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


def _thread_budget(members: int) -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        budget = int(raw) if raw else 1
    except ValueError:
        raise ConfigurationError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    return max(1, min(budget, members))


def _member_logits(member, x_np) -> ad.Tensor:
    """Forward one member on its own copy of the batch (graph confinement)."""
    logits, _ = member.forward(ad.Tensor(x_np, op="input"))
    return logits


def _objective_terms(state, cfg, epoch, probs, y):
    """Per-member loss terms [M] plus the assignment actually used."""
    n = state.n_classes
    if state.method == "ie":
        ces = losses.member_cross_entropies(probs, losses.one_hot(y, n))
        terms = losses.ie_loss_terms(ces)
        return terms, np.ones((y.shape[0], len(state.members)), dtype=np.int64), "-"
    if state.method == "smcl":
        terms, v = losses.smcl_loss_terms(probs, losses.one_hot(y, n), cfg.overlap_k)
        return terms, v, "-"
    if state.method == "cmcl":
        terms, v = losses.cmcl_loss_terms(probs, losses.one_hot(y, n), cfg.penalty)
        return terms, v, "-"
    terms, v, phase = losses.amcl_objective_terms(
        epoch, probs, losses.augment_labels(y, n), cfg.penalty, state.specialization
    )
    return terms, v, phase


def _step(state, cfg, epoch, x, y, share_rng, pool, held, deferred):
    """Forward, objective, backward and finite checks of one batch, as arrays.
    ``held`` keeps the last step's graph until this step's objective replaces
    it: a graph freed at its step's end is faulted back in by the next step."""
    def on_pool(fn):
        def run(m):
            with ad.deferred_checks(deferred):
                return fn(m)
        return list(pool.map(run, range(cfg.members)))

    with ad.deferred_checks(deferred):
        if pool is not None:
            member_logits = on_pool(lambda m: _member_logits(state.members[m], x))
            logits = ad.Tensor(np.stack([lg.data for lg in member_logits]))
        else:
            logits = ensemble_forward(state, x, train_mode=True, share_rng=share_rng)
        probs = ad.softmax(logits, axis=-1)
        terms, v, phase = _objective_terms(state, cfg, epoch, probs, y)
        held[:] = [terms]
        ad.backward(losses._total(terms), seed=1.0 / len(y))
        if pool is not None:
            on_pool(lambda m: ad.backward(member_logits[m], seed=logits.grad[m]))
    ad._check_finite(terms.data, "terms")
    ad._check_finite(logits.data, "logits")
    for p in state.parameters():
        if p.grad is not None:
            ad._check_finite(p.grad, "gradient")
    return probs.data, terms.data, v, phase


def train(dataset: LabeledDataset, cfg: TrainConfig, on_epoch=None):
    """Train an ensemble; returns (EnsembleState, TrainLog).

    Deterministic for a fixed config and dataset: shuffling, sharing, and
    parameter init all derive from cfg.seed, and the thread pool never
    reorders any reduction. ``on_epoch(epoch, state, record)`` runs after
    every completed epoch (checkpoint hooks, progress reporting).
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

    threads = _thread_budget(cfg.members)
    parallel = threads > 1 and cfg.fusion == "none" and cfg.members > 1
    pool = ThreadPoolExecutor(max_workers=threads) if parallel else None

    features = np.ascontiguousarray(dataset.features, dtype=np.float64)
    labels = dataset.labels.astype(np.int64)
    n = len(dataset)
    train_log = TrainLog()
    held = []

    try:
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_counts = np.zeros((dataset.n_classes, cfg.members), dtype=np.int64)
            loss_sum = 0.0
            all_wrong = 0
            top1_wrong = 0
            phase = "-"
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                x, y = features[idx], labels[idx]
                step = (state, cfg, epoch, x, y, share_rng, pool, held)
                rng_state = share_rng.bit_generator.state
                try:
                    try:
                        probs, terms, v, phase = _step(*step, deferred=True)
                    except NumericError:
                        optimizer.zero_grad()
                        share_rng.bit_generator.state = rng_state
                        _step(*step, deferred=False)
                        raise
                    optimizer.step()
                    optimizer.zero_grad()
                except NumericError as exc:
                    raise NumericError(
                        f"epoch {epoch}, batch at example {start}: {exc}"
                    ) from exc

                loss_sum += sum(terms.tolist())
                np.add.at(epoch_counts, y, v)
                if state.method == "amcl" and epoch <= cfg.t_tau:
                    losses.accumulate_counts(state.counter, v, y)

                stacked = np.ascontiguousarray(probs.transpose(1, 0, 2))
                stripped = strip_auxiliary(stacked) if state.has_aux else stacked
                per_model_pred = stripped.argmax(axis=2)
                all_wrong += int((per_model_pred != y[:, None]).all(axis=1).sum())
                top1_wrong += int((stripped.mean(axis=1).argmax(axis=1) != y).sum())

            if state.method == "amcl" and epoch <= cfg.t_tau:
                state.counter.complete_epoch()
                if epoch == cfg.t_tau:
                    freeze_specialization(state)

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
    finally:
        if pool is not None:
            pool.shutdown()
        held.clear()
        ad.release_heap()

    return state, train_log
