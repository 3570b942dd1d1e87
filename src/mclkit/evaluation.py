"""Inference post-processing and the analysis metrics.

Auxiliary-slot stripping, probability averaging, oracle/top-1 error rates,
per-class confidence histograms, the specialized/non-specialized
cross-entropy split, the auxiliary-probability uncertainty score, and the
assignment-purity flow.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .autodiff import EPS_PROB
from .errors import InputError, StateError, UnsupportedMethodError
from .losses import SpecializationMatrix

log = logging.getLogger(__name__)

HISTOGRAM_BINS = 20


@dataclass
class EnsemblePrediction:
    """Stripped per-model rows plus their average, optionally renormalized."""

    per_model: np.ndarray  # [B, M, n_classes]
    averaged: np.ndarray  # [B, n_classes]
    normalized: np.ndarray  # [B, n_classes]


@dataclass
class MetricReport:
    oracle_error: float
    top1_error: float
    ce_split: tuple = ()  # (specialized values, non-specialized values)
    ood_scores: np.ndarray | None = None

    def summary_lines(self) -> list:
        lines = [
            f"oracle error: {self.oracle_error:.4f}%",
            f"top-1 error: {self.top1_error:.4f}%",
        ]
        if self.ce_split:
            spec, non = self.ce_split
            lines.append(
                f"cross-entropy split: specialized mean {np.mean(spec):.4f}"
                f" ({spec.size} samples), non-specialized mean {np.mean(non):.4f}"
                f" ({non.size} samples)"
            )
        if self.ood_scores is not None:
            lines.append(f"mean ood score: {float(np.mean(self.ood_scores)):.4f}")
        return lines


def strip_auxiliary(p: np.ndarray) -> np.ndarray:
    """Drop the auxiliary slot (last entry); deliberately not renormalized."""
    p = np.asarray(p, dtype=np.float64)
    return p[..., :-1].copy()


def ensemble_average(stripped, normalize: bool = False) -> np.ndarray:
    """Mean over the member axis of stripped rows.

    With ``normalize`` the result is scaled to sum to 1; rows with no mass
    left (every member routed everything to its auxiliary slot) stay zero
    and are flagged in the log as rejected by all members.
    """
    arr = np.asarray(stripped, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise InputError("stripped probabilities must be [M, C] or [B, M, C]")
    averaged = _member_mean(arr if arr.ndim == 3 else arr[None])
    if normalize:
        averaged = _normalized(averaged)
    return averaged if arr.ndim == 3 else averaged[0]


def _member_mean(arr: np.ndarray) -> np.ndarray:
    """Mean over M of [B, M, C], adding the member slices in index order, as
    ``arr.mean(axis=1)`` does for a C-ordered ``arr`` with C ≥ 2: same bits."""
    total = arr[:, 0].copy()
    for m in range(1, arr.shape[1]):
        total += arr[:, m]
    return total / arr.shape[1]


def _normalized(averaged: np.ndarray) -> np.ndarray:
    totals = averaged.sum(axis=1, keepdims=True)
    rejected = totals[:, 0] <= 0.0
    if rejected.any():
        log.warning("%d example(s) rejected by all members", int(rejected.sum()))
    safe = np.where(totals > 0.0, totals, 1.0)
    out = averaged / safe
    out[rejected] = 0.0
    # The division can round a class that trailed the winner by an ulp up to
    # a tie with it, and argmax then picks the earlier class. Raise such a
    # winner by one ulp so normalizing never changes the predicted class.
    win = averaged.argmax(axis=1)
    rows = np.flatnonzero(out.argmax(axis=1) != win)
    out[rows, win[rows]] = np.nextafter(out[rows, win[rows]], np.inf)
    return out


def oracle_error(per_model_argmax: np.ndarray, labels) -> float:
    """Percent of examples that every member misclassifies."""
    preds = np.asarray(per_model_argmax)
    labels = np.asarray(labels)
    all_wrong = (preds != labels[:, None]).all(axis=1)
    return 100.0 * float(all_wrong.mean())


def top1_error(averaged: np.ndarray, labels) -> float:
    """Percent misclassification of the averaged-probability argmax."""
    preds = np.asarray(averaged).argmax(axis=1)
    return 100.0 * float((preds != np.asarray(labels)).mean())


def confidence_histogram(normalized: np.ndarray, labels, class_index: int, bins: int = HISTOGRAM_BINS):
    """Histogram of the probability assigned to ``class_index`` over the test
    examples of that class; ``bins`` uniform bins on [0, 1]."""
    labels = np.asarray(labels)
    mask = labels == class_index
    if not mask.any():
        raise InputError(f"no test examples of class {class_index}")
    values = np.asarray(normalized)[mask, class_index]
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


def renormalize_rows(stripped: np.ndarray) -> np.ndarray:
    """Per-model stripped rows scaled back into distributions; rows that kept
    (almost) no mass become vanishingly small everywhere so their
    cross-entropy is large."""
    arr = np.asarray(stripped, dtype=np.float64)
    totals = arr.sum(axis=-1, keepdims=True)
    return arr / np.maximum(totals, EPS_PROB)


def cross_entropy_split(per_model_stripped: np.ndarray, labels, w: SpecializationMatrix):
    """Cross-entropies of every (example, member) pair, bucketed by whether
    the member is flagged for the example's class."""
    if not isinstance(w, SpecializationMatrix) or not w.frozen:
        raise StateError("cross-entropy split requires a frozen specialization matrix")
    arr = np.asarray(per_model_stripped, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    renormed = renormalize_rows(arr)
    picked = renormed[np.arange(arr.shape[0]), :, labels]
    ce = -np.log(np.clip(picked, EPS_PROB, 1.0))
    flags = w.rows_for(labels).astype(bool)
    return ce[flags], ce[~flags]


def ood_score(state, inputs, batch_size: int = ensemble.EVAL_BATCH) -> np.ndarray:
    """Mean auxiliary-class probability across members, one score per input."""
    if not state.has_aux:
        raise UnsupportedMethodError(
            f"method {state.method!r} has no auxiliary slot; ood scores are undefined"
        )
    probs = ensemble.member_probabilities(state, inputs, batch_size=batch_size)
    return _member_mean(probs[:, :, -1:])[:, 0]


def auxiliary_split_scores(probs_full: np.ndarray, labels, w: SpecializationMatrix):
    """Auxiliary probabilities pooled over (example, member) pairs, split by
    whether the member is flagged for the example's class.

    A well-specialized ensemble keeps the specialized bucket near 0 and the
    non-specialized bucket near 1; unseen-data scores sit in between or
    above, which is the uncertainty signal.
    """
    if not isinstance(w, SpecializationMatrix) or not w.frozen:
        raise StateError("auxiliary split requires a frozen specialization matrix")
    arr = np.asarray(probs_full, dtype=np.float64)
    aux = arr[:, :, -1]
    flags = w.rows_for(np.asarray(labels, dtype=np.int64)).astype(bool)
    return aux[flags], aux[~flags]


def purity_flow(snapshots) -> np.ndarray:
    """Row-normalized assignment ratios per epoch: [E, n_classes, M].

    Rows with no assignments stay zero.
    """
    out = []
    for snap in snapshots:
        snap = np.asarray(snap, dtype=np.float64)
        totals = snap.sum(axis=1, keepdims=True)
        out.append(np.divide(snap, totals, out=np.zeros_like(snap), where=totals > 0))
    return np.stack(out, axis=0)


def evaluate_predictions(state, probs: np.ndarray) -> EnsemblePrediction:
    """Post-process stacked member probabilities [B, M, width]."""
    stripped = strip_auxiliary(probs) if state.has_aux else np.asarray(probs, dtype=np.float64).copy()
    averaged = ensemble_average(stripped, normalize=False)
    normalized = _normalized(averaged)
    return EnsemblePrediction(per_model=stripped, averaged=averaged, normalized=normalized)


def evaluate_ensemble(state, dataset, batch_size: int = ensemble.EVAL_BATCH) -> tuple:
    """Forward the test set and compute the error metrics.

    Returns (EnsemblePrediction, MetricReport with errors only).
    """
    probs = ensemble.member_probabilities(state, dataset.features, batch_size=batch_size)
    pred = evaluate_predictions(state, probs)
    report = MetricReport(
        oracle_error=oracle_error(pred.per_model.argmax(axis=2), dataset.labels),
        top1_error=top1_error(pred.averaged, dataset.labels),
    )
    return pred, report
