"""Inference post-processing and the analysis metrics.

Auxiliary-slot stripping, probability averaging, oracle/top-1 error rates,
per-class confidence histograms, the specialized/non-specialized
cross-entropy split, the auxiliary-probability uncertainty score, and the
assignment-purity flow.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ensemble
from .autodiff import EPS_PROB
from .errors import InputError, StateError, UnsupportedMethodError
from .losses import SpecializationMatrix

log = logging.getLogger(__name__)

HISTOGRAM_BINS = 20


@dataclass
class EnsemblePrediction:
    """Stripped per-model rows and their member mean. ``normalized``, the
    mean scaled to sum to 1 per row (rows rejected by all members stay
    zero), is computed when first read."""

    per_model: np.ndarray  # [B, M, n_classes]
    averaged: np.ndarray  # [B, n_classes]

    @cached_property
    def normalized(self) -> np.ndarray:  # [B, n_classes]
        return _normalized(self.averaged)[0]


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
        averaged, rejected = _normalized(averaged)
        _log_rejected(rejected)
    return averaged if arr.ndim == 3 else averaged[0]


def _member_mean(arr: np.ndarray) -> np.ndarray:
    """Mean over the member axis 1 of a 3-D ``arr``, adding the member slices
    in index order, as ``arr.mean(axis=1)`` does for a C-ordered [B, M, C]
    ``arr`` with C ≥ 2: same bits."""
    total = arr[:, 0].copy()
    for m in range(1, arr.shape[1]):
        total += arr[:, m]
    return total / arr.shape[1]


def _log_rejected(count: int) -> None:
    if count:
        log.warning("%d example(s) rejected by all members", count)


def _normalized(averaged: np.ndarray) -> tuple:
    """Rows of ``averaged`` scaled to sum to 1, and how many rows had no mass."""
    totals = averaged.sum(axis=1, keepdims=True)
    rejected = totals[:, 0] <= 0.0
    safe = np.where(totals > 0.0, totals, 1.0)
    out = averaged / safe
    out[rejected] = 0.0
    # The division can round a class that trailed the winner by an ulp up to
    # a tie with it, and argmax then picks the earlier class. Raise such a
    # winner by one ulp so normalizing never changes the predicted class.
    win = averaged.argmax(axis=1)
    rows = np.flatnonzero(out.argmax(axis=1) != win)
    out[rows, win[rows]] = np.nextafter(out[rows, win[rows]], np.inf)
    return out, int(rejected.sum())


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
    """Mean auxiliary-class probability across members, one score per input.

    Streams ``ensemble.probability_chunks``: each chunk's auxiliary row is
    added over members in index order and divided by M, as ``_member_mean``
    does, and no [N, M, width] array is built.
    """
    if not state.has_aux:
        raise UnsupportedMethodError(
            f"method {state.method!r} has no auxiliary slot; ood scores are undefined"
        )
    scores = np.empty(inputs.shape[0])
    for start, probs in ensemble.probability_chunks(state, inputs, batch_size):
        scores[start : start + probs.shape[2]] = _member_mean(probs[-1:])[0]
    return scores


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


def _class_argmax(p: np.ndarray) -> tuple:
    """Index and value of the maximum over the leading class axis, by slices.

    A strict ``>`` keeps the first maximum, as ``np.argmax`` does on finite
    values."""
    top = p[0].copy()
    index = np.zeros(top.shape, dtype=np.intp)
    for c in range(1, len(p)):
        np.copyto(index, c, where=p[c] > top)
        np.maximum(top, p[c], out=top)
    return index, top


def evaluate_ensemble(state, dataset, batch_size: int = ensemble.EVAL_BATCH) -> tuple:
    """Forward the test set and compute the error metrics.

    One loop finishes each chunk of ``ensemble.probability_chunks`` while it
    is in cache: its stripped rows go into ``per_model``, its member mean
    into ``averaged``, and the argmaxes of both count the oracle and top-1 misses.
    Rows whose mean has no class above 0 are rejected by all members; they
    are counted and logged once. Returns (EnsemblePrediction, MetricReport
    with errors only).
    """
    labels = np.asarray(dataset.labels)
    n, members, classes = labels.shape[0], len(state.members), state.n_classes
    per_model = np.empty((n, members, classes))
    averaged = np.empty((n, classes))
    oracle_misses = top1_misses = rejected = 0
    for start, probs in ensemble.probability_chunks(state, dataset.features, batch_size):
        probs = probs[:classes]  # the auxiliary slot, if any, is last
        rows = slice(start, start + probs.shape[2])
        y = labels[rows]
        per_model[rows] = probs.transpose(2, 1, 0)
        mean = _member_mean(probs)  # [C, B]
        averaged[rows] = mean.T
        member_pred, _ = _class_argmax(probs)
        oracle_misses += int((member_pred != y).all(axis=0).sum())
        pred, top = _class_argmax(mean)
        top1_misses += int((pred != y).sum())
        rejected += int((top <= 0.0).sum())
    _log_rejected(rejected)
    report = MetricReport(
        oracle_error=100.0 * (oracle_misses / n),
        top1_error=100.0 * (top1_misses / n),
    )
    return EnsemblePrediction(per_model=per_model, averaged=averaged), report
