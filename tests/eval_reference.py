"""Evaluation-path code in its reduction-based form, kept as a reference.

These are softmax, log-softmax, the softmax cross-entropy, the ensemble
average and the chunked member probabilities as they were written with
numpy's axis reductions (``max``, ``mean``) and a final ``concatenate``, and
the fusion inject with an unconditional residual ``mul``. The slice-wise
forms in ``mclkit`` must reproduce them bit for bit.
"""
import numpy as np

import mclkit.autodiff as ad
from mclkit.ensemble import ensemble_forward


def softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax_cross_entropy(x, y):
    """Loss per row of ``x`` [..., B, C] against the [B] class indices ``y``,
    and its gradient w.r.t. the logits, for a unit seed."""
    picked = log_softmax(x)[..., np.arange(y.shape[0]), y]
    return -picked, softmax(x) - np.eye(x.shape[-1])[y]


def ensemble_average(stripped, normalize=False):
    arr = np.asarray(stripped, dtype=np.float64)
    if arr.ndim == 2:
        return ensemble_average(arr[None], normalize)[0]
    averaged = arr.mean(axis=1)
    if not normalize:
        return averaged
    totals = averaged.sum(axis=1, keepdims=True)
    rejected = totals[:, 0] <= 0.0
    safe = np.where(totals > 0.0, totals, 1.0)
    out = averaged / safe
    out[rejected] = 0.0
    for r in range(out.shape[0]):  # a winner that the division tied with an earlier class
        w = averaged[r].argmax()
        if out[r].argmax() != w:
            out[r, w] = np.nextafter(out[r, w], np.inf)
    return out


def evaluate_predictions(has_aux, probs):
    """(per_model, averaged, normalized) of stacked probabilities [B, M, width]."""
    stripped = probs[..., :-1].copy() if has_aux else np.asarray(probs, dtype=np.float64).copy()
    return stripped, ensemble_average(stripped), ensemble_average(stripped, normalize=True)


def member_probabilities(state, features, batch_size=512):
    chunks = []
    with ad.no_graph():
        for start in range(0, features.shape[0], batch_size):
            logits = ensemble_forward(state, features[start : start + batch_size])
            chunks.append(softmax(logits.data, axis=-1).transpose(1, 0, 2))
    return np.concatenate(chunks, axis=0)


def ood_score(state, inputs, batch_size=512):
    return member_probabilities(state, inputs, batch_size)[:, :, -1].mean(axis=1)


def inject(fused, own_tap, residual_scale):
    return ad.add(fused, ad.mul(ad.as_tensor(own_tap), residual_scale))
