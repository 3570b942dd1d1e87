"""Per-member loop forms of the objectives, kept as a reference.

These are the objectives written one member at a time over log-probabilities:
a separate graph per member, each member's terms summed over its own [B]
cross-entropy vector, the confident penalty written as -mean(log p) - log C.
The member-axis forms in ``mclkit.losses`` must reproduce their terms,
assignments and gradients bit for bit.
"""
import math

import numpy as np

import mclkit.autodiff as ad
from mclkit.losses import assign_top_k


def stack(members):
    """Equally shaped per-member tensors joined member-major [M, …], as a
    ``reshape`` per member and one ``concat``: the values of ``np.stack``,
    and each member's gradient is its slice of the stacked one."""
    return ad.concat([ad.reshape(t, (1, *t.shape)) for t in members], axis=0)


def _aux_ce(logp):
    return ad.nll(logp, logp.shape[-1] - 1)


def _kl_uniform(logp):
    return ad.add(ad.neg(ad.tensor_mean(logp, axis=-1)), -math.log(logp.shape[-1]))


def ie_terms(members, y):
    return [ad.nll(lp, y).sum() for lp in members], np.ones((y.shape[0], len(members)), dtype=np.int64)


def smcl_terms(members, y, k):
    ces = [ad.nll(lp, y) for lp in members]
    v = assign_top_k(np.stack([c.data for c in ces], axis=1), k)
    return [ad.mul(ces[m], v[:, m].astype(np.float64)).sum() for m in range(len(members))], v


def _penalized_terms(members, ces, on_matrix, penalty, weight):
    terms = []
    for m, lp in enumerate(members):
        on = on_matrix[:, m].astype(np.float64)
        term = ad.mul(ces[m], on).sum()
        if weight:
            term = ad.add(term, ad.mul(ad.mul(penalty(lp), 1.0 - on).sum(), weight))
        terms.append(term)
    return terms


def lba_terms(members, y, k, beta):
    ces = [ad.nll(lp, y) for lp in members]
    v = assign_top_k(np.stack([c.data for c in ces], axis=1), k)
    return _penalized_terms(members, ces, v, _aux_ce, beta), v


def cmcl_terms(members, y, k, beta):
    ces = [ad.nll(lp, y) for lp in members]
    v = assign_top_k(np.stack([c.data for c in ces], axis=1), k)
    return _penalized_terms(members, ces, v, _kl_uniform, beta), v


def mba_terms(members, y, w, gamma):
    flags = w[y]
    ces = [ad.nll(lp, y) for lp in members]
    return _penalized_terms(members, ces, flags, _aux_ce, gamma), flags
