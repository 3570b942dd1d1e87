"""Per-member loop forms of the objectives, kept as a reference.

These are the objectives written one member at a time: a separate graph per
member, each member's terms summed over its own [B] cross-entropy vector.
The member-axis forms in ``mclkit.losses`` must reproduce their terms,
assignments and gradients bit for bit.
"""
import numpy as np

import mclkit.autodiff as ad
from mclkit.losses import assign_top_k


def _ce(p, target):
    return ad.cross_entropy_onehot(p, target)


def _aux_ce(p):
    return ad.cross_entropy_onehot(p, np.eye(p.shape[-1])[-1])


def ie_terms(members, labels):
    return [_ce(p, labels).sum() for p in members], np.ones((labels.shape[0], len(members)), dtype=np.int64)


def smcl_terms(members, labels, k):
    ces = [_ce(p, labels) for p in members]
    v = assign_top_k(np.stack([c.data for c in ces], axis=1), k)
    return [ad.mul(ces[m], v[:, m].astype(np.float64)).sum() for m in range(len(members))], v


def _penalized_terms(members, ces, on_matrix, penalty, weight):
    terms = []
    for m, p in enumerate(members):
        on = on_matrix[:, m].astype(np.float64)
        term = ad.mul(ces[m], on).sum()
        if weight:
            term = ad.add(term, ad.mul(ad.mul(penalty(p), 1.0 - on).sum(), weight))
        terms.append(term)
    return terms


def lba_terms(members, labels, k, beta):
    ces = [_ce(p, labels) for p in members]
    v = assign_top_k(np.stack([c.data for c in ces], axis=1), k)
    return _penalized_terms(members, ces, v, _aux_ce, beta), v


def cmcl_terms(members, labels, k, beta):
    ces = [_ce(p, labels) for p in members]
    v = assign_top_k(np.stack([c.data for c in ces], axis=1), k)
    return _penalized_terms(members, ces, v, ad.kl_uniform_to, beta), v


def mba_terms(members, labels, w, gamma):
    flags = w[labels.argmax(axis=1)]
    ces = [_ce(p, labels) for p in members]
    return _penalized_terms(members, ces, flags, _aux_ce, gamma), flags
