"""The member-axis objectives against their per-member loop forms, bit for bit."""
from functools import reduce
from operator import add

import numpy as np
import pytest

import mclkit.autodiff as ad
import mclkit.losses as ls

import objective_reference as ref

B, N_CLASSES = 9, 3
CASES = [
    (kind, m, k, weight)
    for kind in ("ie", "smcl", "cmcl", "lba", "mba")
    for m in (1, 2, 3)
    for k in sorted({1, m})
    for weight in (0.0, 0.75)
    if not (kind in ("ie", "smcl") and weight)
]


def _case(kind, m, k, weight):
    rng = np.random.default_rng([m, k, int(weight * 4), len(kind)])
    aux = kind in ("lba", "mba")
    width = N_CLASSES + aux
    # Large logits saturate some rows: probabilities that round to 0 or 1.
    logits = rng.normal(scale=10.0, size=(m, B, width))
    y = rng.integers(0, N_CLASSES, size=B)
    w = np.zeros((N_CLASSES, m), dtype=np.int64)
    np.put_along_axis(w, rng.permuted(np.tile(np.arange(m), (N_CLASSES, 1)), axis=1)[:, :k], 1, axis=1)
    return logits, y, w


def _new_terms(kind, logp, y, k, weight, w):
    cfg = ls.PenaltyConfig(beta=weight, gamma=weight, k=k)
    if kind == "ie":
        return ls.ie_loss_terms(ls.member_cross_entropies(logp, y)), None
    if kind == "smcl":
        return ls.smcl_loss_terms(logp, y, k)
    if kind == "cmcl":
        return ls.cmcl_loss_terms(logp, y, cfg)
    if kind == "lba":
        return ls.lba_loss_terms(logp, y, cfg)
    spec = ls.SpecializationMatrix(w=w, k=k, frozen=True)
    return ls.mba_loss_terms(logp, y, spec, cfg)


def _ref_terms(kind, members, y, k, weight, w):
    if kind == "ie":
        return ref.ie_terms(members, y)
    if kind == "smcl":
        return ref.smcl_terms(members, y, k)
    if kind == "cmcl":
        return ref.cmcl_terms(members, y, k, weight)
    if kind == "lba":
        return ref.lba_terms(members, y, k, weight)
    return ref.mba_terms(members, y, w, weight)


def _params(logits):
    return [ad.Tensor(lg.copy(), op="param") for lg in logits]


@pytest.mark.parametrize("form", ["list", "member_major"])
@pytest.mark.parametrize("kind,m,k,weight", CASES)
def test_member_axis_objective_matches_loop_form_bitwise(kind, m, k, weight, form):
    logits, y, w = _case(kind, m, k, weight)

    ref_logits = _params(logits)
    ref_terms, ref_v = _ref_terms(kind, [ad.log_softmax(lg) for lg in ref_logits], y, k, weight, w)
    ad.backward(reduce(add, ref_terms))

    new_logits = _params(logits)
    if form == "list":  # per-member log-softmaxes, stacked member-major
        logp = ref.stack([ad.log_softmax(lg) for lg in new_logits])
    else:
        logp = ad.log_softmax(ref.stack(new_logits))
    terms, v = _new_terms(kind, logp, y, k, weight, w)
    assert terms.shape == (m,)
    ad.backward(terms.sum())

    assert terms.data.tobytes() == np.array([float(t) for t in ref_terms]).tobytes()
    if v is not None:
        assert np.array_equal(v, ref_v)
    for a, b in zip(new_logits, ref_logits):
        assert a.grad.tobytes() == b.grad.tobytes()


@pytest.mark.parametrize("kind", ["smcl", "cmcl", "lba", "mba"])
def test_array_input_terms_match_loop_form_bitwise(kind):
    logits, y, w = _case(kind, 3, 1, 0.75)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    # A constant member-major array: no graph behind the log-probabilities.
    terms, v = _new_terms(kind, ad.as_tensor(logp), y, 1, 0.75, w)
    ref_terms, ref_v = _ref_terms(kind, [ad.as_tensor(lp) for lp in logp], y, 1, 0.75, w)
    assert terms.data.tobytes() == np.array([float(t) for t in ref_terms]).tobytes()
    assert np.array_equal(v, ref_v)
