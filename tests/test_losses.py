"""Objectives, assignment, and the count-matrix machinery."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mclkit.autodiff as ad
import mclkit.losses as ls
from mclkit.errors import ConfigurationError, StateError

import objective_reference as ref

RNG = np.random.default_rng(321)


def random_probs(rng, b, m, c):
    logits = rng.normal(size=(b, m, c))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def member_major(probs):
    """[B, M, C] probabilities as the member-major [M, B, C] log-probabilities
    the objectives take. A zero probability enters as 1e-300, whose share
    log_softmax rounds away: the row's other log-probabilities stay exact."""
    logs = np.log(np.maximum(np.asarray(probs, dtype=np.float64), 1e-300))
    return ad.log_softmax(ad.as_tensor(np.ascontiguousarray(logs.transpose(1, 0, 2))))


def member_losses(mat):
    """[B, M] per-example, per-member losses as a member-major [M, B] Tensor."""
    return ad.as_tensor(np.ascontiguousarray(np.asarray(mat, dtype=np.float64).T))


def oracle_and_ie(mat):
    """(smcl at K=1, ie) totals over the cross-entropies ``mat`` [B, M].

    smcl at K=1 is the oracle loss: each example's smallest loss across
    members. Log-probabilities -loss on true class 0 of two give exactly
    those cross-entropies.
    """
    neg = -np.asarray(mat, dtype=np.float64).T
    logp = ad.as_tensor(np.stack([neg, np.log(-np.expm1(neg))], axis=-1))
    y = np.zeros(neg.shape[1], dtype=np.int64)
    oracle, _ = ls.smcl_loss_terms(logp, y, 1)
    ie = ls.ie_loss_terms(ls.member_cross_entropies(logp, y))
    return float(oracle.sum()), float(ie.sum())


# ---------------------------------------------------------------------------
# the auxiliary term
# ---------------------------------------------------------------------------

def test_auxiliary_target():
    # the target of the auxiliary penalty: the last slot of every row
    logp = member_major(random_probs(np.random.default_rng(3), 4, 2, 3))
    assert np.array_equal(ref._aux_ce(logp).data, -logp.data[..., 2])


def test_aux_kl_is_exactly_neg_log_aux_probability():
    rng = np.random.default_rng(44)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        val = ref._aux_ce(ad.Tensor(np.log(p))).data.item()
        assert val == -np.log(p[-1])


def test_amcl_aux_term_at_vanishing_aux_probability_is_exact():
    # Member 1 puts p_aux = e^-50 (under any probability clamp) on an example
    # member 0 takes: its penalty is exactly 50 and still pulls p_aux up.
    logits = ad.Tensor(np.array([[[50.0, 0.0, 0.0]], [[0.0, 50.0, 0.0]]]), op="param")
    cfg = ls.PenaltyConfig(beta=0.75, k=1, t_tau=5)
    logp = ad.log_softmax(logits)
    assert float(ref._aux_ce(logp).data[1, 0]) == pytest.approx(50.0, rel=1e-15)
    terms, v, phase = ls.amcl_objective_terms(1, logp, np.array([0]), cfg)
    assert phase == "lba" and np.array_equal(v, [[1, 0]])
    assert terms.data[1] == pytest.approx(0.75 * 50.0, rel=1e-15)
    terms.sum().backward()
    assert logits.grad[1, 0, 2] == pytest.approx(-0.75, rel=1e-12)


# ---------------------------------------------------------------------------
# ie / oracle
# ---------------------------------------------------------------------------

def test_ie_loss_sums_everything():
    assert float(ls.ie_loss_terms(member_losses([[1.0, 2.0], [3.0, 4.0]])).sum()) == 10.0
    assert float(ls.ie_loss_terms(member_losses(np.zeros((3, 2)))).sum()) == 0.0


def test_oracle_loss_row_minima():
    oracle, _ = oracle_and_ie(np.array([[1.0, 2.0], [3.0, 0.5]]))
    assert oracle == pytest.approx(1.5, abs=1e-12)


def test_oracle_equals_ie_for_single_model():
    oracle, ie = oracle_and_ie(RNG.uniform(size=(7, 1)))
    assert oracle == pytest.approx(ie, abs=1e-12)


def test_smcl_k1_assigns_the_member_with_the_lower_true_loss():
    # True cross-entropies 80 and 60: both probabilities e^-80 and e^-60 lie
    # under any probability clamp, where the two members would tie.
    logits = ad.Tensor(np.array([[[0.0, 80.0, 0.0]], [[0.0, 60.0, 0.0]]]), op="param")
    terms, v = ls.smcl_loss_terms(ad.log_softmax(logits), np.array([0]), 1)
    assert np.array_equal(v, [[0, 1]])
    assert terms.data.tolist() == [0.0, pytest.approx(60.0, rel=1e-15)]
    terms.sum().backward()
    assert logits.grad[1, 0, 0] == -1.0 and not logits.grad[0].any()


def test_oracle_never_exceeds_row_means():
    # brute-force row check: min <= mean per row, so oracle <= ie / M
    for _ in range(100):
        mat = RNG.uniform(size=(6, 4))
        oracle, ie = oracle_and_ie(mat)
        assert oracle <= ie / mat.shape[1] + 1e-12


# ---------------------------------------------------------------------------
# assign_top_k
# ---------------------------------------------------------------------------

def test_assign_top_k_argmin_row():
    v = ls.assign_top_k(np.array([[0.2, 0.5, 0.9]]), 1)
    assert np.array_equal(v, [[1, 0, 0]])


def test_assign_top_k_k_equals_m_selects_all():
    v = ls.assign_top_k(RNG.uniform(size=(5, 3)), 3)
    assert np.array_equal(v, np.ones((5, 3), dtype=np.int64))


def test_assign_top_k_tie_prefers_smaller_index():
    v = ls.assign_top_k(np.array([[0.5, 0.5, 0.1]]), 2)
    assert np.array_equal(v, [[1, 0, 1]])


def test_assign_top_k_range_check():
    with pytest.raises(ConfigurationError):
        ls.assign_top_k(np.zeros((2, 3)), 0)
    with pytest.raises(ConfigurationError):
        ls.assign_top_k(np.zeros((2, 3)), 4)


def test_assign_top_k_matches_exhaustive_enumeration():
    # oracle: enumerate all C(M, K) subsets and take the cheapest, summing in
    # ascending index order exactly like the masked objective does
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m + 1))
        mat = rng.uniform(size=(6, m))
        v = ls.assign_top_k(mat, k)
        assert (v.sum(axis=1) == k).all()
        for j in range(6):
            chosen = mat[j][v[j].astype(bool)].sum()
            best = min(
                sum(mat[j][list(comb)]) for comb in itertools.combinations(range(m), k)
            )
            assert chosen == best


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, (4, 5), elements=st.floats(0, 100)),
    st.integers(min_value=1, max_value=5),
)
def test_assign_top_k_rows_always_sum_to_k(mat, k):
    assert (ls.assign_top_k(mat, k).sum(axis=1) == k).all()


# ---------------------------------------------------------------------------
# lba
# ---------------------------------------------------------------------------

def test_lba_beta_zero_is_assigned_loss_only():
    probs = random_probs(RNG, 4, 3, 4)
    labels = np.array([0, 1, 2, 0])
    cfg = ls.PenaltyConfig(beta=0.0, gamma=0.0, k=1)
    terms, v = ls.lba_loss_terms(member_major(probs), labels, cfg)
    loss = terms.sum()
    y = np.array([0, 1, 2, 0])
    ces = -np.log(probs[np.arange(4)[:, None], np.arange(3)[None, :], y[:, None]])
    expected = (ces * v).sum()
    assert float(loss) == pytest.approx(expected, abs=1e-9)


def test_lba_hand_example():
    # B=1, M=2, K=1: losses [-log 0.7, -log 0.1] assign model 0; the other
    # model pays beta * (-log p_aux) with p_aux = 0.7
    probs = np.array([[[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]])
    labels = np.array([0])
    beta = 0.75
    terms, v = ls.lba_loss_terms(member_major(probs), labels, ls.PenaltyConfig(beta=beta, k=1))
    loss = terms.sum()
    assert np.array_equal(v, [[1, 0]])
    expected = -math.log(0.7) + beta * -math.log(0.7)
    assert float(loss) == pytest.approx(expected, abs=1e-9)
    assert float(loss) == pytest.approx(0.6241811518927818, abs=1e-9)


def test_lba_perfectly_specialized_is_global_minimum():
    probs = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
    labels = np.array([0])
    for beta in (0.0, 0.75, 10.0):
        terms, _ = ls.lba_loss_terms(member_major(probs), labels, ls.PenaltyConfig(beta=beta, k=1))
        assert float(terms.sum()) == 0.0


def test_lba_assignment_rows_sum_to_k_every_batch():
    for k in (1, 2, 3):
        probs = random_probs(RNG, 8, 3, 5)
        labels = RNG.integers(0, 4, size=8)
        _, v = ls.lba_loss_terms(member_major(probs), labels, ls.PenaltyConfig(k=k))
        assert (v.sum(axis=1) == k).all()


# ---------------------------------------------------------------------------
# counter / specialization
# ---------------------------------------------------------------------------

def test_accumulate_counts_single_example():
    counter = ls.AssignmentCounter.empty(3, 2)
    ls.accumulate_counts(counter, np.array([[0, 1]]), np.array([2]))
    assert counter.counts[2, 1] == 1
    assert counter.counts.sum() == 1


def test_accumulate_counts_k2_increments_two_cells():
    counter = ls.AssignmentCounter.empty(3, 3)
    ls.accumulate_counts(counter, np.array([[1, 0, 1]]), np.array([0]))
    assert counter.counts[0].tolist() == [1, 0, 1]


def test_accumulate_counts_bookkeeping_identity():
    # over a full pass, each class row gains K * (examples of that class)
    rng = np.random.default_rng(5)
    counter = ls.AssignmentCounter.empty(4, 3)
    k = 2
    y = rng.integers(0, 4, size=64)
    for start in range(0, 64, 8):
        batch = y[start : start + 8]
        v = ls.assign_top_k(rng.uniform(size=(8, 3)), k)
        ls.accumulate_counts(counter, v, batch)
    for c in range(4):
        assert counter.counts[c].sum() == k * int((y == c).sum())


def test_accumulate_after_freeze_raises():
    counter = ls.AssignmentCounter.empty(2, 2)
    counter.frozen = True
    with pytest.raises(StateError):
        ls.accumulate_counts(counter, np.array([[1, 0]]), np.array([0]))


def test_fix_specialization_row_argmax():
    counter = ls.AssignmentCounter(counts=np.array([[10, 2], [3, 7]]), epochs_accumulated=1)
    w = ls.fix_specialization(counter, 1)
    assert np.array_equal(w.w, [[1, 0], [0, 1]])
    assert w.frozen


def test_fix_specialization_tie_prefers_smaller_index():
    counter = ls.AssignmentCounter(counts=np.array([[5, 5]]), epochs_accumulated=1)
    assert np.array_equal(ls.fix_specialization(counter, 1).w, [[1, 0]])


def test_fix_specialization_matches_bruteforce_sort():
    rng = np.random.default_rng(23)
    for _ in range(50):
        counts = rng.integers(0, 20, size=(5, 4))
        k = int(rng.integers(1, 5))
        counter = ls.AssignmentCounter(counts=counts, epochs_accumulated=1)
        w = ls.fix_specialization(counter, k)
        for c in range(5):
            expected = sorted(range(4), key=lambda m: (-counts[c, m], m))[:k]
            assert sorted(np.flatnonzero(w.w[c])) == sorted(expected)
        # idempotent: refreezing the same counts yields the same matrix
        assert np.array_equal(ls.fix_specialization(counter, k).w, w.w)


def test_fix_specialization_flags_are_the_argsort_of_negated_counts():
    # The flags as an argsort of the negated counts put along each row gave them.
    rng = np.random.default_rng(29)
    for m in (1, 2, 3, 5):
        for _ in range(20):
            counts = rng.integers(0, 4, size=(6, m))  # small counts: many ties
            counts[rng.integers(0, 6)] = 0
            counter = ls.AssignmentCounter(counts=counts, epochs_accumulated=1)
            for k in range(1, m + 1):
                order = np.argsort(-counts, axis=1, kind="stable")[:, :k]
                expected = np.zeros((6, m), dtype=np.int64)
                np.put_along_axis(expected, order, 1, axis=1)
                w = ls.fix_specialization(counter, k).w
                assert w.dtype == expected.dtype and np.array_equal(w, expected)


def test_fix_specialization_zero_row_defaults_with_diagnostic(caplog):
    counter = ls.AssignmentCounter(
        counts=np.array([[0, 0, 0], [1, 5, 2]]), epochs_accumulated=1
    )
    with caplog.at_level("WARNING"):
        w = ls.fix_specialization(counter, 2)
    assert np.array_equal(w.w[0], [1, 1, 0])
    assert any("no recorded assignments" in r.message for r in caplog.records)


def test_fix_specialization_empty_counter_raises():
    with pytest.raises(StateError):
        ls.fix_specialization(ls.AssignmentCounter.empty(2, 2), 1)


# ---------------------------------------------------------------------------
# mba
# ---------------------------------------------------------------------------

def _frozen(wmat, k=1):
    return ls.SpecializationMatrix(w=np.asarray(wmat), k=k, frozen=True)


def test_mba_reads_assignment_from_w_not_losses():
    # model 0 has the lowest loss but w routes class 0 to model 1
    probs = np.array([[[0.9, 0.05, 0.05], [0.3, 0.2, 0.5]]])
    labels = np.array([0])
    w = _frozen([[0, 1], [1, 0]])
    cfg = ls.PenaltyConfig(gamma=0.5)
    loss = ls.mba_loss_terms(member_major(probs), labels, w, cfg)[0].sum()
    expected = -math.log(0.3) + 0.5 * -math.log(0.05)
    assert float(loss) == pytest.approx(expected, abs=1e-9)


def test_mba_hand_example_term_by_term():
    probs = np.array([[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]])
    labels = np.array([1])
    w = _frozen([[1, 0], [0, 1]])
    gamma = 0.75
    loss = ls.mba_loss_terms(member_major(probs), labels, w, ls.PenaltyConfig(gamma=gamma))[0].sum()
    # class 1 -> model 1 gets the ground-truth term, model 0 the aux penalty
    expected = gamma * -math.log(0.1) + -math.log(0.5)
    assert float(loss) == pytest.approx(expected, abs=1e-9)


def test_mba_requires_frozen_matrix():
    probs = random_probs(RNG, 2, 2, 3)
    labels = np.array([0, 1])
    unfrozen = ls.SpecializationMatrix(w=np.eye(2, dtype=np.int64), k=1, frozen=False)
    with pytest.raises(StateError):
        ls.mba_loss_terms(member_major(probs), labels, unfrozen, ls.PenaltyConfig())


def test_mba_gamma_zero_all_ones_w_equals_ie():
    probs = random_probs(RNG, 4, 2, 4)
    labels = np.array([0, 1, 2, 0])
    w = _frozen(np.ones((3, 2), dtype=np.int64), k=2)
    loss = ls.mba_loss_terms(member_major(probs), labels, w, ls.PenaltyConfig(gamma=0.0, k=2))[0].sum()
    ces = np.stack(
        [[-math.log(probs[j, m, y]) for m in range(2)] for j, y in enumerate([0, 1, 2, 0])]
    )
    assert float(loss) == pytest.approx(float(ls.ie_loss_terms(member_losses(ces)).sum()), abs=1e-9)


def test_mba_assignment_depends_only_on_class_after_freeze():
    w = _frozen([[1, 0], [0, 1]])
    labels = np.array([0, 0, 1])
    for _ in range(5):
        probs = random_probs(RNG, 3, 2, 3)
        terms, flags = ls.mba_loss_terms(member_major(probs), labels, w, ls.PenaltyConfig())
        assert np.array_equal(flags, [[1, 0], [1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# cmcl
# ---------------------------------------------------------------------------

def test_cmcl_uniform_unassigned_pays_nothing():
    probs = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    labels = np.array([0])
    terms, v = ls.cmcl_loss_terms(member_major(probs), labels, ls.PenaltyConfig(beta=0.75, k=1))
    assert np.array_equal(v, [[1, 0]])
    assert float(terms.sum()) == pytest.approx(0.0, abs=1e-9)


def test_cmcl_beta_zero_reduces_to_smcl():
    probs = random_probs(RNG, 5, 3, 4)
    labels = RNG.integers(0, 4, size=5)
    a, va = ls.cmcl_loss_terms(member_major(probs), labels, ls.PenaltyConfig(beta=0.0, k=2))
    b, vb = ls.smcl_loss_terms(member_major(probs), labels, 2)
    assert np.array_equal(va, vb)
    assert float(a.sum()) == pytest.approx(float(b.sum()), abs=1e-12)


def test_cmcl_hand_penalty_value():
    probs = np.array([[[1.0, 0.0], [0.75, 0.25]]])
    labels = np.array([0])
    beta = 0.6
    terms, v = ls.cmcl_loss_terms(member_major(probs), labels, ls.PenaltyConfig(beta=beta, k=1))
    assert np.array_equal(v, [[1, 0]])
    assert float(terms.sum()) == pytest.approx(beta * 0.14384103622589042, abs=1e-9)


# ---------------------------------------------------------------------------
# amcl dispatch
# ---------------------------------------------------------------------------

def test_amcl_dispatch_boundary():
    probs = random_probs(RNG, 3, 2, 4)
    labels = np.array([0, 1, 2])
    cfg = ls.PenaltyConfig(k=1, t_tau=5)
    w = _frozen([[1, 0], [0, 1], [1, 0]])
    _, _, phase = ls.amcl_objective_terms(5, member_major(probs), labels, cfg, specialization=w)
    assert phase == "lba"
    _, _, phase = ls.amcl_objective_terms(6, member_major(probs), labels, cfg, specialization=w)
    assert phase == "mba"


def test_amcl_mba_before_freeze_raises():
    probs = random_probs(RNG, 2, 2, 3)
    labels = np.array([0, 1])
    cfg = ls.PenaltyConfig(k=1, t_tau=0)
    with pytest.raises(StateError):
        ls.amcl_objective_terms(1, member_major(probs), labels, cfg)


def test_amcl_lba_branch_matches_lba_loss():
    probs = random_probs(RNG, 4, 3, 5)
    labels = np.array([0, 1, 2, 3])
    cfg = ls.PenaltyConfig(k=2, t_tau=10)
    a, va, _ = ls.amcl_objective_terms(3, member_major(probs), labels, cfg)
    b, vb = ls.lba_loss_terms(member_major(probs), labels, cfg)
    assert float(a.sum()) == float(b.sum())
    assert np.array_equal(va, vb)


# ---------------------------------------------------------------------------
# reduction identities
# ---------------------------------------------------------------------------

def test_k_equals_m_and_zero_penalties_reduce_to_ie():
    rng = np.random.default_rng(99)
    for _ in range(20):
        b, m, n = 6, 3, 4
        probs = random_probs(rng, b, m, n + 1)
        probs_plain = random_probs(rng, b, m, n)
        y = rng.integers(0, n, size=b)
        cfg = ls.PenaltyConfig(beta=0.0, gamma=0.0, k=m)

        ces_aug = -np.log(probs[np.arange(b), :, y])
        ie_aug = float(ls.ie_loss_terms(member_losses(ces_aug)).sum())
        lba, _ = ls.lba_loss_terms(member_major(probs), y, cfg)
        w = ls.SpecializationMatrix(w=np.ones((n, m), dtype=np.int64), k=m, frozen=True)
        mba, _ = ls.mba_loss_terms(member_major(probs), y, w, cfg)
        assert abs(float(lba.sum()) - ie_aug) <= 1e-9
        assert abs(float(mba.sum()) - ie_aug) <= 1e-9

        ces_plain = -np.log(probs_plain[np.arange(b), :, y])
        ie_plain = float(ls.ie_loss_terms(member_losses(ces_plain)).sum())
        smcl, _ = ls.smcl_loss_terms(member_major(probs_plain), y, m)
        assert abs(float(smcl.sum()) - ie_plain) <= 1e-9


def test_smcl_at_k_m_equals_ie_examplewise():
    probs = random_probs(RNG, 4, 2, 3)
    labels = np.array([0, 1, 2, 1])
    smcl, v = ls.smcl_loss_terms(member_major(probs), labels, 2)
    ces = np.stack(
        [[-math.log(probs[j, m, y]) for m in range(2)] for j, y in enumerate([0, 1, 2, 1])]
    )
    assert np.array_equal(v, np.ones((4, 2), dtype=np.int64))
    assert float(smcl.sum()) == pytest.approx(float(ls.ie_loss_terms(member_losses(ces)).sum()), abs=1e-9)


# ---------------------------------------------------------------------------
# gradients of the full objectives
# ---------------------------------------------------------------------------

def _objective_grad_case(kind):
    from gradcheck import check_tensor_grad

    rng = np.random.default_rng(list(kind.encode()))
    b, m, n = 3, 2, 3
    logits = [ad.Tensor(rng.normal(size=(b, n + 1)), op="param") for _ in range(m)]
    labels = rng.integers(0, n, size=b)
    cfg = ls.PenaltyConfig(beta=0.7, gamma=0.4, k=1, t_tau=3)

    def probs(params):
        return ref.stack([ad.log_softmax(lg) for lg in params])

    if kind == "lba":
        build = lambda: ls.lba_loss_terms(probs(logits), labels, cfg)[0].sum()
    elif kind == "mba":
        w = ls.SpecializationMatrix(
            w=ls.assign_top_k(rng.uniform(size=(n, m)), 1), k=1, frozen=True
        )
        build = lambda: ls.mba_loss_terms(probs(logits), labels, w, cfg)[0].sum()
    else:
        plain_logits = [ad.Tensor(rng.normal(size=(b, n)), op="param") for _ in range(m)]
        plain = rng.integers(0, n, size=b)
        build = lambda: ls.cmcl_loss_terms(probs(plain_logits), plain, cfg)[0].sum()
        return build, plain_logits
    return build, logits


@pytest.mark.parametrize("kind", ["lba", "mba", "cmcl"])
def test_objective_gradients_match_finite_differences(kind):
    from gradcheck import check_tensor_grad

    build, params = _objective_grad_case(kind)
    check_tensor_grad(build, params)


def test_lba_unassigned_member_gets_only_penalty_gradient():
    rng = np.random.default_rng(3)
    logits = [ad.Tensor(rng.normal(size=(1, 3)), op="param") for _ in range(2)]
    labels = np.array([0])
    logp = ref.stack([ad.log_softmax(lg) for lg in logits])
    terms, v = ls.lba_loss_terms(logp, labels, ls.PenaltyConfig(beta=0.0, k=1))
    terms.sum().backward()
    unassigned = int(np.flatnonzero(v[0] == 0)[0])
    assert np.allclose(logits[unassigned].grad, 0.0)
    assigned = int(np.flatnonzero(v[0] == 1)[0])
    assert not np.allclose(logits[assigned].grad, 0.0)
