"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Training-based criteria pin small synthetic configurations and fixed seeds;
each stays well inside its runtime budget on a laptop CPU.
"""
import itertools

import numpy as np
import pytest
from click.testing import CliRunner

import mclkit.autodiff as ad
import mclkit.losses as ls
from mclkit.autodiff import SgdConfig
from mclkit.cli import main as cli_main
from mclkit.data import DatasetSpec, generate_bar_images, generate_blobs
from mclkit.ensemble import member_probabilities
from mclkit.evaluation import evaluate_ensemble, ood_score
from mclkit.training import TrainConfig, train

from gradcheck import check_tensor_grad


def check(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {num}] {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. two-class specialization reproduction (confidence pattern + oracle order)
# ---------------------------------------------------------------------------

def test_criterion_1_two_class_specialization():
    train_ds = generate_bar_images(
        DatasetSpec(kind="bars", n_classes=2, per_class=96, size=16, seed=40)
    )
    test_ds = generate_bar_images(
        DatasetSpec(kind="bars", n_classes=2, per_class=64, size=16, seed=41)
    )
    results = {}
    for method in ("cmcl", "amcl"):
        cfg = TrainConfig(
            method=method, members=2, overlap_k=1, epochs=18, batch_size=32, seed=0,
            sgd=SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4), t_tau=10,
        )
        state, _ = train(train_ds, cfg)
        pred, report = evaluate_ensemble(state, test_ds)
        medians = [
            float(np.median(pred.normalized[test_ds.labels == c, c])) for c in (0, 1)
        ]
        results[method] = (medians, report.oracle_error)

    (cm_med, cm_oracle), (am_med, am_oracle) = results["cmcl"], results["amcl"]
    conf_ok = all(m >= 0.90 for m in am_med) and all(0.60 <= m <= 0.85 for m in cm_med)
    oracle_ok = am_oracle <= cm_oracle
    check(
        1,
        "two-class specialization: confidence medians and oracle ordering",
        conf_ok and oracle_ok,
        f"amcl medians {[round(m, 3) for m in am_med]}, cmcl medians "
        f"{[round(m, 3) for m in cm_med]}, oracle amcl {am_oracle}% vs cmcl {cm_oracle}%",
    )


# ---------------------------------------------------------------------------
# 2. stochastic-assignment overconfidence direction
# ---------------------------------------------------------------------------

def test_criterion_2_overconfidence_direction():
    train_ds = generate_blobs(
        DatasetSpec(kind="blobs", n_classes=4, per_class=100, dim=8, separation=7.0, seed=20)
    )
    test_ds = generate_blobs(
        DatasetSpec(kind="blobs", n_classes=4, per_class=50, dim=8, separation=7.0, seed=21)
    )
    results = {}
    for method in ("smcl", "amcl"):
        cfg = TrainConfig(
            method=method, members=3, overlap_k=1, epochs=30, batch_size=32, seed=1,
            sgd=SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4),
            t_tau=5, hidden_sizes=(32, 16),
        )
        state, _ = train(train_ds, cfg)
        _, report = evaluate_ensemble(state, test_ds)
        results[method] = (report.oracle_error, report.top1_error)

    (sm_oracle, sm_top1), (am_oracle, am_top1) = results["smcl"], results["amcl"]
    smcl_gap = sm_top1 >= 3.0 * sm_oracle and sm_top1 > 0.0
    amcl_tight = am_top1 <= 5.0 * am_oracle or am_top1 == 0.0
    ordering = am_top1 < sm_top1
    check(
        2,
        "stochastic assignment is overconfident, auxiliary-class training is not",
        smcl_gap and amcl_tight and ordering,
        f"smcl {sm_oracle}/{sm_top1}%, amcl {am_oracle}/{am_top1}%",
    )


# ---------------------------------------------------------------------------
# 3. assignment oracle equivalence (exhaustive enumeration)
# ---------------------------------------------------------------------------

def test_criterion_3_assignment_oracle_equivalence():
    rng = np.random.default_rng(3000)
    checked = 0
    ok = True
    while checked < 1000:
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, m + 1))
        rows = int(rng.integers(1, 5))
        mat = rng.uniform(0.0, 10.0, size=(rows, m))
        v = ls.assign_top_k(mat, k)
        for j in range(rows):
            chosen = mat[j][v[j].astype(bool)].sum()
            best = min(
                mat[j][list(comb)].sum() for comb in itertools.combinations(range(m), k)
            )
            if chosen != best:
                ok = False
        checked += rows
    check(3, "top-K selection attains the exhaustive-subset minimum exactly", ok,
          f"{checked} random loss matrices")


# ---------------------------------------------------------------------------
# 4. reduction identities at K=M, beta=gamma=0
# ---------------------------------------------------------------------------

def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(4000)
    worst = 0.0
    for _ in range(100):
        b, m, n = int(rng.integers(2, 9)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        logits = rng.normal(size=(b, m, n + 1))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        y = rng.integers(0, n, size=b)
        cfg = ls.PenaltyConfig(beta=0.0, gamma=0.0, k=m)

        ces = np.stack([[-logp[j, mm, y[j]] for mm in range(m)] for j in range(b)])
        ie = float(ls.ie_loss_terms(ad.as_tensor(ces.T.copy())).sum())
        member_major = ad.as_tensor(logp.transpose(1, 0, 2).copy())
        smcl = float(ls.smcl_loss_terms(member_major, y, m)[0].sum())
        lba = float(ls.lba_loss_terms(member_major, y, cfg)[0].sum())
        w = ls.SpecializationMatrix(w=np.ones((n, m), dtype=np.int64), k=m, frozen=True)
        mba = float(ls.mba_loss_terms(member_major, y, w, cfg)[0].sum())
        worst = max(worst, abs(smcl - ie), abs(lba - ie), abs(mba - ie))
    check(4, "K=M with zero penalties reduces every objective to the plain sum",
          worst <= 1e-9, f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. gradient correctness everywhere
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_correctness():
    import test_autodiff as ta
    import test_losses as tl

    op_cases = [
        "dense", "conv2d", "conv2d_relu", "maxpool", "relu", "sigmoid", "softmax", "log",
        "mul_broadcast", "concat", "mean", "log_softmax", "nll", "kl_uniform_to",
    ]
    for case in op_cases:
        build, params = ta._fd_case(case)
        check_tensor_grad(build, params)
    for kind in ("lba", "mba", "cmcl"):
        build, params = tl._objective_grad_case(kind)
        check_tensor_grad(build, params)
    check(5, "finite differences confirm every op and the full objectives",
          True, f"{len(op_cases)} ops + lba/mba/cmcl objectives at rel tol 1e-4")


# ---------------------------------------------------------------------------
# 6. purity by construction after the freeze
# ---------------------------------------------------------------------------

def test_criterion_6_purity_by_construction(tmp_path):
    out = tmp_path / "purity-run"
    args = [
        "train", "--method", "amcl",
        "--dataset", "blobs:classes=3,per_class=45,dim=8,separation=6.0,seed=60",
        "--members", "3", "--overlap", "1", "--t-tau", "4", "--epochs", "9",
        "--batch-size", "16", "--seed", "2", "--hidden", "16,16",
        "--out", str(out),
    ]
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.output

    from mclkit.data import load_checkpoint

    state = load_checkpoint(out / "checkpoint.amc1")
    w = state.specialization.w

    rows = [
        line.split(",")
        for line in (out / "purity_flow.csv").read_text().splitlines()[1:]
    ]
    post = [r for r in rows if int(r[0]) > 4]
    assert post, "no post-threshold epochs in the purity export"
    counts_ok = True
    ratios_ok = True
    flagged_ratio = {}
    for epoch, cls, model, count, ratio in post:
        c, m = int(cls), int(model)
        if w[c, m] == 0 and int(count) != 0:
            counts_ok = False
        flagged_ratio.setdefault((epoch, c), 0.0)
        if w[c, m] == 1:
            flagged_ratio[(epoch, c)] += float(ratio)
    for total in flagged_ratio.values():
        if total != 1.0:
            ratios_ok = False
    check(6, "after the freeze, every assignment goes to the flagged models",
          counts_ok and ratios_ok,
          f"{len(post)} post-threshold purity rows, flagged-class ratios all 1.0")


# ---------------------------------------------------------------------------
# 7. unseen-data uncertainty direction
# ---------------------------------------------------------------------------

def test_criterion_7_ood_direction():
    full_spec = DatasetSpec(kind="blobs", n_classes=4, per_class=150, dim=8, separation=6.0, seed=30)
    train_ds = generate_blobs(full_spec).filter_classes([0, 1])
    test_full = generate_blobs(
        DatasetSpec(kind="blobs", n_classes=4, per_class=60, dim=8, separation=6.0, seed=31)
    )
    test_in = test_full.filter_classes([0, 1])
    test_ood = test_full.filter_classes([2, 3])

    cfg = TrainConfig(
        method="amcl", members=2, overlap_k=1, epochs=12, batch_size=32, seed=0,
        sgd=SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4),
        t_tau=5, hidden_sizes=(32, 16),
    )
    state, _ = train(train_ds, cfg)

    ood_mean = float(ood_score(state, test_ood.features).mean())
    probs_in = member_probabilities(state, test_in.features)
    from mclkit.evaluation import auxiliary_split_scores

    specialized_scores, _ = auxiliary_split_scores(
        probs_in, test_in.labels, state.specialization
    )
    specialized_mean = float(specialized_scores.mean())
    gap = ood_mean - specialized_mean
    check(7, "held-out classes score higher auxiliary probability than specialized data",
          gap >= 0.2, f"ood mean {ood_mean:.3f} vs specialized mean {specialized_mean:.3f}")


# ---------------------------------------------------------------------------
# 8. worked-example fidelity
# ---------------------------------------------------------------------------

def test_criterion_8_worked_examples():
    from mclkit.evaluation import ensemble_average

    a = ensemble_average(np.array([[0.0, 0.0], [0.0, 1.0]]), normalize=True)
    b = ensemble_average(np.array([[0.5, 0.5], [0.0, 1.0]]), normalize=False)
    ok = np.array_equal(a, [0.0, 1.0]) and np.array_equal(b, [0.25, 0.75])
    check(8, "strip/average/normalize reproduces the two-model walk-through exactly",
          ok, f"got {a.tolist()} and {b.tolist()}")


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "train", "--method", "amcl",
        "--dataset", "blobs:classes=2,per_class=40,dim=8,separation=6.0,seed=90",
        "--members", "2", "--overlap", "1", "--t-tau", "3", "--epochs", "6",
        "--batch-size", "16", "--seed", "7", "--hidden", "16,16",
    ]
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = CliRunner().invoke(cli_main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        digests.append(
            {
                f: (out / f).read_bytes()
                for f in ("summary.csv", "train_log.csv", "purity_flow.csv")
            }
        )
    check(9, "repeated runs with one seed emit byte-identical summary CSVs",
          digests[0] == digests[1])
