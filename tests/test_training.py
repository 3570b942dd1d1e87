"""Training loop behavior: gradient scoping, the phase switch, determinism."""
import numpy as np
import pytest

import mclkit.autodiff as ad
import mclkit.losses as ls
from mclkit.data import DatasetSpec, generate_bar_images, generate_blobs
from mclkit.ensemble import build_ensemble, ensemble_forward
from mclkit.errors import ConfigurationError, NumericError, StateError
from mclkit.models import ArchitectureSpec
from mclkit.training import TrainConfig, freeze_specialization, resolve_architecture, train

BLOBS = generate_blobs(
    DatasetSpec(kind="blobs", n_classes=2, per_class=60, dim=8, separation=6.0, seed=10)
)


def _mlp_cfg(method, **kw):
    defaults = dict(
        method=method,
        members=2,
        overlap_k=1,
        epochs=8,
        batch_size=16,
        seed=0,
        sgd=ad.SgdConfig(learning_rate=0.05, momentum=0.9, weight_decay=5e-4),
        t_tau=4,
        hidden_sizes=(16, 16),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def _one_batch_grads(method, k=1, fusion="none"):
    """Run one objective + backward by hand and return per-member grad norms."""
    arch = ArchitectureSpec(
        kind="mlp",
        input_shape=(8,),
        n_classes=2,
        hidden_sizes=(16, 16),
        aux_class=method == "amcl",
    )
    state = build_ensemble(
        method=method, arch=arch, members=2, overlap_k=k, t_tau=4,
        beta=0.75, gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=3,
    )
    x = BLOBS.features[:1]
    y = BLOBS.labels[:1]
    logits = ensemble_forward(state, x, train_mode=True, share_rng=np.random.default_rng(0))
    probs = ad.softmax(logits)
    if method == "smcl":
        terms, v = ls.smcl_loss_terms(probs, ls.one_hot(y, 2), k)
    else:
        ces = ls.member_cross_entropies(probs, ls.one_hot(y, 2))
        terms, v = ls.ie_loss_terms(ces), np.ones((1, 2), dtype=np.int64)
    ad.backward(ls._total(terms))
    norms = [
        max(np.abs(p.grad).max() for p in member.parameters())
        for member in state.members
    ]
    return norms, v


def test_smcl_k1_routes_gradient_to_one_member_only():
    norms, v = _one_batch_grads("smcl", k=1)
    assigned = int(np.flatnonzero(v[0] == 1)[0])
    unassigned = 1 - assigned
    assert norms[assigned] > 0.0
    assert norms[unassigned] == 0.0


def test_ie_routes_gradients_to_all_members():
    norms, _ = _one_batch_grads("ie")
    assert all(n > 0.0 for n in norms)


def test_amcl_two_blob_specialization_is_permutation():
    state, log = train(BLOBS, _mlp_cfg("amcl"))
    w = state.specialization.w
    assert state.specialization.frozen
    assert (w.sum(axis=1) == 1).all()
    assert (w.sum(axis=0) == 1).all()


def test_trained_specialist_rejects_foreign_inputs_via_aux():
    from mclkit.ensemble import member_probabilities

    state, _ = train(BLOBS, _mlp_cfg("amcl", epochs=10))
    w = state.specialization.w
    probs = member_probabilities(state, BLOBS.features)
    for c in range(2):
        specialist = int(np.flatnonzero(w[c])[0])
        other = 1 - specialist
        mask = BLOBS.labels == c
        # the non-specialist routes nearly all mass to its auxiliary slot
        assert probs[mask, other, -1].mean() > 0.9
        assert probs[mask, specialist, -1].mean() < 0.1


def test_amcl_phase_flags_follow_threshold():
    _, log = train(BLOBS, _mlp_cfg("amcl", epochs=7, t_tau=3))
    phases = [r.phase for r in log.records]
    assert phases == ["lba"] * 3 + ["mba"] * 4


def test_post_freeze_assignments_read_from_w_exactly():
    state, log = train(BLOBS, _mlp_cfg("amcl", epochs=6, t_tau=2))
    w = state.specialization.w
    for record in log.records[2:]:
        counts = record.assignment_counts
        # all ground-truth assignments of class c go to the w-flagged models
        for c in range(2):
            assert counts[c][w[c] == 0].sum() == 0


def test_frozen_w_never_changes_with_more_training():
    state, _ = train(BLOBS, _mlp_cfg("amcl", epochs=5, t_tau=4))
    before = state.specialization.w.copy()
    assert state.counter.frozen
    with pytest.raises(StateError):
        ls.accumulate_counts(state.counter, np.array([[1, 0]]), np.array([0]))
    assert np.array_equal(state.specialization.w, before)


def test_double_freeze_raises():
    state, _ = train(BLOBS, _mlp_cfg("amcl", epochs=5, t_tau=4))
    with pytest.raises(StateError):
        freeze_specialization(state)


def test_amcl_t_tau_zero_rejected_as_state_error():
    with pytest.raises(StateError):
        train(BLOBS, _mlp_cfg("amcl", t_tau=0, epochs=2))


@pytest.mark.parametrize("t_tau", [0, -1])
def test_amcl_t_tau_below_one_rejected_before_any_work(t_tau, monkeypatch):
    import mclkit.training as training

    def no_build(**kw):
        raise AssertionError("ensemble built before the schedule was checked")

    monkeypatch.setattr(training, "build_ensemble", no_build)
    epochs = []
    with pytest.raises(StateError, match="t_tau"):
        train(BLOBS, _mlp_cfg("amcl", t_tau=t_tau, epochs=2), on_epoch=lambda *a: epochs.append(a))
    assert epochs == []


def test_counter_accumulates_only_through_threshold():
    state, _ = train(BLOBS, _mlp_cfg("amcl", epochs=8, t_tau=3))
    # K=1: one increment per example per accumulation epoch
    assert state.counter.counts.sum() == 3 * len(BLOBS)
    assert state.counter.epochs_accumulated == 3


def test_training_reduces_oracle_error():
    from mclkit.evaluation import evaluate_ensemble

    cfg = _mlp_cfg("smcl", epochs=10)
    arch = resolve_architecture(BLOBS, cfg)
    fresh = build_ensemble(
        method=cfg.method, arch=arch, members=cfg.members, overlap_k=cfg.overlap_k,
        t_tau=cfg.t_tau, beta=cfg.beta, gamma=cfg.gamma, p_share=cfg.p_share,
        fusion_mode=cfg.fusion, seed=cfg.seed,
    )
    _, before = evaluate_ensemble(fresh, BLOBS)
    state, _ = train(BLOBS, cfg)
    _, after = evaluate_ensemble(state, BLOBS)
    assert after.oracle_error < before.oracle_error


def test_reproducibility_bit_exact():
    runs = []
    for _ in range(2):
        _, log = train(BLOBS, _mlp_cfg("amcl"))
        runs.append(
            [
                (r.epoch, r.phase, r.train_loss, r.oracle_error, r.top1_error, r.assignment_counts.tobytes())
                for r in log.records
            ]
        )
    assert runs[0] == runs[1]


def test_thread_cap_does_not_change_results(monkeypatch):
    logs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AMCL_THREADS", threads)
        state, log = train(BLOBS, _mlp_cfg("amcl"))
        logs.append(
            [(r.train_loss, r.oracle_error, r.top1_error) for r in log.records]
        )
    for (a, b) in zip(*logs):
        assert a == pytest.approx(b, abs=1e-9)


BARS = generate_bar_images(DatasetSpec(kind="bars", n_classes=2, per_class=12, size=16, seed=4))


@pytest.mark.parametrize("method", ["amcl", "smcl"])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_thread_count_gives_byte_identical_runs(arch, method, monkeypatch, tmp_path):
    import mclkit.training as training

    if arch == "mlp":
        data, cfg = BLOBS, _mlp_cfg(method, epochs=5, t_tau=3)
    else:
        data, cfg = BARS, _mlp_cfg(method, epochs=3, t_tau=2, batch_size=8, conv_filters=(4, 6, 8))
    pooled = []
    member_logits = training._member_logits

    def spy(member, x_np):
        pooled.append(member.member_index)
        return member_logits(member, x_np)

    monkeypatch.setattr(training, "_member_logits", spy)
    runs = []
    for threads in ("2", "1"):
        monkeypatch.setenv("AMCL_THREADS", threads)
        pooled.clear()
        state, log = train(data, cfg)
        assert bool(pooled) == (threads == "2")
        log.to_csv(tmp_path / "log.csv")
        log.purity_to_csv(tmp_path / "purity.csv")
        runs.append((
            (tmp_path / "log.csv").read_bytes(),
            (tmp_path / "purity.csv").read_bytes(),
            [p.data.tobytes() for p in state.parameters()],
        ))
    assert runs[0] == runs[1]


def test_threads_default_to_one(monkeypatch):
    from mclkit.training import _thread_budget

    monkeypatch.delenv("AMCL_THREADS", raising=False)
    assert _thread_budget(3) == 1
    monkeypatch.setenv("AMCL_THREADS", "8")
    assert _thread_budget(3) == 3


def test_invalid_thread_env_rejected(monkeypatch):
    monkeypatch.setenv("AMCL_THREADS", "many")
    with pytest.raises(ConfigurationError):
        train(BLOBS, _mlp_cfg("ie", epochs=1))


def test_k_range_validated():
    with pytest.raises(ConfigurationError, match="K must satisfy"):
        TrainConfig(method="smcl", members=2, overlap_k=3)


def test_fusion_modes_train_end_to_end():
    for fusion in ("module", "share"):
        state, log = train(BLOBS, _mlp_cfg("amcl", fusion=fusion, epochs=6, t_tau=3))
        assert np.isfinite(log.records[-1].train_loss)
        assert state.specialization is not None


def test_fusion_module_parameters_receive_gradient_updates():
    arch_probe = []

    def capture(epoch, state, record):
        if epoch == 1:
            arch_probe.append(
                {k: v.data.copy() for k, v in state.fusion.params.items()}
            )

    state, _ = train(BLOBS, _mlp_cfg("ie", fusion="module", epochs=3), on_epoch=capture)
    changed = any(
        not np.array_equal(arch_probe[0][k], state.fusion.params[k].data)
        for k in arch_probe[0]
    )
    assert changed


def test_resolve_architecture_auto():
    cfg_img = TrainConfig(method="amcl")
    bars = DatasetSpec(kind="bars", n_classes=2, per_class=4, size=16, seed=0)
    from mclkit.data import generate_bar_images

    assert resolve_architecture(generate_bar_images(bars), cfg_img).kind == "simple_cnn"
    assert resolve_architecture(BLOBS, cfg_img).kind == "mlp"
    assert resolve_architecture(BLOBS, TrainConfig(method="smcl")).aux_class is False
    assert resolve_architecture(BLOBS, cfg_img).aux_class is True


def test_train_log_csv_round_trip(tmp_path):
    _, log = train(BLOBS, _mlp_cfg("amcl", epochs=5))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,phase,train_loss,oracle_error,top1_error"
    assert len(lines) == 6
    purity = tmp_path / "purity.csv"
    log.purity_to_csv(purity)
    rows = purity.read_text().splitlines()
    assert rows[0] == "epoch,class,model,count,ratio"
    assert len(rows) == 1 + 5 * 2 * 2


# ---------------------------------------------------------------------------
# deferred finite checks
# ---------------------------------------------------------------------------

def _failing_run(arch, param, value):
    """Train until ``on_epoch`` corrupts one parameter after epoch 1; the message."""
    if arch == "mlp":
        data, cfg = BLOBS, _mlp_cfg("amcl", epochs=3, t_tau=2)
    else:
        data, cfg = BARS, _mlp_cfg("amcl", epochs=3, t_tau=2, batch_size=8, conv_filters=(4, 6, 8))

    def corrupt(epoch, state, record):
        if epoch == 1:
            state.members[1].params[param].data[...] = value

    with pytest.raises(NumericError) as err:
        train(data, cfg, on_epoch=corrupt)
    return str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "arch,param,value,op",
    [
        # MLP parameters are stacked over the member axis before the matmul.
        ("mlp", "dense1.w", np.nan, "stack"),
        ("mlp", "dense1.w", 1e308, "matmul"),
        ("cnn", "conv1.w", np.nan, "conv2d"),
    ],
)
def test_nonfinite_parameter_names_the_same_op_as_per_op_checks(
    arch, param, value, op, threads, monkeypatch
):
    from contextlib import nullcontext

    monkeypatch.setenv("AMCL_THREADS", threads)
    deferred = _failing_run(arch, param, value)
    # Per-op checks everywhere: the scope never defers anything.
    monkeypatch.setattr(ad, "deferred_checks", lambda active=True: nullcontext())
    assert _failing_run(arch, param, value) == deferred
    assert deferred == f"epoch 2, batch at example 0: non-finite values produced by op '{op}'"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_one_mlp_step_makes_two_plus_one_per_parameter_finite_checks(threads, monkeypatch):
    import mclkit.training as training

    monkeypatch.setenv("AMCL_THREADS", threads)
    labels = []
    check = ad._check_finite

    def counting(arr, op):
        labels.append(op)
        check(arr, op)

    built = training.build_ensemble

    def build_then_count(**kw):
        state = built(**kw)
        labels.clear()  # parameter initialization is not part of the step
        return state

    monkeypatch.setattr(ad, "_check_finite", counting)
    monkeypatch.setattr(training, "build_ensemble", build_then_count)
    state, _ = train(BLOBS, _mlp_cfg("amcl", members=3, epochs=1, t_tau=1, batch_size=len(BLOBS)))
    assert len(state.parameters()) == 18
    assert sorted(labels) == sorted(["terms", "logits"] + ["gradient"] * 18)


@pytest.mark.parametrize("available", [True, False])
def test_train_trims_the_heap_once_after_dropping_the_last_graph(available, monkeypatch):
    import gc

    calls = []

    def spy(pad):
        gc.collect()
        live_graph = [o for o in gc.get_objects() if isinstance(o, ad.Tensor) and o.parents]
        calls.append((pad, len(live_graph)))

    monkeypatch.setattr(ad, "_malloc_trim", spy if available else None)
    train(BLOBS, _mlp_cfg("amcl", epochs=2, t_tau=1))
    assert calls == ([(0, 0)] if available else [])
