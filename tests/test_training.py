"""Training loop behavior: gradient scoping, the phase switch, determinism."""
import contextlib

import numpy as np
import pytest

import mclkit.autodiff as ad
import mclkit.losses as ls
from mclkit.data import DatasetSpec, LabeledDataset, generate_bar_images, generate_blobs
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


def _step_graph_sizes(dataset, cfg, monkeypatch):
    """Nodes each training step's backward walks, one step per epoch."""
    sizes = []
    walk = ad.topo_order

    def counted(root):
        order = walk(root)
        sizes.append(len(order))
        return order

    monkeypatch.setattr(ad, "topo_order", counted)
    train(dataset, cfg)
    assert len(sizes) == cfg.epochs
    return sizes


@pytest.mark.parametrize(
    "method,epoch,nodes",
    [
        pytest.param("ie", 1, 13, id="ie"),
        pytest.param("smcl", 1, 12, id="smcl"),
        pytest.param("cmcl", 1, 12, id="cmcl"),
        pytest.param("amcl", 1, 12, id="amcl-lba"),
        pytest.param("amcl", 2, 12, id="amcl-mba"),
    ],
)
def test_mlp_training_step_graph_size(method, epoch, nodes, monkeypatch):
    # One 3-member step over two hidden layers: 6 parameter leaves, 3 dense
    # nodes and the log-softmax, then the objective and the sum. The smcl,
    # cmcl and amcl objectives are one assigned_nll node, penalty included;
    # ie's are two (nll and the per-member sum).
    cfg = _mlp_cfg(method, members=3, epochs=2, t_tau=1, batch_size=len(BLOBS))
    assert _step_graph_sizes(BLOBS, cfg, monkeypatch)[epoch - 1] == nodes


@pytest.mark.parametrize("fusion,nodes", [("none", 19), ("module", 35), ("share", 20)])
def test_cnn_training_step_graph_size(fusion, nodes, monkeypatch):
    # One 2-member amcl step: 8 parameter leaves and one member-axis node per
    # layer (conv1, pool, conv2, pool, conv3, pool, flatten, fc), then the
    # log-softmax, the objective and the sum. The fusion module adds its 6
    # parameters, the channel concat, projection, spatial mean (sum and
    # scale), two gate layers, sigmoid, reshape, gating mul and the inject;
    # feature sharing adds one gather.
    cfg = TrainConfig(method="amcl", members=2, epochs=1, t_tau=1, batch_size=len(BARS), fusion=fusion)
    assert _step_graph_sizes(BARS, cfg, monkeypatch) == [nodes]


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
    logp = ad.log_softmax(logits)
    if method == "smcl":
        terms, v = ls.smcl_loss_terms(logp, y, k)
    else:
        ces = ls.member_cross_entropies(logp, y)
        terms, v = ls.ie_loss_terms(ces), np.ones((1, 2), dtype=np.int64)
    ad.backward(terms.sum())
    norms = [
        max(np.abs(p.grad[m]).max() for p in state.layers.values())
        for m in range(len(state.members))
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


@pytest.mark.parametrize("method", ["smcl", "amcl"])
@pytest.mark.parametrize("bad", [-1, 2])
def test_train_rejects_labels_outside_the_classes(bad, method):
    # Labels are checked once per dataset; the objectives take class indices
    # as they are. Label 2 of two classes is amcl's auxiliary slot.
    labels = BLOBS.labels.copy()
    labels[7] = bad
    ds = LabeledDataset(features=BLOBS.features, labels=labels, n_classes=2)
    with pytest.raises(ConfigurationError, match="labels out of range"):
        train(ds, _mlp_cfg(method, epochs=1))


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


BARS = generate_bar_images(DatasetSpec(kind="bars", n_classes=2, per_class=12, size=16, seed=4))


@pytest.mark.parametrize("method", ["amcl", "smcl"])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_train_runs_are_byte_identical(arch, method, tmp_path):
    if arch == "mlp":
        data, cfg = BLOBS, _mlp_cfg(method, epochs=5, t_tau=3)
    else:
        data, cfg = BARS, _mlp_cfg(method, epochs=3, t_tau=2, batch_size=8, conv_filters=(4, 6, 8))
    runs = []
    for _ in range(2):
        state, log = train(data, cfg)
        log.to_csv(tmp_path / "log.csv")
        log.purity_to_csv(tmp_path / "purity.csv")
        runs.append((
            (tmp_path / "log.csv").read_bytes(),
            (tmp_path / "purity.csv").read_bytes(),
            [p.data.tobytes() for p in state.parameters()],
        ))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fusion", ["none", "module"])
def test_cnn_training_in_the_conv_workspace_is_bit_identical(fusion, monkeypatch):
    # train makes its conv matrices in one reused buffer, freed on return;
    # without it (a no-op context) every parameter has the same bits.
    cfg = _mlp_cfg("amcl", epochs=3, t_tau=2, batch_size=8, conv_filters=(4, 6, 8), fusion=fusion)
    params = [[p.data.tobytes() for p in train(BARS, cfg)[0].parameters()]]
    assert ad._graph.workspace is None
    monkeypatch.setattr(ad, "conv_workspace", contextlib.nullcontext)
    params.append([p.data.tobytes() for p in train(BARS, cfg)[0].parameters()])
    assert params[0] == params[1]


@pytest.mark.parametrize("arch,fusion", [("mlp", "none"), ("cnn", "none"), ("cnn", "module")])
def test_trained_and_reloaded_ensembles_give_the_same_probabilities(arch, fusion, tmp_path):
    # Training updates the optimizer's packed vector; a checkpoint written
    # from views taken before packing would hold the initial weights.
    from mclkit.data import load_checkpoint, save_checkpoint
    from mclkit.ensemble import member_probabilities

    if arch == "mlp":
        data, cfg = BLOBS, _mlp_cfg("amcl", epochs=2, t_tau=1, fusion=fusion)
    else:
        data, cfg = BARS, _mlp_cfg(
            "amcl", epochs=2, t_tau=1, batch_size=8, conv_filters=(4, 6, 8), fusion=fusion
        )
    state, _ = train(data, cfg)
    initial = build_ensemble(
        method=cfg.method, arch=resolve_architecture(data, cfg), members=cfg.members,
        overlap_k=cfg.overlap_k, t_tau=cfg.t_tau, beta=cfg.beta, gamma=cfg.gamma,
        p_share=cfg.p_share, fusion_mode=fusion, seed=cfg.seed,
    )
    save_checkpoint(state, tmp_path / "ck.amc1")
    loaded = load_checkpoint(tmp_path / "ck.amc1")
    trained = member_probabilities(state, data.features, batch_size=16)
    assert np.array_equal(member_probabilities(loaded, data.features, batch_size=16), trained)
    assert not np.array_equal(member_probabilities(initial, data.features, batch_size=16), trained)


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
@pytest.mark.parametrize(
    "arch,param,value,op",
    [
        # MLP layers are stored with a member axis; the dense node reads them whole.
        ("mlp", "dense1.w", np.nan, "dense"),
        ("mlp", "dense1.w", 1e308, "dense"),
        ("cnn", "conv1.w", np.nan, "conv2d"),
        # A finite auxiliary log-probability of -1e308: every layer's output
        # stays finite, and member 1's penalty summed over the batch overflows.
        ("mlp", "head.b", np.array([0.0, 0.0, -1e308]), "assigned_nll"),
    ],
)
def test_nonfinite_parameter_names_the_same_op_as_per_op_checks(
    arch, param, value, op, monkeypatch
):
    from contextlib import nullcontext

    deferred = _failing_run(arch, param, value)
    # Per-op checks everywhere: the scope never defers anything.
    monkeypatch.setattr(ad, "deferred_checks", lambda active=True: nullcontext())
    assert _failing_run(arch, param, value) == deferred
    assert deferred == f"epoch 2, batch at example 0: non-finite values produced by op '{op}'"


@pytest.mark.parametrize("overlap_k", [1, 2])
def test_one_mlp_step_makes_three_finite_checks_one_over_every_gradient(overlap_k, monkeypatch):
    import mclkit.training as training

    labels = []
    sizes = {}
    check = ad._check_finite

    def counting(arr, op):
        labels.append(op)
        sizes[op] = arr.size
        check(arr, op)

    built = training.build_ensemble

    def build_then_count(**kw):
        state = built(**kw)
        labels.clear()  # parameter initialization is not part of the step
        return state

    monkeypatch.setattr(ad, "_check_finite", counting)
    monkeypatch.setattr(training, "build_ensemble", build_then_count)
    cfg = _mlp_cfg("amcl", members=3, overlap_k=overlap_k, epochs=1, t_tau=1, batch_size=len(BLOBS))
    state, _ = train(BLOBS, cfg)
    assert len(state.parameters()) == 6
    assert labels == ["terms", "logits", "gradient"]
    # The packed gradient: the elements the six per-parameter checks read, in one call.
    assert sizes["gradient"] == sum(p.data.size for p in state.parameters())


@pytest.mark.parametrize("fusion", ["none", "module"])
def test_the_heap_policy_pins_the_mmap_threshold_and_evaluation_stays_below_it(fusion, monkeypatch):
    # The C-heap policy: importing autodiff pins malloc's mmap threshold, so a
    # block above it stays an mmap after a larger one is freed (glibc would
    # otherwise raise its threshold and serve it from the brk heap); and an
    # evaluation pass tiles a CNN chunk so that no patch matrix reaches it.
    import ctypes

    from mclkit.ensemble import probability_chunks

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("glibc's mallinfo2 is needed to see mmapped bytes")

    class Mallinfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
            "uordblks", "fordblks", "keepcost")]

    libc.mallinfo2.restype = Mallinfo2
    freed = np.ones(2 * ad.MMAP_THRESHOLD // 8)  # mmapped, then freed
    del freed
    before = libc.mallinfo2().hblkhd
    block = np.ones(ad.MMAP_THRESHOLD // 8 + 1)
    assert libc.mallinfo2().hblkhd - before >= block.nbytes

    made = []
    im2col = ad._im2col

    def counted(*args):
        cols = im2col(*args)
        made.append(cols.nbytes)
        return cols

    monkeypatch.setattr(ad, "_im2col", counted)
    arch = ArchitectureSpec(kind="simple_cnn", input_shape=(1, 16, 16), n_classes=2)
    state = build_ensemble(method="amcl", arch=arch, members=2, overlap_k=1, t_tau=1, beta=0.75,
                           gamma=0.75, p_share=0.5, fusion_mode=fusion, seed=0)
    x = np.repeat(BARS.features, 512 // len(BARS.features) + 1, axis=0)[:512]
    list(probability_chunks(state, x))
    # conv2's patch matrix over the whole chunk would be 151 MB (M=2); its
    # tiles' come to that in all, and the three convs' to 235 MB.
    assert 0 < max(made) < ad.MMAP_THRESHOLD
    assert sum(made) > 16 * ad.MMAP_THRESHOLD
