"""Dataset generators, file ingestion, and checkpoint persistence."""
import struct

import numpy as np
import pytest

from mclkit.data import (
    DatasetSpec,
    build_dataset,
    generate_bar_images,
    generate_blobs,
    load_checkpoint,
    load_cifar_binary,
    load_idx,
    parse_dataset_spec,
    save_checkpoint,
)
from mclkit.ensemble import build_ensemble
from mclkit.errors import CompatibilityError, ConfigurationError, FormatError
from mclkit.models import ArchitectureSpec


# ---------------------------------------------------------------------------
# blobs
# ---------------------------------------------------------------------------

def test_blobs_linear_classifier_oracle():
    # independent oracle: a least-squares linear classifier must get < 1%
    # error when clusters sit 6 sigma apart
    ds = generate_blobs(DatasetSpec(kind="blobs", n_classes=2, per_class=400, dim=8, separation=6.0, seed=3))
    x = np.hstack([ds.features, np.ones((len(ds), 1))])
    targets = np.where(ds.labels == 0, -1.0, 1.0)
    coef, *_ = np.linalg.lstsq(x, targets, rcond=None)
    preds = (x @ coef > 0).astype(np.int64)
    assert (preds != ds.labels).mean() < 0.01


def test_blobs_deterministic_checksum():
    spec = DatasetSpec(kind="blobs", n_classes=3, per_class=50, dim=8, seed=11)
    assert generate_blobs(spec).checksum() == generate_blobs(spec).checksum()


def test_blobs_per_class_counts_exact():
    ds = generate_blobs(DatasetSpec(kind="blobs", n_classes=4, per_class=37, dim=8, seed=0))
    for c in range(4):
        assert int((ds.labels == c).sum()) == 37


def test_blobs_dim_check():
    with pytest.raises(ConfigurationError):
        generate_blobs(DatasetSpec(kind="blobs", n_classes=5, per_class=10, dim=3))


# ---------------------------------------------------------------------------
# bar images
# ---------------------------------------------------------------------------

def test_bar_images_shape_and_range():
    ds = generate_bar_images(DatasetSpec(kind="bars", n_classes=2, per_class=20, size=16, seed=1))
    assert ds.features.shape == (40, 1, 16, 16)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert set(ds.labels.tolist()) == {0, 1}


def test_bar_images_classes_visibly_differ():
    ds = generate_bar_images(DatasetSpec(kind="bars", n_classes=2, per_class=30, size=16, seed=2))
    mean0 = ds.features[ds.labels == 0].mean(axis=0)[0]
    mean1 = ds.features[ds.labels == 1].mean(axis=0)[0]
    # horizontal bars concentrate row-variance, vertical bars column-variance
    assert abs(mean0.var(axis=0).sum() - mean1.var(axis=0).sum()) > 0.01


def test_bar_images_deterministic():
    spec = DatasetSpec(kind="bars", n_classes=3, per_class=10, size=16, seed=9)
    assert generate_bar_images(spec).checksum() == generate_bar_images(spec).checksum()


# ---------------------------------------------------------------------------
# idx / cifar files
# ---------------------------------------------------------------------------

def _write_idx_pair(tmp_path, images, labels):
    img_path = tmp_path / "imgs.idx3"
    lab_path = tmp_path / "labs.idx1"
    n, h, w = images.shape
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=10, dtype=np.uint8)
    img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img_path, lab_path)
    assert ds.features.shape == (10, 1, 28, 28)
    assert np.allclose(ds.features[:, 0], images / 255.0)
    assert np.array_equal(ds.labels, labels)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">I", 0xDEADBEEF))
    with pytest.raises(FormatError, match="magic"):
        load_idx(path, path)


def test_idx_truncated_reports_offset(tmp_path):
    path = tmp_path / "short.idx3"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 10, 28, 28))
        f.write(b"\x00" * 100)
    lab = tmp_path / "labs.idx1"
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 10) + b"\x00" * 10)
    with pytest.raises(FormatError, match="byte"):
        load_idx(path, lab)


def test_class_filter_remaps_preserving_order(tmp_path):
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(30, 8, 8), dtype=np.uint8)
    labels = np.tile(np.array([0, 3, 5], dtype=np.uint8), 10)
    img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img_path, lab_path).filter_classes((0, 5))
    assert ds.n_classes == 2
    assert set(ds.labels.tolist()) == {0, 1}
    # original class 0 -> 0, original class 5 -> 1
    kept = labels[np.isin(labels, [0, 5])]
    assert np.array_equal(ds.labels, np.where(kept == 0, 0, 1))


def _write_cifar(tmp_path, n=20, seed=6):
    rng = np.random.default_rng(seed)
    records = np.zeros((n, 3073), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
    path = tmp_path / "batch.bin"
    path.write_bytes(records.tobytes())
    return path, labels, records


def test_cifar_batch_parses(tmp_path):
    path, labels, records = _write_cifar(tmp_path, n=100)
    ds = load_cifar_binary([path])
    assert len(ds) == 100
    assert ds.labels.min() >= 0 and ds.labels.max() <= 9
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.features[0], records[0, 1:].reshape(3, 32, 32) / 255.0)


def test_cifar_truncated_record(tmp_path):
    path = tmp_path / "trunc.bin"
    path.write_bytes(b"\x01" * (3073 + 100))
    with pytest.raises(FormatError, match="byte"):
        load_cifar_binary([path])


def test_cifar_subset_filter(tmp_path):
    path, labels, _ = _write_cifar(tmp_path, n=200, seed=8)
    ds = load_cifar_binary([path]).filter_classes((0, 5))
    assert ds.n_classes == 2
    assert len(ds) == int(np.isin(labels, [0, 5]).sum())


# ---------------------------------------------------------------------------
# spec strings
# ---------------------------------------------------------------------------

def test_parse_dataset_spec_blobs():
    spec = parse_dataset_spec("blobs:classes=4,per_class=100,dim=8,separation=5.5,seed=2")
    assert spec.kind == "blobs" and spec.n_classes == 4 and spec.separation == 5.5


def test_parse_dataset_spec_aliases():
    spec = parse_dataset_spec("synthetic_images:classes=2,per_class=64,size=16,seed=3")
    assert spec.kind == "bars"


def test_parse_dataset_spec_rejects_junk():
    with pytest.raises(ConfigurationError):
        parse_dataset_spec("blobs:bogus=1")
    with pytest.raises(ConfigurationError):
        parse_dataset_spec("hologram:classes=2")


def test_build_dataset_applies_subset():
    ds = build_dataset(parse_dataset_spec("blobs:classes=4,per_class=10,dim=8,seed=1,subset=1+3"))
    assert ds.n_classes == 2
    assert len(ds) == 20


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _small_state(method="amcl", fusion_mode="none"):
    arch = ArchitectureSpec(
        kind="mlp", input_shape=(6,), n_classes=3, hidden_sizes=(8, 8), aux_class=method == "amcl"
    )
    return build_ensemble(
        method=method,
        arch=arch,
        members=2,
        overlap_k=1,
        t_tau=4,
        beta=0.5,
        gamma=0.25,
        p_share=0.5,
        fusion_mode=fusion_mode,
        seed=13,
    )


def test_checkpoint_round_trip_bit_exact(tmp_path):
    state = _small_state()
    state.counter.counts[:] = np.array([[4, 1], [0, 7], [3, 3]])
    state.counter.epochs_accumulated = 4
    from mclkit.losses import fix_specialization

    state.specialization = fix_specialization(state.counter, 1)
    state.counter.frozen = True

    path = tmp_path / "ckpt.amc1"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)

    for m in range(2):
        for name, tensor in state.members[m].params.items():
            assert np.array_equal(tensor.data, loaded.members[m].params[name].data)
    assert np.array_equal(loaded.specialization.w, state.specialization.w)
    assert loaded.specialization.frozen
    assert np.array_equal(loaded.counter.counts, state.counter.counts)
    assert loaded.counter.frozen
    assert loaded.method == "amcl" and loaded.overlap_k == 1 and loaded.t_tau == 4


def test_checkpoint_fusion_params_survive(tmp_path):
    state = _small_state(fusion_mode="module")
    path = tmp_path / "fused.amc1"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    for name, tensor in state.fusion.params.items():
        assert np.array_equal(tensor.data, loaded.fusion.params[name].data)


def test_checkpoint_truncated_file(tmp_path):
    state = _small_state()
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    state = _small_state()
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CompatibilityError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.amc1"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(_small_state(), path)
    size = path.stat().st_size
    with open(path, "ab") as f:
        f.write(b"junk")
    with pytest.raises(FormatError, match=rf"ckpt\.amc1: trailing bytes at byte {size}"):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path):
    # the temp file never lingers and the final file parses
    state = _small_state()
    path = tmp_path / "atomic.amc1"
    save_checkpoint(state, path)
    assert not (tmp_path / "atomic.amc1.tmp").exists()
    load_checkpoint(path)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    import json

    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + header_len :])


@pytest.mark.parametrize(
    "edit,key",
    [
        (lambda h: h["arch"].pop("kind"), "arch.kind"),
        (lambda h: h.pop("members"), "members"),
        (lambda h: h.update(seed="13"), "seed"),
        (lambda h: h.update(arch=[1, 2]), "arch"),
        (lambda h: h["arch"].update(input_shape=[6.5]), "arch.input_shape"),
    ],
)
def test_checkpoint_bad_header_field_is_format_error(tmp_path, edit, key):
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(_small_state(), path)
    _rewrite_header(path, edit)
    with pytest.raises(FormatError, match=rf"ckpt\.amc1: header .*'?{key}'?"):
        load_checkpoint(path)


def test_checkpoint_with_nonfinite_payload_is_format_error(tmp_path):
    state = _small_state()
    state.members[1].params["dense2.w"].data[0, 3] = np.nan
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(state, path)
    with pytest.raises(FormatError, match=r"ckpt\.amc1: tensor member1/dense2\.w holds non-finite values"):
        load_checkpoint(path)


def test_checkpoint_with_no_members_is_format_error(tmp_path):
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(_small_state(), path)
    _rewrite_header(path, lambda h: h.update(members=0))
    with pytest.raises(FormatError, match=r"ckpt\.amc1: header key 'members' is not positive"):
        load_checkpoint(path)


def test_checkpoint_tensor_of_the_wrong_shape_is_format_error(tmp_path):
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(_small_state(), path)
    _rewrite_header(path, lambda h: h["arch"].update(hidden_sizes=[8, 9]))
    with pytest.raises(
        FormatError, match=r"ckpt\.amc1: tensor member0/dense2\.w has shape \(8, 8\), expected \(8, 9\)"
    ):
        load_checkpoint(path)


# The file ends with the specialization block (flag, K, shape, int8 rows) and
# the counter block (flag, epochs, frozen, shape, int64 counts). With 3
# classes and 2 members the counts are the last 48 bytes, the counter shape
# the 8 before them, and the matrix lies at -68 after its shape at -76 and K
# at -80.
@pytest.mark.parametrize(
    "offset,fmt,values,message",
    [
        (-68, "<b", (5,), r"specialization matrix holds entries other than 0 and 1"),
        (-67, "<b", (1,), r"specialization rows do not all sum to K=1"),
        (-80, "<I", (2,), r"specialization K=2 differs from overlap_k=1"),
        (-76, "<II", (2, 3), r"specialization matrix has shape \(2, 3\), expected \(3, 2\)"),
        (-48, "<q", (-4,), r"assignment counter holds negative counts"),
        (-56, "<II", (6, 1), r"assignment counter has shape \(6, 1\), expected \(3, 2\)"),
    ],
    ids=["matrix_entry", "matrix_row_sum", "matrix_k", "matrix_shape", "negative_count", "counter_shape"],
)
def test_checkpoint_with_bad_specialization_state_is_format_error(tmp_path, offset, fmt, values, message):
    from mclkit.losses import fix_specialization

    state = _small_state()
    state.counter.counts[:] = np.array([[4, 1], [0, 7], [3, 3]])
    state.specialization = fix_specialization(state.counter, 1)
    path = tmp_path / "ckpt.amc1"
    save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    assert raw[-68:-62] == bytes([1, 0, 0, 1, 1, 0]) and raw[-48] == 4
    raw[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, *values)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=rf"ckpt\.amc1: {message}"):
        load_checkpoint(path)


@pytest.mark.parametrize("fusion_mode", ["none", "module"])
def test_checkpoint_save_of_a_loaded_checkpoint_reproduces_its_bytes(tmp_path, fusion_mode):
    from mclkit.losses import fix_specialization

    state = _small_state(fusion_mode=fusion_mode)
    state.counter.counts[:] = np.array([[4, 1], [0, 7], [3, 3]])
    state.specialization = fix_specialization(state.counter, 1)
    first, second = tmp_path / "first.amc1", tmp_path / "second.amc1"
    save_checkpoint(state, first)
    save_checkpoint(load_checkpoint(first), second)
    assert second.read_bytes() == first.read_bytes()
