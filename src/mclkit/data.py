"""Synthetic dataset generators, small-image ingestion, and checkpoints.

The synthetic kinds stand in for small image benchmarks at desk scale:
Gaussian blobs for MLP experiments and oriented-bar images that give conv
models spatial structure to specialize on. IDX and CIFAR-style binary files
are supported for real data.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import CompatibilityError, ConfigurationError, FormatError

CHECKPOINT_MAGIC = b"AMC1"
CHECKPOINT_VERSION = 1

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


@dataclass
class LabeledDataset:
    features: np.ndarray  # [N, ...] float64
    labels: np.ndarray  # [N] int64
    n_classes: int

    def __len__(self) -> int:
        return self.features.shape[0]

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()

    def filter_classes(self, classes) -> "LabeledDataset":
        """Keep only ``classes``; labels are remapped to 0..len-1 preserving
        their numeric order."""
        keep = sorted(set(int(c) for c in classes))
        if any(c < 0 or c >= self.n_classes for c in keep):
            raise ConfigurationError(f"class filter {keep} outside 0..{self.n_classes - 1}")
        remap = {c: i for i, c in enumerate(keep)}
        mask = np.isin(self.labels, keep)
        labels = np.array([remap[int(c)] for c in self.labels[mask]], dtype=np.int64)
        return LabeledDataset(
            features=self.features[mask].copy(), labels=labels, n_classes=len(keep)
        )


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of a dataset; ``build_dataset`` realizes it."""

    kind: str  # blobs | bars | idx | cifar
    n_classes: int = 2
    per_class: int = 200
    dim: int = 16
    size: int = 16
    separation: float = 6.0
    noise: float = 0.05
    seed: int = 0
    images_path: str = ""
    labels_path: str = ""
    files: tuple = ()
    classes: tuple = ()  # optional class subset filter

    def __post_init__(self):
        if self.kind not in ("blobs", "bars", "idx", "cifar"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        if self.kind in ("blobs", "bars"):
            if self.n_classes < 2:
                raise ConfigurationError("synthetic datasets need at least 2 classes")
            if self.per_class < 1:
                raise ConfigurationError("per_class must be at least 1")


_KIND_ALIASES = {
    "gaussian_blobs": "blobs",
    "synthetic_images": "bars",
    "idx_files": "idx",
    "cifar_binary": "cifar",
}

_INT_KEYS = {"classes_n", "n_classes", "per_class", "dim", "size", "seed"}
_FLOAT_KEYS = {"separation", "noise"}


def parse_dataset_spec(text: str) -> DatasetSpec:
    """Parse 'kind:key=value,...' strings used by the CLI.

    Examples: 'blobs:classes=4,per_class=200,dim=16,separation=6',
    'bars:classes=2,per_class=128,size=16,seed=3',
    'idx:images=train.idx3,labels=train.idx1,subset=0+5',
    'cifar:files=data_1.bin+data_2.bin,subset=0+5'.
    """
    kind, _, rest = text.partition(":")
    kind = _KIND_ALIASES.get(kind.strip(), kind.strip())
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            if not item.strip():
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigurationError(f"dataset spec entry {item!r} is not key=value")
            key, value = key.strip(), value.strip()
            if key == "classes":
                key = "n_classes"
            if key == "subset":
                kwargs["classes"] = tuple(int(c) for c in value.split("+"))
            elif key == "files":
                kwargs["files"] = tuple(value.split("+"))
            elif key in ("images", "labels"):
                kwargs[f"{key}_path"] = value
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            else:
                raise ConfigurationError(f"unknown dataset spec key {key!r}")
    try:
        return DatasetSpec(kind=kind, **kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad dataset spec {text!r}: {exc}") from exc


def format_dataset_spec(spec: DatasetSpec) -> str:
    """Inverse of parse_dataset_spec for config round-trips."""
    parts = []
    if spec.kind in ("blobs", "bars"):
        parts.append(f"classes={spec.n_classes}")
        parts.append(f"per_class={spec.per_class}")
        if spec.kind == "blobs":
            parts.append(f"dim={spec.dim}")
            parts.append(f"separation={spec.separation}")
        else:
            parts.append(f"size={spec.size}")
        parts.append(f"noise={spec.noise}")
        parts.append(f"seed={spec.seed}")
    elif spec.kind == "idx":
        parts.append(f"images={spec.images_path}")
        parts.append(f"labels={spec.labels_path}")
    else:
        parts.append("files=" + "+".join(spec.files))
    if spec.classes:
        parts.append("subset=" + "+".join(str(c) for c in spec.classes))
    return spec.kind + ":" + ",".join(parts)


def build_dataset(spec: DatasetSpec) -> LabeledDataset:
    if spec.kind == "blobs":
        ds = generate_blobs(spec)
    elif spec.kind == "bars":
        ds = generate_bar_images(spec)
    elif spec.kind == "idx":
        ds = load_idx(spec.images_path, spec.labels_path)
    else:
        ds = load_cifar_binary(spec.files)
    if spec.classes:
        ds = ds.filter_classes(spec.classes)
    return ds


def with_seed(spec: DatasetSpec, seed: int) -> DatasetSpec:
    return replace(spec, seed=seed)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def generate_blobs(spec: DatasetSpec) -> LabeledDataset:
    """Unit-variance Gaussian clusters, one per class, pairwise ``separation``
    apart along orthogonal axes. Deterministic per seed; per-class counts are
    honored exactly."""
    if spec.n_classes > spec.dim:
        raise ConfigurationError("blobs need dim >= number of classes")
    rng = np.random.default_rng(spec.seed)
    centers = np.zeros((spec.n_classes, spec.dim))
    for c in range(spec.n_classes):
        centers[c, c] = spec.separation / np.sqrt(2.0)
    feats = []
    labels = []
    for c in range(spec.n_classes):
        feats.append(centers[c] + rng.standard_normal((spec.per_class, spec.dim)))
        labels.append(np.full(spec.per_class, c, dtype=np.int64))
    return LabeledDataset(
        features=np.concatenate(feats, axis=0),
        labels=np.concatenate(labels),
        n_classes=spec.n_classes,
    )


def generate_bar_images(spec: DatasetSpec) -> LabeledDataset:
    """Oriented-bar images: class c draws a bar at angle pi*c/n_classes
    through a jittered center, over a low-noise background."""
    rng = np.random.default_rng(spec.seed)
    s = spec.size
    ys, xs = np.mgrid[0:s, 0:s].astype(np.float64)
    half_len = 0.42 * s
    thickness = max(1.0, s / 14.0)
    feats = np.zeros((spec.n_classes * spec.per_class, 1, s, s))
    labels = np.zeros(spec.n_classes * spec.per_class, dtype=np.int64)
    i = 0
    for c in range(spec.n_classes):
        theta = np.pi * c / spec.n_classes
        dx, dy = np.cos(theta), np.sin(theta)
        for _ in range(spec.per_class):
            cy, cx = (s - 1) / 2.0 + rng.uniform(-2.0, 2.0, size=2)
            rel_y, rel_x = ys - cy, xs - cx
            along = rel_x * dx + rel_y * dy
            across = -rel_x * dy + rel_y * dx
            bar = (np.abs(across) <= thickness) & (np.abs(along) <= half_len)
            img = np.abs(rng.normal(0.0, spec.noise, size=(s, s)))
            img[bar] = 0.85 + rng.uniform(0.0, 0.15, size=int(bar.sum()))
            feats[i, 0] = np.clip(img, 0.0, 1.0)
            labels[i] = c
            i += 1
    return LabeledDataset(features=feats, labels=labels, n_classes=spec.n_classes)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def _read_idx_array(path: str, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated before magic at byte {len(raw)}")
    magic = int.from_bytes(raw[0:4], "big")
    if magic != expected_magic:
        raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    dims = [int.from_bytes(raw[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    expected = int(np.prod(dims))
    if len(raw) - header < expected:
        raise FormatError(
            f"{path}: expected {expected} data bytes from byte {header}, found {len(raw) - header}"
        )
    return np.frombuffer(raw, dtype=np.uint8, count=expected, offset=header).reshape(dims)


def load_idx(images_path: str, labels_path: str, classes=None) -> LabeledDataset:
    """Load big-endian IDX image/label files; pixels scaled to [0, 1]."""
    images = _read_idx_array(images_path, IDX_IMAGE_MAGIC)
    labels = _read_idx_array(labels_path, IDX_LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}"
        )
    feats = images.astype(np.float64)[:, None, :, :] / 255.0
    n_classes = int(labels.max()) + 1 if labels.size else 0
    ds = LabeledDataset(features=feats, labels=labels.astype(np.int64), n_classes=n_classes)
    if classes:
        ds = ds.filter_classes(classes)
    return ds


def load_cifar_binary(paths, classes=None) -> LabeledDataset:
    """Load CIFAR-10 style binary batches: 3073-byte records, label byte first."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    if not paths:
        raise ConfigurationError("no CIFAR batch files given")
    feats = []
    labels = []
    for path in paths:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES:
            raise FormatError(
                f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES};"
                f" trailing fragment starts at byte {len(raw) - len(raw) % CIFAR_RECORD_BYTES}"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        if batch_labels.max(initial=0) > 9:
            bad = int(np.argmax(batch_labels > 9))
            raise FormatError(f"{path}: label out of range at record {bad}")
        labels.append(batch_labels.astype(np.int64))
        feats.append(records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0)
    ds = LabeledDataset(
        features=np.concatenate(feats, axis=0),
        labels=np.concatenate(labels),
        n_classes=10,
    )
    if classes:
        ds = ds.filter_classes(classes)
    return ds


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    parts = [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, raw: bytes, path: str):
        self.raw = raw
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.raw):
            raise FormatError(f"{self.path}: truncated at byte {self.off}")
        out = self.raw[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON type of every checkpoint header field; a nested dict is a nested object.
_FIELD_TYPES = {
    "int": _is_int,
    "number": lambda v: _is_int(v) or isinstance(v, float),
    "string": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int list": lambda v: isinstance(v, list) and all(_is_int(i) for i in v),
}
_HEADER_SCHEMA = {
    "method": "string", "members": "int", "overlap_k": "int", "n_classes": "int",
    "t_tau": "int", "frozen": "bool", "beta": "number", "gamma": "number",
    "p_share": "number", "fusion_mode": "string", "seed": "int",
    "arch": {
        "kind": "string", "input_shape": "int list", "n_classes": "int",
        "conv_filters": "int list", "hidden_sizes": "int list", "aux_class": "bool",
    },
}


def _check_header(obj, schema: dict, path: str, prefix: str = "") -> None:
    """Raise FormatError naming the first missing or wrongly typed key."""
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: header {prefix.rstrip('.') or 'root'} is not a JSON object")
    for key, kind in schema.items():
        name = prefix + key
        if key not in obj:
            raise FormatError(f"{path}: header key {name!r} is missing")
        if isinstance(kind, dict):
            _check_header(obj[key], kind, path, name + ".")
        elif not _FIELD_TYPES[kind](obj[key]):
            raise FormatError(f"{path}: header key {name!r} is not a {kind}")


def save_checkpoint(state, path: str) -> None:
    """Write the ensemble to ``path`` atomically (temp file + rename)."""
    header = {
        "method": state.method,
        "members": len(state.members),
        "overlap_k": state.overlap_k,
        "n_classes": state.n_classes,
        "t_tau": state.t_tau,
        "frozen": bool(state.specialization is not None and state.specialization.frozen),
        "beta": state.beta,
        "gamma": state.gamma,
        "p_share": state.p_share,
        "fusion_mode": state.fusion_mode,
        "seed": state.seed,
        "arch": {
            "kind": state.arch.kind,
            "input_shape": list(state.arch.input_shape),
            "n_classes": state.arch.n_classes,
            "conv_filters": list(state.arch.conv_filters),
            "hidden_sizes": list(state.arch.hidden_sizes),
            "aux_class": state.arch.aux_class,
        },
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    tensors: list[tuple[str, np.ndarray]] = []
    for m, member in enumerate(state.members):
        for name, tensor in member.params.items():
            tensors.append((f"member{m}/{name}", tensor.data))
    if state.fusion is not None:
        for name, tensor in state.fusion.params.items():
            tensors.append((f"fusion/{name}", tensor.data))

    blob = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(header_bytes)),
        header_bytes,
        struct.pack("<I", len(tensors)),
    ]
    blob.extend(_pack_tensor(name, arr) for name, arr in tensors)

    if state.specialization is not None:
        w = state.specialization
        blob.append(struct.pack("<BI", 1, w.k))
        blob.append(struct.pack("<II", *w.w.shape))
        blob.append(np.ascontiguousarray(w.w, dtype=np.int8).tobytes())
    else:
        blob.append(struct.pack("<B", 0))

    if state.counter is not None:
        ctr = state.counter
        blob.append(struct.pack("<BIB", 1, ctr.epochs_accumulated, int(ctr.frozen)))
        blob.append(struct.pack("<II", *ctr.counts.shape))
        blob.append(np.ascontiguousarray(ctr.counts, dtype="<i8").tobytes())
    else:
        blob.append(struct.pack("<B", 0))

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(b"".join(blob))
    os.replace(tmp, path)


def load_checkpoint(path: str):
    """Read a checkpoint back into an EnsembleState; bit-exact round trip."""
    from . import autodiff as ad
    from .ensemble import EnsembleState
    from .fusion import FusionModule
    from .losses import AssignmentCounter, SpecializationMatrix
    from .models import ArchitectureSpec, build_member

    with open(path, "rb") as f:
        reader = _Reader(f.read(), str(path))
    magic = reader.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    (version,) = reader.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CompatibilityError(
            f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    (header_len,) = reader.unpack("<I")
    try:
        header = json.loads(reader.take(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt header: {exc}") from exc
    _check_header(header, _HEADER_SCHEMA, path)

    arch = ArchitectureSpec(
        kind=header["arch"]["kind"],
        input_shape=tuple(header["arch"]["input_shape"]),
        n_classes=header["arch"]["n_classes"],
        conv_filters=tuple(header["arch"]["conv_filters"]),
        hidden_sizes=tuple(header["arch"]["hidden_sizes"]),
        aux_class=header["arch"]["aux_class"],
    )
    members = [build_member(arch, m, header["seed"]) for m in range(header["members"])]

    (n_tensors,) = reader.unpack("<I")
    loaded: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = reader.unpack("<H")
        name = reader.take(name_len).decode("utf-8")
        (ndim,) = reader.unpack("<B")
        shape = reader.unpack(f"<{ndim}I")
        count = int(np.prod(shape)) if ndim else 1
        payload = reader.take(8 * count)
        loaded[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()

    fusion = None
    if header["fusion_mode"] == "module":
        fusion = FusionModule(
            members=header["members"], tap_shape=arch.tap_shape, seed=header["seed"]
        )
    for m, member in enumerate(members):
        for name in member.params:
            key = f"member{m}/{name}"
            if key not in loaded:
                raise FormatError(f"{path}: missing tensor {key}")
            member.params[name] = ad.Tensor(loaded[key], op="param")
    if fusion is not None:
        for name in fusion.params:
            key = f"fusion/{name}"
            if key not in loaded:
                raise FormatError(f"{path}: missing tensor {key}")
            fusion.params[name] = ad.Tensor(loaded[key], op="param")

    (has_spec,) = reader.unpack("<B")
    specialization = None
    if has_spec:
        (k,) = reader.unpack("<I")
        rows, cols = reader.unpack("<II")
        w = (
            np.frombuffer(reader.take(rows * cols), dtype=np.int8)
            .reshape(rows, cols)
            .astype(np.int64)
        )
        specialization = SpecializationMatrix(w=w, k=k, frozen=header["frozen"])

    (has_counter,) = reader.unpack("<B")
    counter = None
    if has_counter:
        epochs, frozen_flag = reader.unpack("<IB")
        rows, cols = reader.unpack("<II")
        counts = (
            np.frombuffer(reader.take(rows * cols * 8), dtype="<i8").reshape(rows, cols).copy()
        )
        counter = AssignmentCounter(
            counts=counts, epochs_accumulated=epochs, frozen=bool(frozen_flag)
        )
    if reader.off != len(reader.raw):
        raise FormatError(f"{path}: trailing bytes at byte {reader.off}")

    return EnsembleState(
        method=header["method"],
        members=members,
        fusion=fusion,
        fusion_mode=header["fusion_mode"],
        arch=arch,
        n_classes=header["n_classes"],
        overlap_k=header["overlap_k"],
        t_tau=header["t_tau"],
        beta=header["beta"],
        gamma=header["gamma"],
        p_share=header["p_share"],
        seed=header["seed"],
        counter=counter,
        specialization=specialization,
    )
