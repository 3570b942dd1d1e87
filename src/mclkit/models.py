"""Ensemble member architectures with an auxiliary output slot and a tap point.

Two families are provided: a small three-conv CNN for image data and an MLP
for flat synthetic data. Both expose the features computed just before the
first pooling layer (first hidden layer for MLPs) so a fusion stage can
combine them across members.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError

# He-style uniform bound; the classifier head is additionally scaled down so
# fresh models start out close to uniform predictions.
HEAD_INIT_SCALE = 0.1


@dataclass(frozen=True)
class ArchitectureSpec:
    """Shape of one ensemble member.

    ``aux_class`` appends one extra output slot (index n_classes) meaning
    "outside my specialization"; it is stripped at inference.
    """

    kind: str  # "simple_cnn" | "mlp"
    input_shape: tuple
    n_classes: int
    conv_filters: tuple = (32, 64, 128)
    hidden_sizes: tuple = (64, 64)
    aux_class: bool = True

    def __post_init__(self):
        if self.kind not in ("simple_cnn", "mlp"):
            raise ConfigurationError(f"unsupported architecture kind {self.kind!r}")
        if self.n_classes < 2:
            raise ConfigurationError("need at least two classes")
        if self.kind == "simple_cnn":
            if len(self.input_shape) != 3:
                raise ConfigurationError("simple_cnn expects a (C, H, W) input shape")
            _, h, w = self.input_shape
            if h % 8 or w % 8:
                raise ConfigurationError(
                    "simple_cnn pools three times; spatial extents must be divisible by 8"
                )
            if len(self.conv_filters) != 3:
                raise ConfigurationError("simple_cnn uses exactly three conv layers")
        else:
            if not self.hidden_sizes:
                raise ConfigurationError("mlp needs at least one hidden layer")

    @property
    def output_dim(self) -> int:
        return self.n_classes + (1 if self.aux_class else 0)

    @property
    def flat_input_dim(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def tap_shape(self) -> tuple:
        """Shape (without the batch axis) of the exported low-level feature."""
        if self.kind == "simple_cnn":
            _, h, w = self.input_shape
            return (self.conv_filters[0], h, w)
        return (self.hidden_sizes[0],)


def _he_uniform(rng: np.random.Generator, shape, fan_in: int, scale=1.0) -> np.ndarray:
    bound = scale * np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class MemberModel:
    """One ensemble member: named parameter tensors plus the forward recipe."""

    spec: ArchitectureSpec
    member_index: int
    params: dict = field(default_factory=dict)
    tap_point: str = ""

    @property
    def output_dim(self) -> int:
        return self.spec.output_dim

    def parameters(self) -> list:
        return list(self.params.values())

    # -- forward ---------------------------------------------------------
    def _check_batch(self, x: ad.Tensor) -> None:
        if self.spec.kind == "simple_cnn":
            if x.ndim != 4 or tuple(x.shape[1:]) != tuple(self.spec.input_shape):
                raise ConfigurationError(
                    f"batch shape {tuple(x.shape)} does not match input {self.spec.input_shape}"
                )
        else:
            flat = int(np.prod(x.shape[1:]))
            if flat != self.spec.flat_input_dim:
                raise ConfigurationError(
                    f"batch of {flat} features does not match input {self.spec.input_shape}"
                )

    def forward_to_tap(self, x) -> ad.Tensor:
        x = ad.as_tensor(x)
        self._check_batch(x)
        p = self.params
        if self.spec.kind == "simple_cnn":
            return ad.relu(ad.conv2d(x, p["conv1.w"], p["conv1.b"]))
        return _single(mlp_layers([self], _flat(x), 1, 1))

    def forward_from_tap(self, tap) -> ad.Tensor:
        tap = ad.as_tensor(tap)
        expected = self.spec.tap_shape
        if tuple(tap.shape[1:]) != tuple(expected):
            raise ConfigurationError(
                f"tap feature shape {tuple(tap.shape[1:])} does not match {expected}"
            )
        p = self.params
        if self.spec.kind == "simple_cnn":
            h = ad.maxpool2x2(tap)
            h = ad.maxpool2x2(ad.relu(ad.conv2d(h, p["conv2.w"], p["conv2.b"])))
            h = ad.maxpool2x2(ad.relu(ad.conv2d(h, p["conv3.w"], p["conv3.b"])))
            h = ad.reshape(h, (h.shape[0], -1))
            return ad.dense(h, p["fc.w"], p["fc.b"])
        return _single(mlp_layers([self], tap, 2))

    def forward(self, x, injected_features=None):
        """Run the member; returns (logits, own tap features).

        When ``injected_features`` is given it replaces the member's own tap
        output for the rest of the forward pass.
        """
        tap = self.forward_to_tap(x)
        source = tap if injected_features is None else ad.as_tensor(injected_features)
        return self.forward_from_tap(source), tap


def mlp_layers(members, h, first: int, last: int | None = None) -> ad.Tensor:
    """Dense layers ``first``..``last`` of MLP members, one member-axis matmul each.

    Layer i is ``dense{i}`` with a relu; the layer after the last hidden one
    (the default ``last``) is the head, without. ``h`` is [B, in], shared by
    every member, or member-major [M, B, in]; the result is [M, B, out].
    Each call stacks the members' own parameter tensors, so gradients land
    in them.
    """
    hidden = len(members[0].spec.hidden_sizes)
    last = hidden + 1 if last is None else last
    for i in range(first, last + 1):
        name = f"dense{i}" if i <= hidden else "head"
        w = ad.stack([m.params[f"{name}.w"] for m in members])
        b = ad.stack([m.params[f"{name}.b"] for m in members])
        h = ad.add(ad.matmul(h, w), ad.reshape(b, (len(members), 1, -1)))
        if i <= hidden:
            h = ad.relu(h)
    return h


def mlp_forward(members, x) -> ad.Tensor:
    """Logits [M, B, C] of MLP members on one shared batch."""
    x = ad.as_tensor(x)
    members[0]._check_batch(x)
    return mlp_layers(members, _flat(x), 1)


def _flat(x: ad.Tensor) -> ad.Tensor:
    return x if x.ndim == 2 else ad.reshape(x, (x.shape[0], -1))


def _single(h: ad.Tensor) -> ad.Tensor:
    """Drop the member axis of a one-member [1, B, n] result."""
    return ad.reshape(h, h.shape[1:])


def build_member(spec: ArchitectureSpec, member_index: int, seed: int) -> MemberModel:
    """Construct one member with parameters seeded from (seed, member_index)."""
    rng = np.random.default_rng([seed, member_index])
    params: dict[str, ad.Tensor] = {}
    if spec.kind == "simple_cnn":
        cin = spec.input_shape[0]
        f1, f2, f3 = spec.conv_filters
        for name, (fout, fin) in (("conv1", (f1, cin)), ("conv2", (f2, f1)), ("conv3", (f3, f2))):
            fan_in = fin * 9
            params[f"{name}.w"] = ad.Tensor(_he_uniform(rng, (fout, fin, 3, 3), fan_in), op="param")
            params[f"{name}.b"] = ad.Tensor(np.zeros(fout), op="param")
        _, h, w = spec.input_shape
        flat = f3 * (h // 8) * (w // 8)
        params["fc.w"] = ad.Tensor(
            _he_uniform(rng, (flat, spec.output_dim), flat, scale=HEAD_INIT_SCALE), op="param"
        )
        params["fc.b"] = ad.Tensor(np.zeros(spec.output_dim), op="param")
        tap_point = "conv1"
    else:
        widths = [spec.flat_input_dim, *spec.hidden_sizes]
        for i in range(1, len(widths)):
            params[f"dense{i}.w"] = ad.Tensor(
                _he_uniform(rng, (widths[i - 1], widths[i]), widths[i - 1]), op="param"
            )
            params[f"dense{i}.b"] = ad.Tensor(np.zeros(widths[i]), op="param")
        params["head.w"] = ad.Tensor(
            _he_uniform(rng, (widths[-1], spec.output_dim), widths[-1], scale=HEAD_INIT_SCALE),
            op="param",
        )
        params["head.b"] = ad.Tensor(np.zeros(spec.output_dim), op="param")
        tap_point = "dense1"
    return MemberModel(spec=spec, member_index=member_index, params=params, tap_point=tap_point)


def forward_member(model: MemberModel, batch, injected_features=None):
    """Module-level alias of MemberModel.forward."""
    return model.forward(batch, injected_features=injected_features)


def predict_proba(model: MemberModel, batch) -> np.ndarray:
    """Softmax class probabilities, one row per example; rows sum to 1.

    The forward runs under ``no_graph``, so it keeps no activations alive.
    """
    with ad.no_graph():
        logits, _ = model.forward(batch)
        return ad.softmax(logits, axis=-1).data
