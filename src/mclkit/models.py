"""Ensemble member architectures with an auxiliary output slot and a tap point.

Two families are provided: a small three-conv CNN for image data and an MLP
for flat synthetic data. Both expose the features computed just before the
first pooling layer (first hidden layer for MLPs) so a fusion stage can
combine them across members.

The ensemble owns each layer's weight and bias as one ``param`` tensor with
a leading member axis [M, …] (the BatchEnsemble layout, Wen et al. 2020).
Both trunks run every member as one tensor: ``trunk_to_tap``, then
``features_from_tap`` and ``head``, take a ``param(name)`` lookup and run one
member-axis node per layer over the ensemble's layers. The head is apart so
that evaluation can run the features in tiles of batch rows and the head
once. A ``MemberModel`` is the one-member view of the layers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        return math.prod(self.input_shape)

    @property
    def tap_shape(self) -> tuple:
        """Shape (without the batch axis) of the exported low-level feature."""
        if self.kind == "simple_cnn":
            _, h, w = self.input_shape
            return (self.conv_filters[0], h, w)
        return (self.hidden_sizes[0],)


def he_uniform(rng: np.random.Generator, shape, fan_in: int, scale=1.0) -> np.ndarray:
    bound = scale * np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def layer_shapes(spec: ArchitectureSpec) -> dict:
    """One member's parameter names, in checkpoint order, and their shapes."""
    if spec.kind == "simple_cnn":
        cin, h, w = spec.input_shape
        f = (cin, *spec.conv_filters)
        weights = [(f"conv{i}", (f[i], f[i - 1], 3, 3)) for i in (1, 2, 3)]
        weights.append(("fc", (f[3] * (h // 8) * (w // 8), spec.output_dim)))
    else:
        widths = (spec.flat_input_dim, *spec.hidden_sizes, spec.output_dim)
        names = [f"dense{i}" for i in range(1, len(widths) - 1)] + ["head"]
        weights = list(zip(names, zip(widths, widths[1:])))
    shapes = {}
    for name, shape in weights:  # a bias has one entry per conv filter or dense output
        shapes[f"{name}.w"], shapes[f"{name}.b"] = shape, (shape[0 if len(shape) == 4 else 1],)
    return shapes


def init_member(spec: ArchitectureSpec, member_index: int, seed: int) -> dict:
    """One member's initial parameter arrays, seeded from (seed, member_index)."""
    rng = np.random.default_rng([seed, member_index])
    arrays = {}
    for name, shape in layer_shapes(spec).items():
        if name.endswith(".b"):
            arrays[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            scale = HEAD_INIT_SCALE if name.startswith(("fc.", "head.")) else 1.0
            arrays[name] = he_uniform(rng, shape, fan_in, scale)
    return arrays


def stack_layers(spec: ArchitectureSpec, members: list) -> dict:
    """The ensemble-owned [M, …] ``param`` tensors of the members' arrays;
    MLP biases are [M, 1, out], so they add to [M, B, out] as stored."""
    layers = {}
    for name in layer_shapes(spec):
        data = np.stack([arrays[name] for arrays in members])
        if spec.kind == "mlp" and name.endswith(".b"):
            data = data.reshape(len(members), 1, -1)
        layers[name] = ad.Tensor(data, op="param")
    return layers


def _check_batch(spec: ArchitectureSpec, x: ad.Tensor) -> None:
    if spec.kind == "simple_cnn":
        if x.ndim != 4 or tuple(x.shape[1:]) != tuple(spec.input_shape):
            raise ConfigurationError(
                f"batch shape {tuple(x.shape)} does not match input {spec.input_shape}"
            )
    else:
        flat = math.prod(x.shape[1:])
        if flat != spec.flat_input_dim:
            raise ConfigurationError(
                f"batch of {flat} features does not match input {spec.input_shape}"
            )


def trunk_to_tap(spec: ArchitectureSpec, param, x) -> ad.Tensor:
    """Tap features of the input batch (conv1, or dense1): ``param(name)``'s
    [M, …] layers give member-major [M, B, …] taps, one member's [B, …]."""
    x = ad.as_tensor(x)
    _check_batch(spec, x)
    if spec.kind == "simple_cnn":
        return _conv_relu(x, param, 1)
    return mlp_layers(spec, param, x, 1, 1)


def features_from_tap(spec: ArchitectureSpec, param, h) -> ad.Tensor:
    """The head's input from the taps, a CNN's max-pooled (conv2, pool, conv3
    and pool, or an MLP's hidden layers after the first), ``param`` as in
    ``trunk_to_tap``. Example by example: rows can run in separate calls."""
    if spec.kind != "simple_cnn":
        return mlp_layers(spec, param, h, 2, len(spec.hidden_sizes))
    for i in (2, 3):
        h = ad.maxpool2x2(_conv_relu(h, param, i))
    return h


def head(spec: ArchitectureSpec, param, h) -> ad.Tensor:
    """Logits from ``features_from_tap``'s output: ``fc`` on a CNN's
    flattened features, or an MLP's ``head`` layer."""
    if spec.kind != "simple_cnn":
        return mlp_layers(spec, param, h, len(spec.hidden_sizes) + 1)
    h = ad.reshape(h, (*h.shape[:-3], -1))
    return ad.dense(h, param("fc.w"), param("fc.b"))


def tile_examples(spec: ArchitectureSpec, param, limit: int) -> int:
    """The most examples (at least 1) whose conv patch matrices over the [M, …]
    layers ``param(name)`` gives stay below ``limit`` bytes: one for conv1's
    shared input, one per member for conv2 and conv3; 0 for an MLP."""
    if spec.kind != "simple_cnn":
        return 0
    _, h, w = spec.input_shape
    return max(1, (limit - 1) // max(  # k: conv{i+1}'s [M, F, C, kh, kw] kernel, after i pools
        (k.shape[0] if i else 1) * (h >> i) * (w >> i) * math.prod(k.shape[-3:]) * k.itemsize
        for i, k in enumerate(param(f"conv{j}.w").data for j in (1, 2, 3))))


def _conv_relu(h, param, i: int) -> ad.Tensor:
    w, b = param(f"conv{i}.w"), param(f"conv{i}.b")
    if w.ndim == 5 and h.ndim == 4 and not ad.recording():
        # One 2-D conv of the members' M*F filters side by side: the same GEMM, a call the tracer counts.
        m, f = w.shape[:2]
        out = ad.conv2d(h, w.data.reshape(m * f, *w.shape[2:]), b.data.reshape(m * f), relu=True).data
        return ad.as_tensor(out.reshape(out.shape[0], m, f, *out.shape[2:]).swapaxes(0, 1))
    conv = ad.conv2d if w.ndim == 4 else ad.conv2d_members  # one op; see conv2d_members
    return conv(h, w, b, relu=True)


class MemberModel:
    """Member ``member_index`` of an ensemble, as a one-member view.

    ``params[name].data`` is a writable view of its slot; checkpoints and the
    CLI read and write a member's parameters through it. Nothing is cached:
    the optimizer rebinds every layer to a view of one packed vector.
    ``forward_to_tap``/``forward_from_tap`` (from the taps, a CNN's max-pooled)
    run the trunk functions on this member's slices, read as values (no
    gradient reaches the layers): [B, …] in, [B, …] out. Neither training nor
    evaluation calls them (both run the [M, …] layers); they are kept for the
    benchmark's tracer, which wraps ``forward_to_tap`` by name.
    """

    def __init__(self, spec: ArchitectureSpec, layers: dict, member_index: int):
        self.spec, self.layers, self.member_index = spec, layers, member_index

    @property
    def params(self) -> dict:
        with ad.deferred_checks():  # views of stored values; their consumers check them
            return {
                name: ad.Tensor(self.layers[name].data[self.member_index].reshape(shape), op="param")
                for name, shape in layer_shapes(self.spec).items()
            }

    def _value(self, name: str) -> ad.Tensor:
        with ad.deferred_checks():  # stored values; their consumers check them
            return ad.Tensor(self.layers[name].data[self.member_index], op="const")

    def forward_to_tap(self, x) -> ad.Tensor:
        return trunk_to_tap(self.spec, self._value, x)

    def forward_from_tap(self, h) -> ad.Tensor:
        h = ad.as_tensor(h)
        c, *hw = self.spec.tap_shape
        expected = (c, *(n // 2 for n in hw))  # a CNN's pooled taps are half as high and wide
        if tuple(h.shape[1:]) != expected:
            raise ConfigurationError(
                f"pooled tap shape {tuple(h.shape[1:])} does not match {expected}"
            )
        return head(self.spec, self._value, features_from_tap(self.spec, self._value, h))


def mlp_layers(spec, param, h, first: int, last: int | None = None) -> ad.Tensor:
    """Dense layers ``first``..``last`` of an MLP, one ``dense`` node each.

    Layer i is ``dense{i}`` with a relu; the layer after the last hidden one
    (the default ``last``) is the head, without. ``param(name)`` gives each
    weight and bias: the ensemble's [M, in, out] and [M, 1, out] tensors,
    which take a shared [B, in] or member-major [M, B, in] ``h`` to
    [M, B, out], or one member's slots, which take [B, in] to [B, out]. An
    input batch (``first`` 1) is flattened to [B, in].
    """
    if first == 1 and h.ndim != 2:
        h = ad.reshape(h, (h.shape[0], -1))
    hidden = len(spec.hidden_sizes)
    last = hidden + 1 if last is None else last
    for i in range(first, last + 1):
        name = f"dense{i}" if i <= hidden else "head"
        h = ad.dense(h, param(f"{name}.w"), param(f"{name}.b"), relu=i <= hidden)
    return h
