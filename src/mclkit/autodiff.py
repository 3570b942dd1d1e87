"""Dense float64 tensors with reverse-mode gradient accumulation and SGD.

The compute graph is built eagerly: every op returns a new Tensor recording
its parents and a closure that maps the output gradient to parent gradients.
``backward`` walks the recorded graph once in reverse topological order and
accumulates into each node's grad slot, so repeated calls without zeroing
add up. Constant and input-batch leaves (``requires_grad`` false) receive no
gradient: ops record such operands as no parent where they can, and
``backward`` drops any contribution that still reaches one. Inside
``no_graph()`` ops record nothing, so a forward whose gradient nobody reads
keeps no activations alive; inside ``deferred_checks()`` they check no
finiteness. Ensemble members share one graph through a leading member axis
(``stack``, and ``matmul`` on [M, n, k] operands).
Desk-scale by design: no views into shared storage, no dtype zoo, no graph
rewriting.
"""
from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, StateError

# Probability clamp applied before any log; avoids -inf when a class
# probability saturates at 0.
EPS_PROB = 1e-12

# Outside ``deferred_checks()`` every op output, and every gradient backward
# accumulates into a node other than a constant or input leaf, is checked for
# finiteness, naming the op that produced a non-finite value. False: no checks.
FINITE_CHECKS = True

# C-heap policy (glibc only). An evaluation chunk's activations are blocks of
# 8 MiB and more that live for an op or two. Once one is freed, glibc's dynamic
# mmap threshold rises and later ones grow the brk heap, whose freed pages stay
# resident in a layout set by allocation order: peak RSS differed by tens of
# MiB between runs. Pin the threshold; ``release_heap`` returns free pages.
MMAP_THRESHOLD = 8 << 20
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-3, MMAP_THRESHOLD)  # -3 is M_MMAP_THRESHOLD in <malloc.h>
    _malloc_trim = _libc.malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_heap() -> None:
    """Return every free page of the C heap to the OS (glibc ``malloc_trim``)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


# Leaf ops of tensors that need no gradient: ``as_tensor`` constants and the
# training batches.
_NO_GRAD_OPS = frozenset({"const", "input"})


def _check_finite(arr: np.ndarray, op: str) -> None:
    if FINITE_CHECKS and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


class _GraphSwitch(threading.local):
    """Per-thread flags, cleared by ``no_graph`` and ``deferred_checks``."""

    recording = True
    checking = True


_graph = _GraphSwitch()


@contextmanager
def _cleared(flag: str, active: bool = True):
    previous = getattr(_graph, flag)
    setattr(_graph, flag, previous and not active)
    try:
        yield
    finally:
        setattr(_graph, flag, previous)


def no_graph():
    """Ops in this block, on this thread, record no parents and no closure.

    Their outputs are plain values: ``backward`` through them reaches
    nothing, and every intermediate array is freed as soon as the caller
    drops it. Nests, and restores the previous state on exit or error.
    """
    return _cleared("recording")


def deferred_checks(active: bool = True):
    """In this block ops and ``backward`` on this thread check no finiteness;
    ``active=False`` keeps the checks, so a replay names the op. Nests."""
    return _cleared("checking", active)


class Tensor:
    """A dense float64 array with an optional gradient slot.

    Non-leaf tensors remember the op kind and parent tensors that produced
    them; that record is the compute graph consumed by ``backward``.
    """

    __slots__ = ("data", "grad", "op", "parents", "_backward")

    def __init__(self, data, parents=(), op="leaf", backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if _graph.checking:
            _check_finite(arr, op)
        self.data = arr
        self.grad = None
        self.op = op
        self.parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor) or not np.isscalar(other):
            raise ConfigurationError("tensor division only supports scalar divisors")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    @property
    def requires_grad(self) -> bool:
        """False for constant and input-batch leaves, whose gradient nobody reads."""
        return self.op not in _NO_GRAD_OPS

    def backward(self, seed=1.0):
        backward(self, seed=seed)


def as_tensor(x) -> Tensor:
    """Wrap arrays/scalars as constant leaf tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, op="const")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum the broadcast axes of ``grad`` so it matches ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _make(data, parents, op, backward_fn) -> Tensor:
    if not _graph.recording:
        return Tensor(data, op=op)
    return Tensor(data, parents=parents, op=op, backward_fn=backward_fn)


def _make_pruned(data, inputs, op, grad_fns) -> Tensor:
    """``_make`` recording only the inputs that need a gradient.

    ``grad_fns[i]`` maps the output gradient to input i's gradient; it is
    never called for a constant or input-batch operand.
    """
    kept = [(t, fn) for t, fn in zip(inputs, grad_fns) if t.requires_grad]

    def back(g):
        return tuple(fn(g) for _, fn in kept)

    return _make(data, tuple(t for t, _ in kept), op, back)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_pruned(a.data + b.data, (a, b), "add", (
        lambda g: _unbroadcast(g, a.data.shape),
        lambda g: _unbroadcast(g, b.data.shape),
    ))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_pruned(a.data - b.data, (a, b), "sub", (
        lambda g: _unbroadcast(g, a.data.shape),
        lambda g: _unbroadcast(-g, b.data.shape),
    ))


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), "neg", lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make_pruned(a.data * b.data, (a, b), "mul", (
        lambda g: _unbroadcast(g * b.data, a.data.shape),
        lambda g: _unbroadcast(g * a.data, b.data.shape),
    ))


def matmul(a, b) -> Tensor:
    """Matrix product; either operand may carry a leading member axis.

    Operands are [n, k] or [M, n, k]. A 2-D operand is shared by every
    member, and each member's slice of the product (and of its gradients)
    is the same GEMM as the 2-D product of that member's operands.
    """
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    if x.ndim not in (2, 3) or y.ndim not in (2, 3):
        raise ConfigurationError("matmul expects 2-D operands or a leading member axis")
    if x.shape[-1] != y.shape[-2] or (x.ndim == y.ndim == 3 and x.shape[0] != y.shape[0]):
        raise ConfigurationError(f"matmul shape mismatch: {x.shape} @ {y.shape}")
    return _make_pruned(x @ y, (a, b), "matmul", (
        lambda g: _unbroadcast(g @ y.swapaxes(-1, -2), x.shape),
        lambda g: _unbroadcast(x.swapaxes(-1, -2) @ g, y.shape),
    ))


def relu(a) -> Tensor:
    a = as_tensor(a)

    def back(g):
        return (g * (a.data > 0),)

    return _make(np.maximum(a.data, 0.0), (a,), "relu", back)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def back(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), "sigmoid", back)


def log(a, lo=EPS_PROB, hi=None) -> Tensor:
    """Natural log with the input clamped to [lo, hi] before evaluation."""
    a = as_tensor(a)
    clamped = np.clip(a.data, lo, hi)

    def back(g):
        return (g / clamped,)

    return _make(np.log(clamped), (a,), "log", back)


def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum", back)


def tensor_mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[i] for i in axes]))
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.data.shape
    return _make_pruned(a.data.reshape(shape), (a,), "reshape", (lambda g: g.reshape(in_shape),))


def concat(tensors, axis=0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ConfigurationError("concat of an empty sequence")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ConfigurationError(f"concat shape mismatch: {exc}") from exc
    bounds = np.cumsum([0] + [t.data.shape[axis] for t in ts])

    def part(lo, hi):
        return lambda g: np.split(g, (lo, hi), axis=axis)[1]

    return _make_pruned(out, ts, "concat", [part(lo, hi) for lo, hi in zip(bounds, bounds[1:])])


def stack(tensors) -> Tensor:
    """Equally shaped tensors joined along a new leading (member) axis."""
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ConfigurationError("stack of an empty sequence")
    shapes = {t.data.shape for t in ts}
    if len(shapes) != 1:
        raise ConfigurationError(f"stack shapes differ: {sorted(shapes)}")
    grad_fns = [lambda g, i=i: g[i] for i in range(len(ts))]
    return _make_pruned(np.stack([t.data for t in ts]), ts, "stack", grad_fns)


# ---------------------------------------------------------------------------
# neural-net forward ops
# ---------------------------------------------------------------------------

def dense(x, w, b=None) -> Tensor:
    """Affine layer: x @ w (+ b)."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def conv2d(x, w, b=None, stride=1, padding="same") -> Tensor:
    """2-D convolution, NCHW layout, stride 1 and zero 'same' padding only.

    ``x`` is [B, C, H, W]; ``w`` is [F, C, kh, kw] with odd kernel extents.
    Computed as im2col + one GEMM (Chellapilla et al. 2006): the input is
    padded once into an NHWC buffer whose kh*kw shifted windows form the
    [B*H*W, kh*kw*C] patch matrix. The op keeps the padded input, not the
    patch matrix, and backward rebuilds the matrix from it. An input that
    needs no gradient (a constant or input batch) is not recorded as a
    parent, and no input gradient is computed for it.
    """
    x, w = as_tensor(x), as_tensor(w)
    if stride != 1:
        raise ConfigurationError("conv2d supports stride 1 only")
    if padding != "same":
        raise ConfigurationError("conv2d supports 'same' padding only")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ConfigurationError("conv2d expects 4-D input and kernel")
    bsz, cin, h, wd = x.data.shape
    f, cker, kh, kw = w.data.shape
    if cker != cin:
        raise ConfigurationError(
            f"conv2d channel mismatch: input has {cin}, kernel expects {cker}"
        )
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigurationError("conv2d 'same' padding requires odd kernel extents")
    bt = as_tensor(b) if b is not None else None
    if bt is not None and bt.data.shape != (f,):
        raise ConfigurationError("conv2d bias must have one entry per filter")

    ph, pw = kh // 2, kw // 2
    xp = np.zeros((bsz, h + 2 * ph, wd + 2 * pw, cin))
    xp[:, ph : ph + h, pw : pw + wd] = x.data.transpose(0, 2, 3, 1)
    wmat = w.data.transpose(2, 3, 1, 0).reshape(kh * kw * cin, f)
    out = _im2col(xp, kh, kw) @ wmat
    if bt is not None:
        out += bt.data
    out = out.reshape(bsz, h, wd, f).transpose(0, 3, 1, 2)

    need_gx = x.requires_grad
    parents = (w,) if bt is None else (w, bt)
    if need_gx:
        parents = (x,) + parents

    def back(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, f)
        gw = _im2col(xp, kh, kw).T @ g2
        grads = [gw.reshape(kh, kw, cin, f).transpose(3, 2, 0, 1)]
        if bt is not None:
            grads.append(g2.sum(axis=0))
        if need_gx:
            gcols = (g2 @ wmat.T).reshape(bsz, h, wd, kh, kw, cin)
            gxp = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    gxp[:, u : u + h, v : v + wd] += gcols[:, :, :, u, v]
            grads.insert(0, gxp[:, ph : ph + h, pw : pw + wd].transpose(0, 3, 1, 2))
        return tuple(grads)

    return _make(out, parents, "conv2d", back)


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Patch matrix [B*h*w, kh*kw*C] of a padded NHWC buffer, (u, v, c) columns.

    One copy of the kh*kw shifted windows, each row made of contiguous
    channel runs; a 1x1 kernel needs no copy at all.
    """
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * xp.shape[3])


def maxpool2x2(x) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first max.

    The forward is an elementwise maximum of the four stride-2 slices. The
    backward gives each window's gradient to the first of its slices, in the
    order (0,0), (0,1), (1,0), (1,1), that holds the window's maximum.
    """
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ConfigurationError("maxpool2x2 expects a 4-D input")
    _, _, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ConfigurationError("maxpool2x2 requires even spatial extents")
    xd = x.data
    out = np.maximum(
        np.maximum(xd[:, :, 0::2, 0::2], xd[:, :, 0::2, 1::2]),
        np.maximum(xd[:, :, 1::2, 0::2], xd[:, :, 1::2, 1::2]),
    )

    def back(g):
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)
        for i, j in ((0, 0), (0, 1), (1, 0)):
            hit = free & (xd[:, :, i::2, j::2] == out)
            gx[:, :, i::2, j::2] = np.where(hit, g, 0.0)
            free &= ~hit
        gx[:, :, 1::2, 1::2] = np.where(free, g, 0.0)
        return (gx,)

    return _make(out, (x,), "maxpool2x2", back)


def softmax(x, axis=-1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows sum to 1 within 1e-9."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - inner),)

    return _make(p, (x,), "softmax", back)


# ---------------------------------------------------------------------------
# losses on probability vectors
# ---------------------------------------------------------------------------

def cross_entropy_onehot(p, target) -> Tensor:
    """-log p[t] for one-hot ``target``, with p clamped to [EPS_PROB, 1].

    Works on [..., C] batches; the class axis is reduced away.
    """
    p = as_tensor(p)
    t = np.asarray(target, dtype=np.float64)
    if p.data.shape[-1] != t.shape[-1]:
        raise ConfigurationError(
            f"cross_entropy_onehot length mismatch: {p.data.shape[-1]} vs {t.shape[-1]}"
        )
    lp = log(p, lo=EPS_PROB, hi=1.0)
    return neg(tensor_sum(mul(lp, t), axis=-1))


def kl_to_onehot(target, p) -> Tensor:
    """KL(one-hot || p); analytically identical to cross_entropy_onehot(p, target)."""
    return cross_entropy_onehot(p, target)


def kl_uniform_to(p) -> Tensor:
    """KL(uniform || p) over the last axis, with p clamped at EPS_PROB."""
    p = as_tensor(p)
    c = p.data.shape[-1] if p.data.ndim else 0
    if c == 0:
        raise ConfigurationError("kl_uniform_to of an empty probability vector")
    mean_neglog = neg(tensor_mean(log(p, lo=EPS_PROB, hi=1.0), axis=-1))
    return add(mean_neglog, -math.log(c))


def softmax_cross_entropy(logits, target) -> Tensor:
    """Fused softmax + cross-entropy on logits via log-sum-exp.

    Gradient w.r.t. the logits is softmax(logits) - target.
    """
    x = as_tensor(logits)
    t = np.asarray(target, dtype=np.float64)
    if x.data.shape[-1] != t.shape[-1]:
        raise ConfigurationError("softmax_cross_entropy length mismatch")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(z))[..., 0]
    ce = lse - (x.data * t).sum(axis=-1)
    p = e / z

    def back(g):
        return ((p - t) * g[..., None],)

    return _make(ce, (x,), "softmax_cross_entropy", back)


# ---------------------------------------------------------------------------
# graph walk
# ---------------------------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """Nodes of the graph below ``root``, every parent before its consumers."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, pi = stack.pop()
        if pi == 0:
            if id(node) in visited:
                continue
            visited.add(id(node))
        if pi < len(node.parents):
            stack.append((node, pi + 1))
            stack.append((node.parents[pi], 0))
        else:
            order.append(node)
    return order


def backward(loss: Tensor, seed=1.0) -> None:
    """Accumulate d(root)/d(node), times ``seed``, into every node's grad slot.

    ``seed`` is a scalar for a scalar root, or an array shaped like the root
    (the gradient of some later loss with respect to it). The pass
    propagates pass-local gradients, so calling backward twice without
    zeroing doubles every grad exactly. Contributions to parents that need
    no gradient (constants, input batches) are dropped unchecked.
    """
    if np.ndim(seed) == 0:
        if loss.data.size != 1:
            raise StateError("backward requires a scalar loss node or a seed of its shape")
        start = np.full_like(loss.data, float(seed))
    else:
        start = np.asarray(seed, dtype=np.float64)
        if start.shape != loss.data.shape:
            raise StateError(
                f"backward seed shape {start.shape} does not match the root's {loss.data.shape}"
            )
    order = topo_order(loss)
    local: dict[int, np.ndarray] = {id(loss): start}
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        contribs = node._backward(g)
        for parent, contrib in zip(node.parents, contribs):
            if not parent.requires_grad:
                continue
            if _graph.checking:
                _check_finite(contrib, f"{node.op}.backward")
            prev = local.get(id(parent))
            local[id(parent)] = contrib if prev is None else prev + contrib


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")


def sgd_step(params, grads, cfg: SgdConfig, buffers=None):
    """One SGD update: p <- p - lr * buf, buf <- momentum * buf + grad + wd * p.

    Returns the (updated) momentum buffers so callers can thread them
    through successive steps.
    """
    params = list(params)
    grads = list(grads)
    if buffers is None:
        buffers = [None] * len(params)
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise StateError("sgd_step with a missing gradient; run backward first")
        d = g + cfg.weight_decay * p.data if cfg.weight_decay else g
        buf = d if buffers[i] is None else cfg.momentum * buffers[i] + d
        buffers[i] = buf
        p.data = p.data - cfg.learning_rate * buf
    return buffers


class SgdOptimizer:
    """Holds momentum buffers for a fixed parameter list."""

    def __init__(self, params, cfg: SgdConfig):
        self.params = list(params)
        self.cfg = cfg
        self.buffers = [None] * len(self.params)

    def step(self):
        self.buffers = sgd_step(
            self.params, [p.grad for p in self.params], self.cfg, self.buffers
        )

    def zero_grad(self):
        for p in self.params:
            p.grad = None
