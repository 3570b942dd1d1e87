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
finiteness. Ensemble members share one graph through a leading member axis:
parameters are stored [M, …]; ``matmul``, ``dense`` and ``conv2d`` take
[M, …] operands over a shared or member-major input, ``maxpool2x2`` pools
any leading shape, and ``concat_members``, ``add_members`` and
``permute_members`` move features between members. Training and evaluation
run the same member-axis ops; evaluation runs a CNN chunk in tiles of batch
rows (``ensemble.ensemble_forward``), so each op sees a tile there. Each
layer is one node: ``dense`` (matmul, bias and relu) and ``conv2d``
(convolution, bias and relu) run, forward and backward, the same
numpy expressions in the same order as the chains of ops they stand for, so
their values and gradients are bit-identical to those chains'; only the
per-node graph overhead and the separate activation copies are saved. The
objectives work on log-probabilities: ``log_softmax`` and the class gather
``nll`` are one node each, and so is ``assigned_nll``, an objective's
assigned cross-entropy plus its weighted penalty where unassigned, again
bit-identical to the chain it stands for. Desk-scale by design: no dtype zoo,
no graph rewriting.
"""
from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, StateError

# Probability clamp applied before a log of probabilities (``log`` and the
# evaluation metrics); avoids -inf when a class probability rounds to 0.
EPS_PROB = 1e-12

# C-heap policy (glibc only): importing this module pins malloc's mmap
# threshold. Once a block of 8 MiB or more is freed, glibc's dynamic threshold
# would rise and later blocks grow the brk heap, whose freed pages stay
# resident in a layout set by allocation order (peak RSS moved by tens of
# MiB). An evaluation pass makes no block that large: ``ensemble_forward``
# sizes its tiles so that a tile's patch matrices stay below it.
MMAP_THRESHOLD = 8 << 20
try:
    ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD)  # -3 is M_MMAP_THRESHOLD in <malloc.h>
except (AttributeError, OSError, TypeError):
    pass


# Leaf ops of tensors that need no gradient: ``as_tensor`` constants and the
# training batches.
_NO_GRAD_OPS = frozenset({"const", "input"})


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


class _GraphSwitch(threading.local):
    """Per-thread flags, cleared by ``no_graph`` and ``deferred_checks``."""

    recording = True
    checking = True
    workspace = None  # [buffer] inside conv_workspace


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


def recording() -> bool:
    """Whether ops on this thread record a graph: false inside ``no_graph``."""
    return _graph.recording


@contextmanager
def conv_workspace():
    """In this block, on this thread, ``conv2d`` makes its patch matrices and
    column gradients, each dead before the next is made, in one buffer grown
    to the largest and kept until the block ends, not in a fresh mmap each
    (faulted in page by page, three a training step at 9 MiB). Same bits."""
    previous, _graph.workspace = _graph.workspace, [np.empty(0)]
    try:
        yield
    finally:
        _graph.workspace = previous


def _scratch(shape) -> np.ndarray:
    """An uninitialized array of ``shape``: the head of the workspace inside
    ``conv_workspace`` (only until the next call), else a new array."""
    ws = _graph.workspace
    if ws is None:
        return np.empty(shape)
    size = math.prod(shape)
    if ws[0].size < size:
        ws[0] = None  # the old buffer freed before the larger one is made
        ws[0] = np.empty(size)
    return ws[0][:size].reshape(shape)


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

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

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
    if grad.shape == shape:
        return grad
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


def _make_pruned(data, inputs, op, grad_fns, pre=None) -> Tensor:
    """``_make`` recording only the inputs that need a gradient.

    ``grad_fns[i]`` maps the output gradient to input i's gradient; it is
    never called for a constant or input-batch operand. ``pre``, if given,
    maps the output gradient once before any ``grad_fns[i]`` reads it.
    """
    if not _graph.recording:
        return Tensor(data, op=op)
    kept = [(t, fn) for t, fn in zip(inputs, grad_fns) if t.requires_grad]

    def back(g):
        if pre is not None:
            g = pre(g)
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


def add_members(members, shared) -> Tensor:
    """``shared + members``, [B, …] broadcast over member-major [M, B, …], as
    one node, bit-identical to the M per-member ``add`` nodes it stands for:
    the shared gradient sums the members last to first, as ``backward`` summed
    those nodes, and keeps their memory layout (a later reduction's bits, such
    as a gate's spatial mean, depend on it)."""
    members, shared = as_tensor(members), as_tensor(shared)
    if members.data.shape[1:] != shared.data.shape:
        raise ConfigurationError(f"add_members: {shared.data.shape} does not fit {members.data.shape}")

    def shared_grad(g):
        total = g[-1].copy(order="K")
        for part in g[-2::-1]:
            total += part
        return total

    return _make_pruned(shared.data + members.data, (members, shared), "add_members", (lambda g: g, shared_grad))


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
    return _affine(a, b, None, False, "matmul")


def _affine(a, b, bias, relu: bool, op: str) -> Tensor:
    """``a @ b``, plus ``bias`` added in place, then relu in place, as one node."""
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    if x.ndim not in (2, 3) or y.ndim not in (2, 3):
        raise ConfigurationError(f"{op} expects 2-D operands or a leading member axis")
    if x.shape[-1] != y.shape[-2] or (x.ndim == y.ndim == 3 and x.shape[0] != y.shape[0]):
        raise ConfigurationError(f"{op} shape mismatch: {x.shape} @ {y.shape}")
    out = x @ y
    inputs = [a, b]
    grad_fns = [
        lambda g: _unbroadcast(g @ y.swapaxes(-1, -2), x.shape),
        lambda g: _unbroadcast(x.swapaxes(-1, -2) @ g, y.shape),
    ]
    if bias is not None:
        bias = as_tensor(bias)
        bshape = bias.data.shape
        # A [M, out] bias is one row per member of an [M, n, out] product.
        bdata = bias.data[:, None] if out.ndim == 3 and bias.data.ndim == 2 else bias.data
        try:
            out += bdata
        except ValueError as exc:
            raise ConfigurationError(f"{op} bias {bshape} does not fit {out.shape}") from exc
        inputs.append(bias)
        grad_fns.append(lambda g: _unbroadcast(g, bdata.shape).reshape(bshape))
    if not relu:
        return _make_pruned(out, inputs, op, grad_fns)
    _relu_in_place(out, op)
    return _make_pruned(out, inputs, op, grad_fns, pre=lambda g: g * (out > 0))


def _relu_in_place(out: np.ndarray, op: str) -> None:
    """relu on a fused op's fresh output, checked first: relu would zero a -inf."""
    if _graph.checking:
        _check_finite(out, op)
    np.maximum(out, 0.0, out=out)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def back(g):
        return (g * (a.data > 0),)

    return _make(np.maximum(a.data, 0.0), (a,), "relu", back)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

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
    """Sum over ``axis`` (every axis by default). The backward writes the
    output gradient into a fresh full-shape array, as ``np.broadcast_to``
    would give it, without that wrapper's Python-level cost."""
    a = as_tensor(a)
    in_shape = a.data.shape
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if axis is None:
        axes = range(a.ndim)
    else:
        axes = {ax % a.ndim for ax in (axis if isinstance(axis, tuple) else (axis,))}
    kept = tuple(1 if i in axes else s for i, s in enumerate(in_shape))  # the keepdims shape

    def back(g):
        full = np.empty(in_shape)
        full[...] = g.reshape(kept)
        return (full,)

    return _make(out, (a,), "sum", back)


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


def concat_members(a) -> Tensor:
    """[M, B, C, …] -> [B, M*C, …], the values of ``concat(list(a), axis=1)``,
    as one node; a view of conv2d's NHWC buffer over a shared input."""
    a = as_tensor(a)
    if a.ndim < 3:
        raise ConfigurationError("concat_members expects member-major [M, B, C, …] input")
    m, b, c, *rest = a.data.shape
    out = np.moveaxis(a.data, 0, 1).reshape(b, m * c, *rest)
    return _make_pruned(out, (a,), "concat_members", (lambda g: np.moveaxis(g.reshape(b, m, c, *rest), 1, 0),))


def permute_members(a, perms) -> Tensor:
    """``out[d, b] = a[perms[b, d], b]`` for member-major ``a`` [M, B, …] and
    one permutation of range(M) per example in ``perms`` [B, M]; exact both
    ways, the backward scattering with the inverse permutations."""
    a = as_tensor(a)
    perms = np.asarray(perms)
    m, bsz = a.data.shape[:2]
    if perms.shape != (bsz, m) or not (np.sort(perms, axis=1) == np.arange(m)).all():
        raise ConfigurationError(f"permute_members needs one permutation of {m} members per example")
    rows = np.arange(bsz)
    inverse = np.argsort(perms, axis=1)
    return _make_pruned(a.data[perms.T, rows], (a,), "permute_members", (lambda g: g[inverse.T, rows],))


# ---------------------------------------------------------------------------
# neural-net forward ops
# ---------------------------------------------------------------------------

def dense(x, w, b=None, relu=False) -> Tensor:
    """Affine layer x @ w (+ b), then relu if ``relu``, as one graph node.

    Operands are those of ``matmul``; ``b`` broadcasts to the product. The
    bias is added in place into the fresh product and relu is applied in
    place, so values and gradients are bit-identical to ``matmul``, ``add``
    and ``relu`` composed; the backward masks on ``out > 0``. With per-op
    checks on, the pre-activation is checked before relu, so a -inf that
    relu would zero still raises, naming ``dense``.
    """
    return _affine(x, w, b, relu, "dense")


def conv2d(x, w, b=None, stride=1, padding="same", relu=False) -> Tensor:
    """2-D convolution, NCHW layout, stride 1 and zero 'same' padding only,
    then relu if ``relu``, as one graph node, over a leading member axis.

    ``w`` is [M, F, C, kh, kw] (odd extents) and ``b`` [M, F]; ``x`` is a
    shared [B, C, H, W] or a member-major [M, B, C, H, W]; the output is
    [M, B, F, H, W]. A [F, C, kh, kw] kernel is the M=1 case, [B, C, H, W] to
    [B, F, H, W]. im2col + GEMM (Chellapilla et al. 2006): the input is padded
    once into an NHWC buffer whose shifted windows form the [B*H*W, kh*kw*C]
    patch matrix, rebuilt by backward from the padded input (a 1x1 kernel reads
    the input as a view). A shared input is one GEMM against the members'
    filters side by side, [kh*kw*C, M*F]; a member-major one a batched GEMM.
    Each member's share gave the bits of its own 2-D GEMM, forward and
    backward, on the BLAS measured (not a guarantee: ``tools/fixed_seed_diff.py``
    checks it). The output is a member-major NCHW view of the NHWC GEMM output,
    bias and relu applied in place, so values and gradients are bit-identical
    to ``relu(conv2d(...))``; with per-op checks on, the pre-activation is
    checked first, naming ``conv2d``. A constant or input batch gets no
    gradient; a shared input's is the members' summed in member order. One
    GEMM per call, recorded or not: evaluation bounds its patch matrices by
    running a chunk in tiles of batch rows (``ensemble_forward``). Inside
    ``conv_workspace`` the patch matrices and the column gradient are made in
    its one buffer.
    """
    x, w = as_tensor(x), as_tensor(w)
    if stride != 1:
        raise ConfigurationError("conv2d supports stride 1 only")
    if padding != "same":
        raise ConfigurationError("conv2d supports 'same' padding only")
    one, shared = w.data.ndim == 4, x.data.ndim == 4  # one member's kernel; a shared input
    wm, xm = (w.data[None] if one else w.data), (x.data[None] if shared else x.data)
    if wm.ndim != 5 or xm.ndim != 5 or (one and not shared):
        raise ConfigurationError("conv2d expects [B, C, H, W] or [M, B, C, H, W] input and "
                                 "[F, C, kh, kw] or [M, F, C, kh, kw] kernel (4-D takes 4-D)")
    m, f, cker, kh, kw = wm.shape
    mx, bsz, cin, h, wd = xm.shape
    if cker != cin:
        raise ConfigurationError(f"conv2d channel mismatch: input has {cin}, kernel expects {cker}")
    if not shared and mx != m:
        raise ConfigurationError(f"conv2d member mismatch: input has {mx}, kernel {m}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigurationError("conv2d 'same' padding requires odd kernel extents")
    bt = as_tensor(b) if b is not None else None
    if bt is not None and bt.data.shape != w.data.shape[:-3]:
        raise ConfigurationError("conv2d bias must have one entry per filter")

    ph, pw = kh // 2, kw // 2
    k = kh * kw * cin
    if ph == pw == 0:  # a 1x1 kernel reads the input unpadded, as an NHWC view
        xp = xm.transpose(0, 1, 3, 4, 2)
    else:
        xp = np.zeros((mx, bsz, h + 2 * ph, wd + 2 * pw, cin))
        xp[:, :, ph : ph + h, pw : pw + wd] = xm.transpose(0, 1, 3, 4, 2)
    if shared:  # the members' filters side by side: member m's at columns m*F.. of one GEMM
        wmat = wm.transpose(3, 4, 2, 0, 1).reshape(1, k, m * f)
    else:
        wmat = wm.transpose(0, 3, 4, 2, 1).reshape(m, k, f)
    gemm = np.matmul(_im2col(xp, kh, kw), wmat)
    out = gemm.reshape(bsz, h, wd, m, f).transpose(3, 0, 1, 2, 4) if shared else gemm.reshape(m, bsz, h, wd, f)
    if bt is not None:
        out += bt.data.reshape(m, 1, 1, 1, f)
    if relu:
        _relu_in_place(out, "conv2d")

    need_gx = x.requires_grad
    parents = ((x,) if need_gx else ()) + ((w,) if bt is None else (w, bt))

    def back(g):
        g2 = (g[None] if one else g).transpose(0, 1, 3, 4, 2)  # [M, B, H, W, F]
        if relu:
            g2 = g2 * (out > 0)
        if shared:
            g2 = g2.transpose(1, 2, 3, 0, 4).reshape(-1, m * f)  # [B*H*W, M*F], as the GEMM's output
            gw = (_im2col(xp[0], kh, kw).T @ g2).reshape(kh, kw, cin, m, f).transpose(3, 4, 2, 0, 1)
            gb = g2.sum(axis=0).reshape(m, f)
            g2 = g2.reshape(-1, m, f).transpose(1, 0, 2)
            wt = wmat.reshape(k, m, f).transpose(1, 2, 0)
        else:
            g2 = g2.reshape(m, -1, f)
            gw = (_im2col(xp, kh, kw).swapaxes(1, 2) @ g2).reshape(m, kh, kw, cin, f)
            gw = gw.transpose(0, 4, 3, 1, 2)
            gb = g2.sum(axis=1)
            wt = wmat.swapaxes(1, 2)
        grads = [gw[0] if one else gw]
        if bt is not None:
            grads.append(gb[0] if one else gb)
        if need_gx:
            gcols = np.matmul(g2, wt, out=_scratch((m, bsz * h * wd, k))).reshape(m, bsz, h, wd, kh, kw, cin)
            gxp = np.zeros((m, bsz, h + 2 * ph, wd + 2 * pw, cin))
            for u in range(kh):
                for v in range(kw):
                    gxp[:, :, u : u + h, v : v + wd] += gcols[:, :, :, :, u, v]
            gx = gxp[:, :, ph : ph + h, pw : pw + wd].transpose(0, 1, 4, 2, 3)
            if shared:
                gx = gx[0] if one else gx.sum(axis=0)
            grads.insert(0, gx)
        return tuple(grads)

    nchw = out.transpose(0, 1, 4, 2, 3)
    return _make(nchw[0] if one else nchw, parents, "conv2d", back)


# ``conv2d`` under a name ``perfbench/tracer.py`` does not wrap: it reads 4-D
# shapes from ``conv2d``'s arguments (ROADMAP item 1; see ``models._conv_relu``).
conv2d_members = conv2d


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Patch matrix [..., B*h*w, kh*kw*C] of padded NHWC buffers [..., B, H, W, C],
    (u, v, c) columns.

    One copy of the kh*kw shifted windows (into ``_scratch``), each row made
    of contiguous channel runs; a 1x1 kernel needs no copy at all.
    """
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(-3, -2))
    windows = np.moveaxis(windows, -3, -1)  # [..., B, h, w, kh, kw, C]
    if kh == kw == 1:
        return windows.reshape(*xp.shape[:-4], -1, xp.shape[-1])
    cols = _scratch(windows.shape)
    np.copyto(cols, windows)
    return cols.reshape(*xp.shape[:-4], -1, kh * kw * xp.shape[-1])


def maxpool2x2(x) -> Tensor:
    """2x2 max pooling with stride 2 over the last two axes, whatever leads
    them ([B, C, H, W], or member-major [M, B, C, H, W]); ties route the
    gradient to the first max.

    The forward is an elementwise maximum of the four stride-2 slices. The
    backward gives each window's gradient to the first of its slices, in the
    order (0,0), (0,1), (1,0), (1,1), that holds the window's maximum.
    """
    x = as_tensor(x)
    if x.data.ndim < 3:
        raise ConfigurationError("maxpool2x2 expects a batch of [C, H, W] maps")
    h, w = x.data.shape[-2:]
    if h % 2 or w % 2:
        raise ConfigurationError("maxpool2x2 requires even spatial extents")
    xd = x.data
    out = np.maximum(
        np.maximum(xd[..., 0::2, 0::2], xd[..., 0::2, 1::2]),
        np.maximum(xd[..., 1::2, 0::2], xd[..., 1::2, 1::2]),
    )

    def back(g):
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)
        for i, j in ((0, 0), (0, 1), (1, 0)):
            hit = free & (xd[..., i::2, j::2] == out)
            gx[..., i::2, j::2] = np.where(hit, g, 0.0)
            free &= ~hit
        gx[..., 1::2, 1::2] = np.where(free, g, 0.0)
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


def log_softmax(x, axis=-1) -> Tensor:
    """``shifted - log Σ exp(shifted)`` along ``axis``, ``shifted`` being the
    max-subtracted input; the backward is ``g - p·Σg``.

    Exact where a softmax saturates: a log-probability of -60 stays -60
    instead of the log of a probability that rounded to 0.
    """
    x = as_tensor(x)
    if x.data.shape[axis] == 0:
        raise ConfigurationError("log_softmax of an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    p = np.exp(shifted)
    z = p.sum(axis=axis, keepdims=True)
    p /= z
    shifted -= np.log(z)

    def grad(g):
        return g - p * g.sum(axis=axis, keepdims=True)

    return _make_pruned(shifted, (x,), "log_softmax", (grad,))


# ---------------------------------------------------------------------------
# losses on log-probabilities
# ---------------------------------------------------------------------------

def nll(logp, index) -> Tensor:
    """-logp[..., index]: each row's negative log-probability of one class.

    ``index`` is an int, the same class for every row (the auxiliary slot),
    or a [B] array of class indices, one per row of ``logp`` [..., B, C].
    The class axis is reduced away; the backward scatters -g into the picked
    entries and leaves every other entry's gradient 0.
    """
    logp = as_tensor(logp)
    if isinstance(index, (int, np.integer)):
        sel = (..., index)
    else:
        index = np.asarray(index)
        if logp.ndim < 2 or index.shape != logp.shape[-2:-1]:
            raise ConfigurationError(f"nll index of shape {index.shape} does not fit {logp.shape}")
        sel = (..., np.arange(index.shape[0]), index)

    def grad(g):
        full = np.zeros_like(logp.data)
        full[sel] = -g
        return full

    # C order: the gather lays its result out row-major over B, and the bits
    # of a later sum over B depend on the layout.
    return _make_pruned(np.negative(logp.data[sel], order="C"), (logp,), "nll", (grad,))


def assigned_nll(logp, y, on, penalty=None, weight=0.0):
    """Each member's assigned cross-entropy plus ``weight`` times a penalty
    where unassigned, as one node; returns (terms [M], assignment [B, M]).

    ``logp`` is member-major [M, B, C] and ``y`` the [B] class indices. ``on``
    is the 0/1 assignment, or a function of the detached [M, B]
    cross-entropies that gives it (a top-K assignment reads the values the
    terms sum). ``penalty`` is None, ``"aux"`` (the last slot's -log p) or
    ``"uniform"`` (-mean(log p) - log C). Forward and backward run the numpy
    expressions of the chain ``nll``, masked sums, penalty, ``mul`` and
    ``add`` in its order, so terms and gradients are bit-identical to it; the
    backward adds the cross-entropy and penalty gradients as two arrays, as
    ``backward`` sums two contributions (one buffer could flip signed zeros).
    """
    logp = as_tensor(logp)
    lp = logp.data
    y = np.asarray(y)
    if lp.ndim != 3 or y.shape != lp.shape[1:2]:
        raise ConfigurationError(f"assigned_nll: class indices {y.shape} do not fit {lp.shape}")
    if penalty not in (None, "aux", "uniform"):
        raise ConfigurationError(f"unknown penalty {penalty!r}")
    m, b, c = lp.shape
    sel = (..., np.arange(b), y)
    # C order: the gather lays its result out row-major over B, and the bits
    # of the sum over B depend on the layout.
    ces = np.negative(lp[sel], order="C")
    on = np.asarray(on(ces) if callable(on) else on)
    if on.shape != (b, m):
        raise ConfigurationError(f"assigned_nll: assignment {on.shape} is not [B, M] = {(b, m)}")
    on_t = np.ascontiguousarray(on.T, dtype=np.float64)
    terms = (ces * on_t).sum(axis=-1)
    off_t = None
    if penalty is not None and weight:
        off_t = np.ascontiguousarray((1 - on).T, dtype=np.float64)
        if penalty == "aux":
            pen = np.negative(lp[..., c - 1], order="C")
        else:
            pen = lp.sum(axis=-1) * (-1.0 / c) + (-math.log(c))
        terms = terms + (pen * off_t).sum(axis=-1) * weight

    def grad(g):
        full = np.zeros_like(lp)
        full[sel] = -(g[..., None] * on_t)
        if off_t is None:
            return full
        g_pen = (g * weight)[..., None] * off_t
        if penalty == "aux":
            pen_full = np.zeros_like(lp)
            pen_full[..., c - 1] = -g_pen
        else:
            pen_full = np.empty(lp.shape)
            pen_full[...] = (g_pen * (-1.0 / c))[..., None]
        return full + pen_full

    return _make_pruned(terms, (logp,), "assigned_nll", (grad,)), on


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

    The root is a scalar node and ``seed`` a scalar. The pass propagates
    pass-local gradients, so calling backward twice without zeroing doubles
    every grad exactly. Contributions to parents that need no gradient
    (constants, input batches) are dropped unchecked.
    """
    if loss.data.size != 1:
        raise StateError("backward requires a scalar loss node")
    start = np.full_like(loss.data, float(seed))
    order = topo_order(loss)
    local: dict[int, np.ndarray] = {id(loss): start}
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for parent, contrib in zip(node.parents, node._backward(g)):
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
    """One SGD update, in place: buf <- momentum * buf + grad + wd * p, p <- p - lr * buf.

    Returns the updated momentum buffers, for the next step; the grads are
    only read. One temporary holds grad + wd * p, then lr * buf.
    """
    params = list(params)
    grads = list(grads)
    if buffers is None:
        buffers = [None] * len(params)
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise StateError("sgd_step with a missing gradient; run backward first")
        d = np.asarray(p.data * cfg.weight_decay) if cfg.weight_decay else None  # 0-d too: out= needs an array
        if d is not None:
            d += g
        if buffers[i] is None:
            buffers[i], d = (np.array(g) if d is None else d), None  # a copy: never the caller's grad
        else:
            buffers[i] *= cfg.momentum
            buffers[i] += g if d is None else d
        p.data -= np.multiply(buffers[i], cfg.learning_rate, out=d)
    return buffers


class SgdOptimizer:
    """SGD with momentum over one packed parameter arena.

    On construction the parameters' values are copied, in list order, into
    one contiguous float64 vector, ``arena``, and each ``param.data`` is
    rebound to its C-contiguous, same-shape view of that vector; a view
    taken of a ``param.data`` before then no longer aliases the parameter.
    ``grad`` is a vector of the same size, into which ``gather`` copies
    every ``param.grad``. A step is one ``sgd_step`` over the whole arena:
    elementwise the same update as one per tensor, so the same bits, with
    its Python-level work paid once instead of once per tensor.
    """

    def __init__(self, params, cfg: SgdConfig):
        self.params = list(params)
        self.cfg = cfg
        vector = np.empty(sum(p.data.size for p in self.params))
        self.grad = np.empty_like(vector)
        self._grad_views = []
        start = 0
        for p in self.params:
            end = start + p.data.size
            vector[start:end] = p.data.ravel()
            p.data = vector[start:end].reshape(p.data.shape)
            self._grad_views.append(self.grad[start:end].reshape(p.data.shape))
            start = end
        with _cleared("checking"):  # every value was checked as its parameter was made
            self.arena = Tensor(vector, op="param")
        self.buffers = [None]

    def gather(self) -> np.ndarray:
        """Copy every parameter's gradient into ``grad``, and return it."""
        for p, view in zip(self.params, self._grad_views):
            if p.grad is None:
                raise StateError("a parameter has no gradient; run backward first")
            view[...] = p.grad
        return self.grad

    def step(self, grad=None):
        """One SGD update of the arena from ``grad``, the vector ``gather``
        returns; without it the gradients are gathered here."""
        if grad is None:
            grad = self.gather()
        self.buffers = sgd_step([self.arena], [grad], self.cfg, self.buffers)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
