"""Loop-over-kernel-offsets conv2d, kept as the reference for ``autodiff.conv2d``.

One ``tensordot`` per kernel offset (u, v) on the zero-padded NCHW input,
forward and backward, with 'same' padding and stride 1. It sums in a
different order than the GEMM op, so comparisons use a float64 tolerance.
"""
import numpy as np


def conv2d_forward(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    bsz, _, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((bsz, f, h, wd))
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u : u + h, v : v + wd]
            out += np.tensordot(patch, w[:, :, u, v], axes=([1], [1])).transpose(0, 3, 1, 2)
    if b is not None:
        out += b[None, :, None, None]
    return out


def conv2d_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients (gx, gw, gb) of sum(g * conv2d_forward(x, w, b))."""
    _, _, h, wd = x.shape
    _, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u : u + h, v : v + wd]
            gw[:, :, u, v] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
            gxp[:, :, u : u + h, v : v + wd] += np.tensordot(
                g, w[:, :, u, v], axes=([1], [0])
            ).transpose(0, 3, 1, 2)
    gx = gxp[:, :, ph : ph + h, pw : pw + wd]
    return gx, gw, g.sum(axis=(0, 2, 3))
