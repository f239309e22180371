"""Low-level array operations shared by the layers.

``im2col``/``col2im`` lower a strided window into one patch row per
output pixel and scatter-add patches back.  Pooling and the crossbar
``AnalogConv2d`` (whose MVM takes patch rows) use them, and the tests use
them as the reference for ``Conv2d``, which convolves by shift-accumulate
over its padded NHWC input instead (see :mod:`repro.nn.conv`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "pad2d",
    "unpad2d",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing spatial axes of an NCHW tensor."""
    if padding == 0:
        return x
    return np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )


def unpad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Inverse of :func:`pad2d`."""
    if padding == 0:
        return x
    return x[:, :, padding:-padding, padding:-padding]


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Lower an NCHW tensor into convolution patches.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kernel * kernel)``: one row per output pixel,
    one column per weight element.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_padded = pad2d(x, padding)

    # Strided view: (N, C, out_h, out_w, kernel, kernel)
    sn, sc, sh, sw = x_padded.strides
    patches = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # -> (N, out_h, out_w, C, kernel, kernel) -> rows
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add patch rows back into an NCHW tensor (adjoint of im2col)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    h_padded, w_padded = h + 2 * padding, w + 2 * padding

    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    x_padded = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)
    # Accumulate each kernel offset in a vectorised pass; patches at distinct
    # output pixels may overlap in the input, so this must be "+=".
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            x_padded[:, :, ki:i_max:stride, kj:j_max:stride] += patches[
                :, :, :, :, ki, kj
            ]
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` -> one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
