"""Pooling and reshaping layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .functional import conv_output_size, im2col
from .module import Module, is_grad_enabled

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten"]


class MaxPool2d(Module):
    """Max pooling with square windows (stride defaults to kernel size)."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._argmax: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        # Pool each channel independently by treating channels as batch.
        cols, _, _ = im2col(x.reshape(n * c, 1, h, w), k, s, 0)
        self.save_for_backward(
            _argmax=cols.argmax(axis=1) if is_grad_enabled() else None,
            _x_shape=x.shape,
            _out_hw=(out_h, out_w),
        )
        out = cols.max(axis=1)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k, s = self.kernel_size, self.stride
        out_h, out_w = self._out_hw
        grad_rows = grad_out.reshape(n * c * out_h * out_w)
        grad_cols = np.zeros((grad_rows.shape[0], k * k), dtype=grad_out.dtype)
        grad_cols[np.arange(grad_rows.shape[0]), self._argmax] = grad_rows
        from .functional import col2im

        grad_x = col2im(grad_cols, (n * c, 1, h, w), k, s, 0)
        return grad_x.reshape(n, c, h, w)


class AvgPool2d(Module):
    """Average pooling with square non-overlapping-friendly windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        cols, _, _ = im2col(x.reshape(n * c, 1, h, w), k, s, 0)
        self.save_for_backward(_x_shape=x.shape, _out_hw=(out_h, out_w))
        return cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k, s = self.kernel_size, self.stride
        grad_rows = grad_out.reshape(-1, 1) / (k * k)
        grad_cols = np.broadcast_to(grad_rows, (grad_rows.shape[0], k * k))
        from .functional import col2im

        grad_x = col2im(np.ascontiguousarray(grad_cols), (n * c, 1, h, w), k, s, 0)
        return grad_x.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Mean over the spatial axes: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.save_for_backward(_x_shape=x.shape)
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), self._x_shape
        ).copy()


class Flatten(Module):
    """Flatten all axes but the batch axis."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.save_for_backward(_x_shape=x.shape)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)
