"""2-D convolution layer: NHWC shift-accumulate over the padded input.

The input is zero-padded once into NHWC memory, split into its stride
phases and flattened to rows of ``C`` channels.  Every kernel tap then
reads one contiguous row range of one phase, so the convolution is a sum
of ``k*k`` matmuls ``rows @ W[:, :, i, j].T`` with no patch matrix.  The
output is computed on the phase grid and cropped to its valid pixels.
Backward reuses the same row ranges for the weight gradient and
scatter-adds the input gradient tap by tap.  The layer caches only the
padded input.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..seeding import resolve_rng
from . import init
from .functional import conv_output_size
from .module import Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution over NCHW tensors.

    Only square kernels are supported — every network in the paper
    (CIFAR-style ResNets) uses 3x3 and 1x1 kernels.  Outputs and input
    gradients are NCHW views of NHWC memory, which the next layer's
    transpose to NHWC gets for free.

    Parameters
    ----------
    in_channels, out_channels:
        Channel widths.
    kernel_size:
        Square kernel side.
    stride, padding:
        Spatial stride and symmetric zero padding.
    bias:
        Whether to learn a per-output-channel bias.  ResNets disable it
        because BatchNorm follows each conv.
    rng:
        Generator used for weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("channels, kernel_size and stride must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        rng = resolve_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        #: Padded input split into stride phases, ``(m, m, N*Hq*Wq, C)``.
        self._phases: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def _tap_plan(self, n: int, h: int, w: int) -> tuple:
        """``(Hq, Wq, rows, taps)`` for an ``(n, C, h, w)`` input.

        Each stride phase is an ``Hq x Wq`` grid: the padded size over the
        stride, rounded up.  Padded pixel ``(s*y + i, s*x + j)`` sits in
        phase ``(i % s, j % s)`` at phase pixel ``(y + i // s, x + j // s)``,
        so tap ``(i, j)`` reads the flat phase row ``offset`` rows after
        output pixel ``(y, x)``'s row.  ``taps`` lists ``(i, j, phase_row,
        phase_col, offset)``; every valid output pixel lies in the first
        ``rows`` rows, ``N*Hq*Wq`` minus the largest offset.
        """
        k, s, p = self.kernel_size, self.stride, self.padding
        hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
        taps = [
            (i, j, i % s, j % s, (i // s) * wq + j // s)
            for i in range(k)
            for j in range(k)
        ]
        return hq, wq, n * hq * wq - taps[-1][4], taps

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        k, s, p, oc = self.kernel_size, self.stride, self.padding, self.out_channels
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        hq, wq, rows, taps = self._tap_plan(n, h, w)
        dtype = np.result_type(x.dtype, self.weight.data.dtype)
        # Zero-pad into NHWC memory rounded up to whole stride cells and
        # keep the phases the taps read: phase (a, b) holds the padded
        # pixels (s*y + a, s*x + b).  At stride 1 it is the padded input.
        m = min(k, s)
        padded = np.zeros((n, hq * s, wq * s, c), dtype=dtype)
        padded[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
        phases = padded.reshape(n, hq, s, wq, s, c)[:, :, :m, :, :m]
        phases = np.ascontiguousarray(phases.transpose(2, 4, 0, 1, 3, 5))
        phases = phases.reshape(m, m, n * hq * wq, c)
        self._phases = phases
        self._x_shape = x.shape

        w_taps = np.ascontiguousarray(self.weight.data.transpose(2, 3, 1, 0))
        out = np.empty((n * hq * wq, oc), dtype=dtype)
        acc = out[:rows]
        (i, j, a, b, off), rest = taps[0], taps[1:]
        np.matmul(phases[a, b, off : off + rows], w_taps[i, j], out=acc)
        tmp = np.empty_like(acc)
        for i, j, a, b, off in rest:
            np.matmul(phases[a, b, off : off + rows], w_taps[i, j], out=tmp)
            acc += tmp
        # Crop to the valid pixels in one compact copy, adding the bias.
        out = out.reshape(n, hq, wq, oc)[:, :out_h, :out_w]
        if self.bias is not None:
            out = out + self.bias.data
        else:
            out = np.ascontiguousarray(out)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._phases is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        phases = self._phases
        n, c, h, w = self._x_shape
        oc = self.out_channels
        out_h, out_w = grad_out.shape[2:]
        hq, wq, rows, taps = self._tap_plan(n, h, w)
        grid = np.zeros((n, hq, wq, oc), dtype=phases.dtype)
        grid[:, :out_h, :out_w] = grad_out.transpose(0, 2, 3, 1)
        grad_rows = grid.reshape(n * hq * wq, oc)[:rows]
        w_taps = np.ascontiguousarray(self.weight.data.transpose(2, 3, 0, 1))
        grad_w = np.empty_like(self.weight.data)
        grad_phases = np.zeros_like(phases)
        tmp = np.empty((rows, c), dtype=phases.dtype)
        for i, j, a, b, off in taps:
            grad_w[:, :, i, j] = grad_rows.T @ phases[a, b, off : off + rows]
            np.matmul(grad_rows, w_taps[i, j], out=tmp)
            grad_phases[a, b, off : off + rows] += tmp
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3))

        # Undo the phase split and crop the padding.
        m = phases.shape[0]
        s, p = self.stride, self.padding
        grad_x = np.zeros((n, hq, s, wq, s, c), dtype=phases.dtype)
        grad_x[:, :, :m, :, :m] = grad_phases.reshape(m, m, n, hq, wq, c).transpose(
            2, 3, 0, 4, 1, 5
        )
        grad_x = grad_x.reshape(n, hq * s, wq * s, c)[:, p : p + h, p : p + w]
        return grad_x.transpose(0, 3, 1, 2)
