"""Batch and group normalisation."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .module import Module, Parameter

__all__ = ["BatchNorm2d", "BatchNorm1d", "GroupNorm"]


class _BatchNorm(Module):
    """Shared machinery of 1-D/2-D batch norm.

    Normalises over all axes except the channel axis, learns per-channel
    ``gamma``/``beta``, and maintains running statistics for eval mode.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._cache: Optional[tuple] = None

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        raise NotImplementedError

    def _channel_shape(self, x: np.ndarray) -> tuple:
        raise NotImplementedError

    def eval_affine(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-channel ``(inv_std, scale, shift)`` of the eval-mode forward."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data * inv_std
        return inv_std, scale, self.beta.data - self.running_mean * scale

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._reduce_axes(x)
        shape = self._channel_shape(x)
        if not self.training:
            # One fused per-channel affine on the running statistics; the
            # output keeps the input's memory layout.
            inv_std, scale, shift = self.eval_affine()
            self.save_for_backward(
                _cache=(x, inv_std, axes, shape, self.running_mean)
            )
            out = x * scale.reshape(shape)
            out += shift.reshape(shape)
            return out
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        m = float(np.prod([x.shape[a] for a in axes]))
        # Running var uses the unbiased estimator, as in PyTorch.
        unbiased = var * m / max(m - 1.0, 1.0)
        self.set_buffer(
            "running_mean",
            (1 - self.momentum) * self.running_mean + self.momentum * mean,
        )
        self.set_buffer(
            "running_var",
            (1 - self.momentum) * self.running_var + self.momentum * unbiased,
        )
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        self.save_for_backward(_cache=(x_hat, inv_std, axes, shape, None))
        return self.gamma.data.reshape(shape) * x_hat + self.beta.data.reshape(shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cached, inv_std, axes, shape, eval_mean = self._cache
        x_hat = cached
        if eval_mean is not None:
            # Eval mode cached its input; mean/var are constants.
            x_hat = (cached - eval_mean.reshape(shape)) * inv_std.reshape(shape)
        self.gamma.grad += (grad_out * x_hat).sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        grad_xhat = grad_out * self.gamma.data.reshape(shape)
        if eval_mean is not None:
            return grad_xhat * inv_std.reshape(shape)
        m = float(np.prod([grad_out.shape[a] for a in axes]))
        sum_g = grad_xhat.sum(axis=axes).reshape(shape)
        sum_gx = (grad_xhat * x_hat).sum(axis=axes).reshape(shape)
        return (inv_std.reshape(shape) / m) * (
            m * grad_xhat - sum_g - x_hat * sum_gx
        )


class BatchNorm2d(_BatchNorm):
    """Batch norm over NCHW tensors (per-channel statistics)."""

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input (N, {self.num_features}, H, W), got {x.shape}"
            )
        return (0, 2, 3)

    def _channel_shape(self, x: np.ndarray) -> tuple:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch norm over (N, C) feature matrices."""

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input (N, {self.num_features}), got {x.shape}"
            )
        return (0,)

    def _channel_shape(self, x: np.ndarray) -> tuple:
        return (1, self.num_features)


class GroupNorm(Module):
    """Group normalisation over NCHW tensors (Wu & He, 2018).

    Normalises each sample's channels in ``num_groups`` groups, with no
    dependence on batch statistics — attractive for edge deployment,
    where BatchNorm's running statistics go stale the moment the
    crossbar weights drift or fault (see
    :func:`repro.core.recalibrate_batchnorm`).  Behaviour is identical in
    train and eval mode.
    """

    def __init__(
        self, num_groups: int, num_channels: int, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if num_groups < 1 or num_channels < 1:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels {num_channels} not divisible by "
                f"num_groups {num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels))
        self.beta = Parameter(np.zeros(num_channels))
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"expected input (N, {self.num_channels}, H, W), "
                f"got {x.shape}"
            )
        n, c, h, w = x.shape
        g = self.num_groups
        grouped = x.reshape(n, g, c // g * h * w)
        mean = grouped.mean(axis=2, keepdims=True)
        var = grouped.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(n, c, h, w)
        self.save_for_backward(_cache=(x_hat, inv_std, (n, c, h, w)))
        return (
            self.gamma.data.reshape(1, c, 1, 1) * x_hat
            + self.beta.data.reshape(1, c, 1, 1)
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, (n, c, h, w) = self._cache
        g = self.num_groups
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        grad_xhat = grad_out * self.gamma.data.reshape(1, c, 1, 1)
        grouped_g = grad_xhat.reshape(n, g, c // g * h * w)
        grouped_x = x_hat.reshape(n, g, c // g * h * w)
        m = grouped_g.shape[2]
        sum_g = grouped_g.sum(axis=2, keepdims=True)
        sum_gx = (grouped_g * grouped_x).sum(axis=2, keepdims=True)
        grad_grouped = (inv_std / m) * (
            m * grouped_g - sum_g - grouped_x * sum_gx
        )
        return grad_grouped.reshape(n, c, h, w)
