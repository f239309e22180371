"""Elementwise activation layers."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..seeding import resolve_rng
from .module import Module

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Identity", "Dropout"]


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self.save_for_backward(_mask=mask)
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self.save_for_backward(_mask=mask)
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, self.negative_slope * grad_out)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        self.save_for_backward(_out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-x))
        self.save_for_backward(_out=out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


class Identity(Module):
    """Pass-through layer (used for absent residual downsampling)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Dropout(Module):
    """Inverted dropout: active in train mode, identity in eval mode.

    The mask generator is owned by the layer so behaviour is reproducible
    when a seeded ``rng`` is supplied.
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = resolve_rng(rng)
        # 1.0 after an identity (eval or p=0) forward.
        self._mask: Optional[Union[np.ndarray, float]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self.save_for_backward(_mask=1.0)
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        self.save_for_backward(_mask=mask)
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask
