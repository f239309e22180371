"""Fully connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..seeding import resolve_rng
from . import init
from .module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to learn an additive bias (default ``True``).
    rng:
        Generator used for weight init; a fresh default generator is used
        when omitted (convenient, but pass one for reproducibility).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = resolve_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (N, {self.in_features}), got {x.shape}"
            )
        self.save_for_backward(_input=x)
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += grad_out.T @ self._input
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data
