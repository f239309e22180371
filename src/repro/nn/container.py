"""Composite modules: Sequential chains and residual plumbing."""

from __future__ import annotations

from typing import List

import numpy as np

from .fusion import conv_epilogue
from .module import Module

__all__ = ["Sequential", "Residual"]


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def append(self, layer: Module) -> "Sequential":
        """Add a layer at the end of the chain; returns self."""
        setattr(self, f"layer{len(self._layers)}", layer)
        self._layers.append(layer)
        return self

    def replace(self, index: int, layer: Module) -> None:
        """Swap the layer at ``index`` (used by deployment rewriters)."""
        if not 0 <= index < len(self._layers):
            raise IndexError(f"no layer at index {index}")
        setattr(self, f"layer{index}", layer)
        self._layers[index] = layer

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]

    def __iter__(self):
        return iter(self._layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        layers = self._layers
        i = 0
        while i < len(layers):
            # Under no_grad() a Conv2d → BatchNorm2d (→ ReLU) run is one pass.
            run = layers[i : i + 3]
            epilogue = conv_epilogue(*run) if len(run) > 1 else None
            if epilogue is None:
                x = layers[i](x)
                i += 1
            else:
                x = layers[i].forward(x, epilogue)
                i += 3 if epilogue[2] else 2
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self._layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class Residual(Module):
    """Generic residual wrapper: ``y = body(x) + shortcut(x)``.

    Both branches are modules; the shortcut defaults to identity.  The
    backward pass sums the gradients flowing through both branches — exactly
    the structure of a ResNet basic block's skip connection.
    """

    def __init__(self, body: Module, shortcut: Module) -> None:
        super().__init__()
        self.body = body
        self.shortcut = shortcut

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.body(x) + self.shortcut(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.body.backward(grad_out) + self.shortcut.backward(grad_out)
