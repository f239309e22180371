"""Inference-time fusion of conv → BatchNorm (→ ReLU) runs.

Under :func:`~repro.nn.no_grad` a container may run a ``Conv2d`` followed
by an eval-mode ``BatchNorm2d`` (and a ``ReLU``) as one conv pass whose
crop applies the BatchNorm affine and the clamp (the epilogue of
:class:`~repro.nn.Conv2d`).  Fusion calls the conv's ``forward`` and skips
the BatchNorm's and ReLU's ``__call__``, so it applies only to exactly
these classes with no forward hook.  A subclass, a replacement layer (an
analog conv from :func:`repro.reram.convert_to_analog`) or a hooked layer
runs on the plain path, so every hook still sees its layer's output.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .activations import ReLU
from .conv import Conv2d, Epilogue
from .module import Module, is_grad_enabled
from .norm import BatchNorm2d

__all__ = ["conv_epilogue", "conv_bn", "relu_inplace"]


def _bare(module: Optional[Module], cls: type) -> bool:
    """``module`` is exactly ``cls`` and has no forward hook."""
    return type(module) is cls and not module._forward_hooks


def conv_epilogue(
    conv: Module, bn: Module, after: Optional[Module] = None
) -> Optional[Epilogue]:
    """The epilogue that fuses ``bn`` into ``conv``, or ``None``.

    ``None`` unless :func:`~repro.nn.no_grad` is active, ``conv`` and
    ``bn`` are a bare ``Conv2d`` and ``BatchNorm2d`` of the same width and
    ``bn`` is in eval mode (otherwise the layers run, and check, their own
    forwards).  The epilogue's ReLU flag says whether ``after`` (the module
    that follows ``bn``, if any) is a bare ``ReLU`` fused as well.  The
    fused modules' forwards do not run, so their backward state from an
    earlier forward is cleared here.
    """
    if (
        is_grad_enabled()
        or not (_bare(conv, Conv2d) and _bare(bn, BatchNorm2d))
        or bn.training
        or bn.num_features != conv.out_channels
    ):
        return None
    bn.save_for_backward(_cache=None)
    relu = _bare(after, ReLU)
    if relu:
        after.save_for_backward(_mask=None)
    _, scale, shift = bn.eval_affine()
    return scale, shift, relu


def conv_bn(
    x: np.ndarray, conv: Module, bn: Module, relu: Optional[Module] = None
) -> np.ndarray:
    """``relu(bn(conv(x)))`` (without ``relu`` when it is ``None``).

    One fused conv pass where :func:`conv_epilogue` allows it, the three
    modules' own calls otherwise.
    """
    epilogue = conv_epilogue(conv, bn, relu)
    if epilogue is None:
        x = bn(conv(x))
    else:
        x = conv.forward(x, epilogue)
        if epilogue[2]:
            return x
    return x if relu is None else relu(x)


def relu_inplace(x: np.ndarray, relu: Module) -> np.ndarray:
    """``relu(x)``, clamped in place under :func:`~repro.nn.no_grad`.

    ``x`` must be a fresh array nothing else refers to, such as a
    residual sum.  A hooked or non-``ReLU`` module is called as usual.
    """
    if not is_grad_enabled() and _bare(relu, ReLU):
        relu.save_for_backward(_mask=None)
        return np.maximum(x, 0, out=x)
    return relu(x)
