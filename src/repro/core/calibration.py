"""Post-deployment BatchNorm recalibration.

When stuck-at faults perturb the weights, every layer's activation
statistics shift — but the BatchNorm running means/variances were
estimated on the *fault-free* network, so normalisation is doubly wrong.
Re-estimating the BN statistics on the deployed (faulty) weights needs
only unlabelled forward passes — no gradients, no labels, no retraining —
and recovers part of the lost accuracy.

This composes with the paper's stochastic fault-tolerant training (the
recalibration is per-device but nearly free: a march-test-style forward
sweep at power-on).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..datasets.loader import DataLoader

__all__ = ["recalibrate_batchnorm"]


def recalibrate_batchnorm(
    model: nn.Module,
    loader: DataLoader,
    num_batches: Optional[int] = None,
    momentum: Optional[float] = 0.1,
) -> int:
    """Re-estimate all BatchNorm running statistics by forward passes.

    Runs the model in train mode (statistics update) under
    :func:`repro.nn.no_grad`, so no layer keeps a backward cache, and
    restores the original training flag afterwards; parameters are never
    touched.

    Parameters
    ----------
    model:
        Network whose BN buffers should be refreshed (typically with
        faulty weights already loaded).
    loader:
        Unlabelled calibration data (labels are ignored).
    num_batches:
        Stop after this many batches (``None`` = one full epoch).
    momentum:
        Temporary BN momentum during calibration; higher values adapt
        faster with few batches.  ``None`` keeps each layer's own value.

    Returns the number of batches consumed.
    """
    bn_layers = [
        m
        for m in model.modules()
        if isinstance(m, (nn.BatchNorm1d, nn.BatchNorm2d))
    ]
    if not bn_layers:
        return 0
    was_training = model.training
    saved_momentum = [layer.momentum for layer in bn_layers]
    if momentum is not None:
        for layer in bn_layers:
            layer.momentum = momentum
    model.train()
    consumed = 0
    try:
        with nn.no_grad():
            for images, _ in loader:
                model(images)
                consumed += 1
                if num_batches is not None and consumed >= num_batches:
                    break
    finally:
        for layer, m in zip(bn_layers, saved_momentum):
            layer.momentum = m
        model.train(was_training)
    return consumed
