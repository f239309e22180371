"""Activation-tap deviation probe: how a fault pattern propagates.

:class:`DeviationProbe` answers the question ``layer_sensitivity`` cannot:
*where* in the network a stuck-at pattern starts to matter.  It taps every
leaf module with a forward hook, runs the clean and the faulted weights
over the same batches, and accumulates per-layer deviation statistics
(relative L2, cosine similarity, SNR, fraction of elements perturbed)
plus a *first-divergence attribution* for every prediction flip: the
earliest layer (in forward order) whose per-sample relative deviation
crosses :attr:`ForensicsConfig.threshold`.

Determinism contract: the probe's faulted accuracy is bit-identical to
:func:`repro.core.evaluate.evaluate_one_draw` for the same fault draw
(the faulted weights, eval-mode forward and integer-count accuracy are
the same), and the raw accumulator sums are a deterministic function of
the batch stream — with an order-deterministic loader (``shuffle=False``,
the library's test-set convention) payloads are bit-identical at any
worker count.  A shuffled loader is flagged once per run via a
``forensics_shuffled_loader`` event rather than silently degrading the
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import nn
from ..datasets.loader import DataLoader
from ..telemetry import current as _telemetry
from .aggregate import LAYER_SUM_FIELDS, finalize_layer

__all__ = ["ForensicsConfig", "DeviationProbe", "named_leaf_modules"]

#: Per-sample clean norms below this are treated as zero signal.
_TINY = 1e-30


@dataclass(frozen=True)
class ForensicsConfig:
    """Knobs of the deviation probe (picklable; rides Broadcast contexts).

    Parameters
    ----------
    threshold:
        Per-sample relative deviation above which a layer counts as
        "diverged" for first-divergence attribution.
    tol:
        Absolute elementwise ``|faulted - clean|`` above which an
        activation element counts as perturbed.
    """

    threshold: float = 0.05
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


def named_leaf_modules(model: nn.Module) -> List[Tuple[str, nn.Module]]:
    """``(dotted_name, module)`` for every leaf, in forward (registration) order.

    Mirrors the naming of :func:`repro.telemetry.timing.named_modules`;
    a childless root is named ``"(root)"``.
    """
    leaves: List[Tuple[str, nn.Module]] = []

    def walk(module: nn.Module, prefix: str) -> None:
        children = getattr(module, "_modules", {})
        if not children:
            leaves.append((prefix if prefix else "(root)", module))
            return
        for name, child in children.items():
            walk(child, f"{prefix}.{name}" if prefix else name)

    walk(model, "")
    return leaves


class _LayerSums:
    """Streaming raw accumulators for one tapped layer."""

    __slots__ = tuple(LAYER_SUM_FIELDS)

    def __init__(self) -> None:
        self.sum_sq_dev = 0.0
        self.sum_sq_clean = 0.0
        self.sum_dot = 0.0
        self.sum_sq_fault = 0.0
        self.perturbed = 0
        self.elements = 0
        self.first_divergence = 0

    def as_dict(self) -> Dict[str, float]:
        return {key: getattr(self, key) for key in LAYER_SUM_FIELDS}


class DeviationProbe:
    """Clean-vs-faulted comparison over one pass of a loader.

    Parameters
    ----------
    model:
        The network under test; left exactly as found (weights, training
        mode, hooks).
    config:
        Probe thresholds; defaults to :class:`ForensicsConfig`.
    """

    def __init__(
        self, model: nn.Module, config: Optional[ForensicsConfig] = None
    ) -> None:
        self.model = model
        self.config = config or ForensicsConfig()
        self.layers = named_leaf_modules(model)

    def compare(
        self, loader: DataLoader, faulted: Mapping[str, np.ndarray]
    ) -> Tuple[float, Dict[str, object]]:
        """Run clean and faulted forwards batch by batch.

        ``faulted`` maps dotted parameter names to replacement values (a
        whole-model fault draw, or a single tensor for per-layer
        sensitivity forensics).  Returns ``(faulted_accuracy, payload)``
        where the payload carries raw per-layer accumulator sums, the
        derived deviation metrics for this draw, and the first-divergence
        counts over prediction flips.

        The faulted accuracy is computed from the same logits and integer
        counts as :func:`~repro.core.evaluate.evaluate_accuracy` on the
        faulted model, so enabling forensics never changes the reported
        accuracy numbers.
        """
        params = dict(self.model.named_parameters())
        swaps: List[Tuple[nn.Parameter, np.ndarray, np.ndarray]] = []
        for name, value in faulted.items():
            if name not in params:
                raise KeyError(f"model has no parameter {name!r}")
            param = params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"model {param.data.shape}, faulted {value.shape}"
                )
            swaps.append((param, param.data.copy(), value))
        if getattr(loader, "shuffle", False):
            telemetry = _telemetry()
            if telemetry.once("forensics_shuffled_loader"):
                telemetry.emit(
                    "forensics_shuffled_loader",
                    note=(
                        "deviation sums depend on batch order; cross-worker "
                        "bit-identity needs shuffle=False"
                    ),
                )
        sums = {name: _LayerSums() for name, _ in self.layers}
        captured: Dict[int, np.ndarray] = {}
        handles = []
        for index, (_, module) in enumerate(self.layers):
            handles.append(
                module.register_forward_hook(
                    lambda mod, x, out, __i=index: captured.__setitem__(__i, out)
                )
            )
        was_training = self.model.training
        self.model.eval()
        correct = 0
        total = 0
        flipped = 0
        undiverged = 0
        cfg = self.config
        try:
            for images, labels in loader:
                captured.clear()
                with nn.no_grad():
                    clean_logits = self.model(images)
                clean_acts = dict(captured)
                for param, _, value in swaps:
                    # Probe-owned swap; pristine values restored below.
                    param.data[...] = value  # repro-lint: disable=RL006
                try:
                    captured.clear()
                    with nn.no_grad():
                        faulted_logits = self.model(images)
                    fault_acts = dict(captured)
                finally:
                    for param, pristine, _ in swaps:
                        param.data[...] = pristine  # repro-lint: disable=RL006
                clean_pred = clean_logits.argmax(axis=1)
                faulted_pred = faulted_logits.argmax(axis=1)
                correct += int((faulted_pred == labels).sum())
                total += len(labels)
                batch = len(labels)
                # (layer, sample) per-sample relative deviation matrix for
                # first-divergence scanning.
                rel = np.zeros((len(self.layers), batch))
                seen = np.zeros(len(self.layers), dtype=bool)
                for index, (name, _) in enumerate(self.layers):
                    if index not in clean_acts or index not in fault_acts:
                        continue
                    clean = clean_acts[index]
                    fault = fault_acts[index]
                    delta = fault - clean
                    entry = sums[name]
                    entry.sum_sq_dev += float(np.sum(delta * delta))
                    entry.sum_sq_clean += float(np.sum(clean * clean))
                    entry.sum_dot += float(np.sum(clean * fault))
                    entry.sum_sq_fault += float(np.sum(fault * fault))
                    entry.perturbed += int((np.abs(delta) > cfg.tol).sum())
                    entry.elements += delta.size
                    if clean.shape[0] == batch:
                        # axis=() (1-D outputs) is the identity reduction:
                        # the per-sample "norm" is just |delta| elementwise.
                        axes = tuple(range(1, delta.ndim))
                        dev_norm = np.sqrt(np.sum(delta * delta, axis=axes))
                        clean_norm = np.sqrt(np.sum(clean * clean, axis=axes))
                        rel[index] = dev_norm / np.maximum(clean_norm, _TINY)
                        seen[index] = True
                flips = np.flatnonzero(faulted_pred != clean_pred)
                flipped += len(flips)
                if len(flips):
                    exceeded = (rel > cfg.threshold) & seen[:, None]
                    for sample in flips:
                        column = exceeded[:, sample]
                        if column.any():
                            index = int(np.argmax(column))
                            sums[self.layers[index][0]].first_divergence += 1
                        else:
                            undiverged += 1
        finally:
            for handle in handles:
                handle.remove()
            self.model.train(was_training)
        if total == 0:
            raise ValueError("loader yielded no samples")
        accuracy = 100.0 * correct / total
        payload: Dict[str, object] = {
            "num_samples": total,
            "num_flipped": flipped,
            "undiverged_flips": undiverged,
            "accuracy": accuracy,
            "layers": [
                dict(finalize_layer(sums[name].as_dict()), layer=name)
                for name, _ in self.layers
            ],
        }
        return accuracy, payload
