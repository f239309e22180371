"""Per-layer fault-sensitivity analysis.

A diagnostic tool on top of the paper's fault model: inject stuck-at
faults into *one* crossbar-resident tensor at a time and measure the
accuracy drop.  This tells a system designer which layers dominate the
stability problem — e.g. whether to spend redundant columns (a baseline
the paper discusses) on the first conv or on the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from .. import nn
from ..datasets.loader import DataLoader
from ..forensics import DeviationProbe, ForensicsConfig
from ..forensics.aggregate import aggregate_payloads
from ..parallel import Broadcast, ModelBroadcast, ParallelMap
from ..reram.deploy import crossbar_parameters
from ..reram.faults import WeightSpaceFaultModel
from ..telemetry import current as _telemetry
from .evaluate import evaluate_accuracy

__all__ = ["LayerSensitivity", "layer_sensitivity"]


@dataclass
class LayerSensitivity:
    """Sensitivity of one tensor: accuracy when only it is faulted.

    ``std_accuracy`` is the spread over the ``num_runs`` Monte Carlo
    draws behind ``mean_accuracy`` — two layers with the same mean drop
    but very different stds call for different mitigation budgets.
    """

    name: str
    num_weights: int
    mean_accuracy: float
    accuracy_drop: float
    std_accuracy: float = 0.0
    num_runs: int = 0


def _layer_draw_task(task: tuple, context: Dict[str, Any]) -> tuple:
    """One (layer, run) cell of the sensitivity sweep; the tensor is restored.

    ``task`` is ``((name, run), draw_seed, seed_stream)``.  The cell
    faults tensor ``name`` alone.  With ``context["forensics"]`` set, the
    same ``fault_model.apply`` draw is replayed through a
    :class:`~repro.forensics.DeviationProbe` instead of mutating the
    weights: the accuracy is bit-identical to the plain cell, and the
    payload traces how the one faulted tensor's error propagates
    through the *other* layers.  Returns ``(accuracy, payload)``, with
    ``payload=None`` without forensics.
    """
    (name, draw), _, seed_stream = task
    model = context["model"]
    fault_model = context["fault_model"]
    p_sa = context["p_sa"]
    param = dict(crossbar_parameters(model))[name]
    pristine = param.data.copy()
    rng = np.random.default_rng(seed_stream)
    if context["forensics"] is None:
        param.data[...] = fault_model.apply(pristine, p_sa, rng)
        try:
            return evaluate_accuracy(model, context["loader"]), None
        finally:
            param.data[...] = pristine
    probe = DeviationProbe(model, context["forensics"])
    accuracy, payload = probe.compare(
        context["loader"], {name: fault_model.apply(pristine, p_sa, rng)}
    )
    telemetry = _telemetry()
    telemetry.metrics.counter("forensics/draws_total").inc()
    telemetry.metrics.counter("forensics/prediction_flips_total").inc(
        int(payload["num_flipped"])
    )
    telemetry.emit(
        "forensics_draw",
        p_sa=p_sa,
        target=name,
        draw=draw,
        **payload,
    )
    return accuracy, payload


def layer_sensitivity(
    model: nn.Module,
    loader: DataLoader,
    p_sa: float,
    num_runs: int = 10,
    rng: Optional[np.random.Generator] = None,
    fault_model: Optional[WeightSpaceFaultModel] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    forensics: Optional[ForensicsConfig] = None,
) -> List[LayerSensitivity]:
    """Fault each crossbar-resident tensor in isolation.

    Returns one :class:`LayerSensitivity` per tensor, sorted most
    sensitive first.  The model is left untouched.

    Seeding follows the library's Monte Carlo contract: a live ``rng``
    shares one stream across every (layer, run) cell in sweep order and
    always runs serial; a ``seed`` gives cell ``(i, j)`` the independent
    stream behind ``seed + i*num_runs + j``, which ``workers`` can then
    evaluate on a ``repro.parallel`` pool with bit-identical results at
    any worker count.  With neither, a base seed is drawn from the
    process-wide policy stream.

    ``forensics`` replays every (layer, run) cell through a
    :class:`~repro.forensics.DeviationProbe`: one ``forensics_draw``
    event per cell (tagged ``target=<faulted tensor>``) and one
    draw-order-aggregated ``forensics_eval`` event per target layer,
    tracing how each tensor's faults propagate through the rest of the
    network.  Accuracy numbers are unchanged.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    if rng is not None and seed is not None:
        raise ValueError("pass either rng or seed, not both")
    fault_model = fault_model or WeightSpaceFaultModel()
    targets = crossbar_parameters(model)
    clean = evaluate_accuracy(model, loader)
    cells, _ = ParallelMap(workers).map_draws(
        _layer_draw_task,
        [(name, j) for name, _ in targets for j in range(num_runs)],
        Broadcast(
            model=ModelBroadcast(model),
            loader=loader,
            fault_model=fault_model,
            p_sa=p_sa,
            forensics=forensics,
        ),
        rng=rng,
        seed=seed,
    )
    results: List[LayerSensitivity] = []
    for i, (name, param) in enumerate(targets):
        layer_cells = cells[i * num_runs : (i + 1) * num_runs]
        cell_accuracies = [accuracy for accuracy, _ in layer_cells]
        mean_acc = float(np.mean(cell_accuracies))
        results.append(
            LayerSensitivity(
                name=name,
                num_weights=param.size,
                mean_accuracy=mean_acc,
                accuracy_drop=clean - mean_acc,
                std_accuracy=float(np.std(cell_accuracies)),
                num_runs=num_runs,
            )
        )
        if forensics is not None:
            # Per-target fold in draw order: bit-identical at any worker
            # count, matching the defect-eval aggregation contract.
            aggregate = aggregate_payloads(
                [payload for _, payload in layer_cells]
            )
            aggregate["p_sa"] = p_sa
            aggregate["target"] = name
            _telemetry().emit("forensics_eval", **aggregate)
    results.sort(key=lambda s: s.accuracy_drop, reverse=True)
    return results
