"""In-memory span tracer and the wrappers the benchmark puts around
``repro``'s public functions and methods.

Spans are recorded by wrappers installed from the benchmark's own code;
nothing inside ``src/`` is instrumented.  Spans stay in memory and are
written out once, as Chrome trace-event JSON, when the run ends.

Wrappers record only in the process that installed them: a forked
``repro.parallel`` worker inherits the patched classes but its tracer is
switched off at fork, so pool workers run untraced and their time is
seen from the parent through the ``parallel.map`` span.

The generic part (spans, self time, export) needs only the standard
library; :func:`install_layer_spans` imports ``repro`` when called.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Name of the span that brackets one traced unit of a workload.  Its
#: self time is the part of the unit no layer span covers.
ROOT = "bench.unit"

#: Marks an attribute that was inherited, not set on the patched object.
_MISSING = object()


class Span:
    """One recorded interval; ``parent`` is the index of the enclosing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(
        self, name: str, start: float, end: Optional[float], parent: int
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent before their union is
    taken, so overlapping or overhanging children never drive a self
    time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0 and span.end is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        if span.end is None:
            result.append(0.0)
            continue
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        result.append(max(span.duration - union_length(clipped), 0.0))
    return result


def descendants_of(spans: Sequence[Span], roots: Iterable[int]) -> List[int]:
    """Indices of ``roots`` and every span nested under them."""
    inside = set(roots)
    ordered = []
    for index, span in enumerate(spans):
        # Parents are always recorded before their children.
        if index in inside or span.parent in inside:
            inside.add(index)
            ordered.append(index)
    return ordered


class Tracer:
    """Records nested spans and plain counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.recording = True
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.recording = False

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), None, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` bracketed by a span; ``before(*args, **kwargs)`` may count."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return functools.update_wrapper(traced, fn)

    def wrap_iter(self, fn: Callable, name: str) -> Callable:
        """Wrap an ``__iter__``: each ``next()`` becomes one span."""
        tracer = self

        def traced_iter(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                if not tracer.recording:
                    yield from iterator
                    return
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        return functools.update_wrapper(traced_iter, fn)

    # -- patching ----------------------------------------------------------
    def patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``; :meth:`uninstall` puts the original back."""
        original = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_method(
        self, cls: type, attr: str, name: str, before: Optional[Callable] = None
    ) -> None:
        self.patch_attr(cls, attr, self.wrap(getattr(cls, attr), name, before))

    def patch_function(
        self, fn: Callable, name: str, before: Optional[Callable] = None
    ) -> None:
        """Wrap ``fn`` wherever a loaded ``repro`` module binds it by name."""
        wrapped = self.wrap(fn, name, before)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if vars(module).get(fn.__name__) is fn:
                self.patch_attr(module, fn.__name__, wrapped)
                bound += 1
        if not bound:
            raise RuntimeError(f"{fn.__module__}.{fn.__name__} is not bound")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- export ------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        pid = os.getpid()
        done = [span for span in self.spans if span.end is not None]
        origin = min((span.start for span in done), default=0.0)
        events = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": "perfbench"},
            }
        ]
        for span in done:
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "pid": pid,
                    "tid": 0,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}



def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from repro import nn
    from repro.core import evaluate, injector, training
    from repro.datasets.loader import DataLoader
    from repro.datasets.synthetic import SyntheticImageClassification
    from repro.experiments import runner
    from repro.models.resnet import BasicBlock, ResNet
    from repro.nn.cost import conv2d_output_shape
    from repro.parallel import ParallelMap
    from repro.pruning import magnitude_prune
    from repro.quantization import quantize_model_weights
    from repro.reram.faults import WeightSpaceFaultModel
    from repro.telemetry.run import TelemetryRun

    def conv_macs(layer, x, *_):
        n, c_out, out_h, out_w = conv2d_output_shape(layer, x.shape)
        tracer.count(
            "nn.conv2d.macs",
            n * c_out * out_h * out_w * layer.in_channels * layer.kernel_size**2,
        )

    def injected_weights(inj, *_):
        tracer.count("core.injector.weights", sum(p.data.size for _, p in inj._targets))

    def map_tasks(pmap, fn, tasks, broadcast=None):
        tracer.count("parallel.tasks", len(tasks))
        if broadcast is not None and pmap.workers > 1:
            import multiprocessing
            import pickle

            method = pmap.start_method or multiprocessing.get_start_method()
            if method != "fork":
                # Shipped once per worker through the pool initialiser.
                tracer.count(
                    "parallel.broadcast_bytes",
                    len(pickle.dumps(broadcast)) * pmap.workers,
                )

    layers = {
        "conv2d": (nn.Conv2d,),
        "batchnorm2d": (nn.BatchNorm2d,),
        "relu": (nn.ReLU,),
        "pool": (nn.GlobalAvgPool2d, nn.MaxPool2d, nn.AvgPool2d, nn.Flatten),
        "linear": (nn.Linear,),
        "container": (nn.Sequential, nn.Residual, nn.Identity, BasicBlock, ResNet),
    }
    for layer, classes in layers.items():
        for cls in classes:
            tracer.patch_method(
                cls,
                "forward",
                f"nn.{layer}.fwd",
                conv_macs if layer == "conv2d" else None,
            )
            tracer.patch_method(cls, "backward", f"nn.{layer}.bwd")
    tracer.patch_method(nn.CrossEntropyLoss, "__call__", "nn.loss")
    tracer.patch_method(nn.SGD, "step", "nn.optim.step")
    tracer.patch_method(
        WeightSpaceFaultModel, "apply_with_stats", "reram.fault_sample"
    )
    tracer.patch_method(
        injector.FaultInjector, "inject", "core.injector.inject", injected_weights
    )
    tracer.patch_method(injector.FaultInjector, "restore", "core.injector.restore")
    tracer.patch_function(evaluate.evaluate_accuracy, "core.evaluate.loop")
    tracer.patch_function(evaluate.evaluate_one_draw, "core.evaluate.draw")
    tracer.patch_function(evaluate.evaluate_defect_accuracy, "core.evaluate.defect")
    tracer.patch_method(training.Trainer, "fit", "core.training.fit")
    tracer.patch_method(training.Trainer, "_step", "core.training.step")
    tracer.patch_method(
        training.OneShotFaultTolerantTrainer, "_step", "core.training.step"
    )
    tracer.patch_attr(
        DataLoader,
        "__iter__",
        tracer.wrap_iter(DataLoader.__iter__, "datasets.batch"),
    )
    tracer.patch_method(SyntheticImageClassification, "splits", "datasets.synth")
    tracer.patch_method(ParallelMap, "map", "parallel.map", map_tasks)
    tracer.patch_function(runner.pretrain_model, "experiments.pretrain")
    tracer.patch_function(magnitude_prune, "experiments.prune")
    tracer.patch_function(runner.train_fault_tolerant, "experiments.ft_train")
    tracer.patch_function(quantize_model_weights, "experiments.quantize")
    tracer.patch_function(runner.run_pipeline_cell, "experiments.cell")
    tracer.patch_method(TelemetryRun, "close", "telemetry.close")
