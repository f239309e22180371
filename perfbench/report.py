"""Metric derivation and printed tables (stdlib only).

End-to-end metrics come from untraced units; per-layer metrics from the
spans of traced units.  Layer times and call counts are means per traced
unit, so they read against that unit's ``wall_s``; the sample counts
behind a percentile (``core.evaluate.draws``, ``core.training.steps``)
are totals over the traced units.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from typing import Dict, List, Sequence, Tuple

from stats import percentile, tail_percentile
from tracer import ROOT, Span, descendants_of, self_times

#: ``(name, unit, better)`` of every end-to-end metric, as in BENCHMARK.json.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("draws_per_s", "1/s", "higher"),
    ("samples_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("cpu_s", "s", "lower"),
)

_LAYERS = ("conv2d", "batchnorm2d", "relu", "pool", "linear")

#: ``(name, unit, better)`` of every per-layer metric, as in BENCHMARK.json.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"nn.{layer}.fwd_s", "s", "lower") for layer in _LAYERS),
    ("nn.container.self_s", "s", "lower"),
    ("nn.conv2d.calls", "count", "lower"),
    ("nn.conv2d.gmacs_per_s", "GMAC/s", "higher"),
    *((f"nn.{layer}.bwd_s", "s", "lower") for layer in _LAYERS),
    ("nn.retained_mb", "MiB", "lower"),
    ("reram.fault_sample_s", "s", "lower"),
    ("core.injector.inject_s", "s", "lower"),
    ("core.injector.restore_s", "s", "lower"),
    ("core.injector.calls", "count", "lower"),
    ("core.injector.weights_per_call", "count", "lower"),
    ("core.evaluate.draw_ms_p50", "ms", "lower"),
    ("core.evaluate.draw_ms_tail", "ms", "lower"),
    ("core.evaluate.draw_ms_tail_pct", "%", "higher"),
    ("core.evaluate.draws", "count", "higher"),
    ("core.evaluate.loop_self_s", "s", "lower"),
    ("core.training.step_ms_p50", "ms", "lower"),
    ("core.training.step_ms_tail", "ms", "lower"),
    ("core.training.step_ms_tail_pct", "%", "higher"),
    ("core.training.steps", "count", "higher"),
    ("core.training.forward_s", "s", "lower"),
    ("core.training.backward_s", "s", "lower"),
    ("core.training.loss_s", "s", "lower"),
    ("nn.optim.step_s", "s", "lower"),
    ("datasets.synth_s", "s", "lower"),
    ("datasets.batch_wait_s", "s", "lower"),
    ("parallel.map_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.broadcast_bytes", "bytes", "lower"),
    ("parallel.children_cpu_s", "s", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.fallbacks", "count", "lower"),
    ("experiments.pretrain_s", "s", "lower"),
    ("experiments.prune_s", "s", "lower"),
    ("experiments.ft_train_s", "s", "lower"),
    ("experiments.quantize_s", "s", "lower"),
    ("experiments.defect_eval_s", "s", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.bytes", "bytes", "lower"),
    ("telemetry.session_close_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def warm(units: Sequence[dict]) -> List[dict]:
    """Completed units, without the run's first unit when others completed.

    The first unit pays first-touch page faults and cold caches once per
    process; the units after it show the steady per-unit cost.
    """
    done = [u for u in units if u["error"] is None]
    if len(done) > 1 and done[0] is units[0]:
        return done[1:]
    return done


def end_to_end(untraced: Sequence[dict]) -> Dict[str, float]:
    """Medians over the warm untraced units (``setup_s`` and
    ``peak_rss_mb`` are measured by the parent)."""
    done = warm(untraced)
    if not done:
        raise ValueError("no unit completed")
    return {
        "wall_s": median([u["wall"] for u in done]),
        "draws_per_s": median([u["draws"] / u["draws_s"] for u in done]),
        "samples_per_s": median([u["samples"] / u["samples_s"] for u in done]),
        "cpu_s": median([u["cpu_self"] + u["cpu_children"] for u in done]),
    }


class LayerTable:
    """Self time and calls per span name over the traced units.

    The rows partition each traced unit: the self times of every span
    inside the unit, plus the root's own self time (``unattributed``),
    add up to the unit's wall time.
    """

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self.selfs = self_times(spans)
        self.roots = [i for i, span in enumerate(spans) if span.name == ROOT]
        self.units = len(self.roots)
        inside = descendants_of(spans, self.roots)
        self.inside = set(inside)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        for index in inside:
            name = spans[index].name
            self.self_s[name] += self.selfs[index]
            self.incl_s[name] += spans[index].duration
            self.calls[name] += 1
        self.wall_s = sum(spans[i].duration for i in self.roots)

    def per_unit(self, total: float) -> float:
        return total / self.units if self.units else 0.0

    def durations(self, name: str) -> List[float]:
        return [
            self.spans[i].duration for i in sorted(self.inside) if self.spans[i].name == name
        ]

    def inclusive_under(self, name: str, parent: str) -> float:
        """Inclusive time of ``name`` spans whose direct parent is ``parent``."""
        return sum(
            self.spans[i].duration
            for i in self.inside
            if self.spans[i].name == name
            and self.spans[i].parent >= 0
            and self.spans[self.spans[i].parent].name == parent
        )

    def outside_total(self, name: str) -> float:
        """Inclusive time of ``name`` spans recorded outside any unit (set-up)."""
        return sum(
            span.duration
            for i, span in enumerate(self.spans)
            if span.name == name and i not in self.inside and span.end is not None
        )

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """``(layer, self_s, calls, share)`` per unit, largest first."""
        wall = self.per_unit(self.wall_s)
        rows = []
        for name in self.self_s:
            if name == ROOT or not self.calls[name]:
                continue
            self_s = self.per_unit(self.self_s[name])
            rows.append((name, self_s, self.per_unit(self.calls[name]), self_s / wall))
        rows.sort(key=lambda row: -row[1])
        unattributed = self.per_unit(self.self_s.get(ROOT, 0.0))
        rows.append(("unattributed", unattributed, 0.0, unattributed / wall))
        return rows


def per_layer(
    table: LayerTable,
    counters: Dict[str, float],
    traced: Sequence[dict],
    untraced: Sequence[dict],
    retained_bytes: int,
) -> Dict[str, float]:
    """Every per-layer metric; idle layers read 0."""
    unit = table.per_unit
    metrics: Dict[str, float] = {}
    for layer in _LAYERS:
        metrics[f"nn.{layer}.fwd_s"] = unit(table.self_s[f"nn.{layer}.fwd"])
        metrics[f"nn.{layer}.bwd_s"] = unit(table.self_s[f"nn.{layer}.bwd"])
    metrics["nn.container.self_s"] = unit(
        table.self_s["nn.container.fwd"] + table.self_s["nn.container.bwd"]
    )
    metrics["nn.conv2d.calls"] = unit(table.calls["nn.conv2d.fwd"])
    conv_s = table.self_s["nn.conv2d.fwd"]
    metrics["nn.conv2d.gmacs_per_s"] = (
        counters.get("nn.conv2d.macs", 0.0) / conv_s / 1e9 if conv_s else 0.0
    )
    metrics["nn.retained_mb"] = retained_bytes / 2**20
    metrics["reram.fault_sample_s"] = unit(table.self_s["reram.fault_sample"])
    metrics["core.injector.inject_s"] = unit(table.self_s["core.injector.inject"])
    metrics["core.injector.restore_s"] = unit(table.self_s["core.injector.restore"])
    injects = table.calls["core.injector.inject"]
    metrics["core.injector.calls"] = unit(injects)
    metrics["core.injector.weights_per_call"] = (
        counters.get("core.injector.weights", 0.0) / injects if injects else 0.0
    )
    for prefix, span, count in (
        ("core.evaluate.draw_ms", "core.evaluate.draw", "core.evaluate.draws"),
        ("core.training.step_ms", "core.training.step", "core.training.steps"),
    ):
        samples = [d * 1e3 for d in table.durations(span)]
        pct, tail, n = tail_percentile(samples)
        metrics[f"{prefix}_p50"] = percentile(samples, 50.0) if samples else 0.0
        metrics[f"{prefix}_tail"] = tail
        metrics[f"{prefix}_tail_pct"] = pct
        metrics[count] = n
    metrics["core.evaluate.loop_self_s"] = unit(table.self_s["core.evaluate.loop"])
    metrics["core.training.forward_s"] = unit(
        table.inclusive_under("nn.container.fwd", "core.training.step")
    )
    metrics["core.training.backward_s"] = unit(
        table.inclusive_under("nn.container.bwd", "core.training.step")
    )
    metrics["core.training.loss_s"] = unit(table.self_s["nn.loss"])
    metrics["nn.optim.step_s"] = unit(table.self_s["nn.optim.step"])
    metrics["datasets.synth_s"] = table.outside_total("datasets.synth") + unit(
        table.incl_s["datasets.synth"]
    )
    metrics["datasets.batch_wait_s"] = unit(table.self_s["datasets.batch"])
    metrics["parallel.map_s"] = unit(table.incl_s["parallel.map"])
    metrics["parallel.tasks"] = unit(counters.get("parallel.tasks", 0.0))
    metrics["parallel.broadcast_bytes"] = unit(
        counters.get("parallel.broadcast_bytes", 0.0)
    )
    done = [u for u in traced if u["error"] is None]

    def traced_mean(key: str) -> float:
        return sum(u.get(key, 0.0) for u in done) / len(done) if done else 0.0

    metrics["parallel.children_cpu_s"] = traced_mean("cpu_children")
    metrics["parallel.retries"] = traced_mean("retries")
    metrics["parallel.fallbacks"] = traced_mean("fallbacks")
    for stage, span in (
        ("pretrain", "experiments.pretrain"),
        ("prune", "experiments.prune"),
        ("ft_train", "experiments.ft_train"),
        ("quantize", "experiments.quantize"),
    ):
        metrics[f"experiments.{stage}_s"] = unit(table.incl_s[span])
    metrics["experiments.defect_eval_s"] = unit(
        table.inclusive_under("core.evaluate.defect", "experiments.cell")
    )
    metrics["telemetry.events"] = traced_mean("telemetry_events")
    metrics["telemetry.bytes"] = traced_mean("telemetry_bytes")
    metrics["telemetry.session_close_s"] = unit(table.incl_s["telemetry.close"])
    plain = [u["wall"] for u in warm(untraced)]
    metrics["trace.overhead_pct"] = (
        100.0 * (median([u["wall"] for u in done]) - median(plain)) / median(plain)
        if plain and done
        else 0.0
    )
    return metrics


def layer_lines(table: LayerTable, metrics: Dict[str, float]) -> List[str]:
    """The traced run's printed tables."""
    wall = table.per_unit(table.wall_s)
    lines = [
        f"per-layer self time, mean of {table.units} traced unit(s)",
        f"{'layer':32s} {'self_s':>10s} {'calls':>10s} {'share':>7s}",
    ]
    total = 0.0
    for name, self_s, calls, share in table.rows():
        total += self_s
        lines.append(f"{name:32s} {self_s:10.4f} {calls:10.1f} {share:7.1%}")
    lines.append(f"{'sum = traced wall_s':32s} {total:10.4f}  (wall_s {wall:.4f})")
    lines.append(f"trace.overhead_pct {metrics['trace.overhead_pct']:+.2f}")
    lines.append("")
    lines.append(f"{'per-layer metric':34s} {'value':>14s}  unit")
    for name, unit_name, _ in PER_LAYER:
        lines.append(f"{name:34s} {metrics[name]:14.6g}  {unit_name}")
    return lines
