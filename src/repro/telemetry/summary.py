"""Reading a finished run back: the one digest every offline view renders.

:func:`summarize_run` is the only code that opens a run directory.  It
reads ``run.json`` and ``metrics.json`` once each and ``events.jsonl`` in
a single pass, and digests them into one JSON-friendly dict: provenance,
the training curve, per-rate defect-draw distributions (with seeds), span
totals, fault realization, model cost, resources, the merged sampling
profile, forensics aggregates and the ``method_report``/``sweep_report``
rows.  This module renders that digest as the text report behind
``python -m repro.telemetry show`` and ``python -m repro.experiments
summary`` (:func:`render_summary`); the run ledger projects it into
index records and the HTML dashboard renders it per run.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict, List, Optional

import numpy as np

from .events import read_events_with_errors

__all__ = ["find_run_dir", "summarize_run", "render_summary"]

#: Nominal SA1 fraction among faulted cells under the paper's 1.75:9.04
#: split — the reference line for the realized share reported in
#: summaries.
_NOMINAL_SA1_SHARE = 9.04 / (1.75 + 9.04)


def _is_run_dir(path: str) -> bool:
    """A run directory holds an ``events.jsonl`` or a ``run.json``."""
    return any(
        os.path.isfile(os.path.join(path, name))
        for name in ("events.jsonl", "run.json")
    )


def _run_dirs(path: str) -> List[str]:
    """``path`` itself when it is a run directory, else its run
    subdirectories in name order (run ids sort chronologically)."""
    if _is_run_dir(path):
        return [path]
    if not os.path.isdir(path):
        # A file (or nothing at all): a clear error beats the
        # NotADirectoryError traceback os.listdir would raise.
        raise FileNotFoundError(f"not a run directory: {path!r}")
    return [
        os.path.join(path, entry)
        for entry in sorted(os.listdir(path))
        if _is_run_dir(os.path.join(path, entry))
    ]


def find_run_dir(path: str) -> str:
    """Resolve ``path`` to a run directory.

    Accepts either a run directory itself (contains ``events.jsonl`` or
    ``run.json``) or a telemetry parent directory, in which case the
    lexically last run subdirectory is used (run ids sort
    chronologically).
    """
    runs = _run_dirs(path)
    if not runs:
        raise FileNotFoundError(f"no telemetry run under {path!r}")
    return runs[-1]


def _load_optional_json(path: str) -> Optional[dict]:
    if not os.path.isfile(path):
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (json.JSONDecodeError, OSError) as exc:
        # A half-written run.json/metrics.json (killed run) degrades the
        # summary, it must not crash it.
        logging.getLogger("repro.telemetry").warning(
            "%s: unreadable run artefact (%s); ignoring", path, exc
        )
        return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spans(span_ends: List[dict]) -> Dict[str, dict]:
    spans: Dict[str, dict] = {}
    for event in span_ends:
        entry = spans.setdefault(
            str(event.get("path")),
            {"count": 0, "seconds": 0.0, "workers": {}},
        )
        seconds = float(event.get("seconds", 0.0))
        entry["count"] += 1
        entry["seconds"] += seconds
        pid = event.get("worker_pid")
        label = "main" if pid is None else f"worker-{pid}"
        worker = entry["workers"].setdefault(
            label, {"count": 0, "seconds": 0.0}
        )
        worker["count"] += 1
        worker["seconds"] += seconds
    return spans


def _defect(defect_draws: List[dict]) -> Dict[str, dict]:
    draws: Dict[float, List[dict]] = {}
    for event in defect_draws:
        draws.setdefault(float(event["p_sa"]), []).append(event)
    defect = {}
    for rate in sorted(draws):
        accuracies = [float(d["accuracy"]) for d in draws[rate]]
        defect[str(rate)] = {
            "draws": len(accuracies),
            "mean_accuracy": float(np.mean(accuracies)),
            "std_accuracy": float(np.std(accuracies)),
            "min_accuracy": float(np.min(accuracies)),
            "max_accuracy": float(np.max(accuracies)),
            "seeds": [d.get("seed") for d in draws[rate]],
        }
    return defect


def _fault_realization(injections: List[dict]) -> Optional[dict]:
    faults = {"injections": 0, "cells": 0, "sa0": 0, "sa1": 0}
    for event in injections:
        if "sa0" not in event:
            continue
        faults["injections"] += 1
        faults["cells"] += int(event.get("cells_total", 0))
        faults["sa0"] += int(event["sa0"])
        faults["sa1"] += int(event.get("sa1", 0))
    if not faults["injections"]:
        return None
    faulted = faults["sa0"] + faults["sa1"]
    faults["realized_p_sa"] = (
        faulted / faults["cells"] if faults["cells"] else None
    )
    faults["realized_sa1_share"] = (
        faults["sa1"] / faulted if faulted else None
    )
    faults["nominal_sa1_share"] = _NOMINAL_SA1_SHARE
    return faults


def _peak_rss(sample: dict) -> Optional[float]:
    """A sample's peak RSS: ``max_rss_bytes``, else ``rss_bytes``."""
    for key in ("max_rss_bytes", "rss_bytes"):
        if _is_number(sample.get(key)):
            return sample[key]
    return None


def _resources(
    by_kind: Dict[str, List[dict]], metrics: dict
) -> Optional[dict]:
    """Monitor digest.  Peak RSS is the largest per-sample peak over every
    parent and worker ``resource_sample``; CPU time is the last parent
    sample (it is cumulative per process)."""
    samples = by_kind.get("resource_sample", [])
    heartbeats = len(by_kind.get("heartbeat", []))
    stalls = len(by_kind.get("progress_stall", []))
    if not (samples or heartbeats or stalls):
        return None
    peaks = [p for p in map(_peak_rss, samples) if p is not None]
    parent_cpu = [
        s["cpu_seconds"]
        for s in samples
        if s.get("worker_pid") is None and _is_number(s.get("cpu_seconds"))
    ]
    rss = (metrics.get("histograms") or {}).get("resource/rss_bytes") or {}
    return {
        "samples": len(samples),
        "worker_samples": sum(
            1 for s in samples if s.get("worker_pid") is not None
        ),
        "max_rss_bytes": max(peaks) if peaks else None,
        "mean_rss_bytes": rss.get("mean"),
        "cpu_seconds": parent_cpu[-1] if parent_cpu else None,
        "heartbeats": heartbeats,
        "stalls": stalls,
    }


def _profile(profile_events: List[dict]) -> Optional[dict]:
    """Parent + worker ``profile_stacks`` merged into one sample multiset."""
    if not profile_events:
        return None
    from .profiling import (
        function_totals,
        merge_profile_events,
        profile_interval_of,
    )

    merged = merge_profile_events(profile_events)
    return {
        "events": len(profile_events),
        "worker_events": sum(
            1 for e in profile_events if e.get("worker_pid") is not None
        ),
        "samples": merged.samples,
        "interval": profile_interval_of(profile_events),
        "stacks": merged.to_wire(),
        "functions": function_totals(merged),
    }


def _forensics(draw_events: List[dict]) -> Optional[dict]:
    """Forensics totals plus ``groups``, the per-``(target, p_sa)``
    aggregates (:func:`repro.forensics.aggregate.aggregate_events`)."""
    if not draw_events:
        return None
    # Lazy imports: repro.forensics imports telemetry (circularity).
    from ..forensics.aggregate import aggregate_events
    from ..forensics.render import forensics_summary

    aggregates = aggregate_events(draw_events)
    return dict(forensics_summary(aggregates), groups=aggregates)


def _methods(by_kind: Dict[str, List[dict]], config: dict) -> List[dict]:
    """Per-variant accuracy rows for one run.

    One row per ``method_report`` event; runs recorded before that event
    existed get a single row synthesised from their ``defect_eval``
    events.
    """
    methods = [
        {
            "method": str(event.get("method", "?")),
            "acc_pretrain": event.get("acc_pretrain"),
            "acc_retrain": event.get("acc_retrain"),
            "defect": {
                float(rate): float(acc)
                for rate, acc in (event.get("defect") or {}).items()
            },
        }
        for event in by_kind.get("method_report", [])
    ]
    if methods:
        return methods
    grid: Dict[float, float] = {}
    for event in by_kind.get("defect_eval", []):
        rate, acc = event.get("p_sa"), event.get("mean_accuracy")
        if _is_number(rate) and _is_number(acc):
            grid[float(rate)] = float(acc)
    if not grid:
        return []
    clean = grid.get(0.0, max(grid.values()))
    label = str(config.get("experiment") or config.get("method") or "run")
    return [
        {"method": label, "acc_pretrain": clean, "acc_retrain": clean,
         "defect": grid}
    ]


def summarize_run(path: str) -> dict:
    """Digest one run directory into a JSON-friendly summary dict.

    ``path`` may also be a telemetry parent directory (its latest run is
    used, see :func:`find_run_dir`).
    """
    run_dir = find_run_dir(path)
    events_path = os.path.join(run_dir, "events.jsonl")
    events, skipped = (
        read_events_with_errors(events_path)
        if os.path.isfile(events_path)
        else ([], 0)
    )
    meta = _load_optional_json(os.path.join(run_dir, "run.json")) or {}
    metrics = _load_optional_json(os.path.join(run_dir, "metrics.json"))

    by_kind: Dict[str, List[dict]] = {}
    for event in events:
        by_kind.setdefault(str(event.get("kind")), []).append(event)
    run_start = (by_kind.get("run_start") or [{}])[0]
    config = meta.get("config") or run_start.get("config") or {}
    provenance = meta.get("provenance") or {}
    summary: dict = {
        "run_dir": run_dir,
        "run_id": meta.get("run_id")
        or (events[0].get("run_id") if events else None)
        or os.path.basename(run_dir.rstrip("/")),
        "git_sha": provenance.get("git_sha"),
        "started_at": provenance.get("started_at"),
        "duration_seconds": provenance.get("duration_seconds"),
        "num_events": len(events),
        "skipped_lines": skipped,
        "events_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "config": config,
        "epochs": [
            {
                key: event.get(key)
                for key in (
                    "epoch", "loss", "train_accuracy", "p_sa", "seconds",
                    "grad_norm_pre_clip", "grad_norm_post_clip",
                    "update_ratio",
                )
            }
            for event in by_kind.get("epoch_end", [])
        ],
        "defect": _defect(by_kind.get("defect_draw", [])),
        "spans": _spans(by_kind.get("span_end", [])),
        "fault_realization": _fault_realization(
            by_kind.get("fault_inject", [])
        ),
        "model_cost": [
            {
                key: event.get(key)
                for key in (
                    "model", "params", "macs", "flops", "activation_bytes",
                    "crossbar_cells",
                )
            }
            for event in by_kind.get("model_cost", [])
        ],
        "resources": _resources(by_kind, metrics or {}),
        "profile": _profile(by_kind.get("profile_stacks", [])),
        "forensics": _forensics(by_kind.get("forensics_draw", [])),
        "methods": _methods(by_kind, config),
        "sweeps": [
            {
                "sweep": str(event.get("sweep", "?")),
                "profile": str(event.get("profile", "?")),
                "cells": event.get("cells"),
                "entries": list(event.get("entries") or []),
            }
            for event in by_kind.get("sweep_report", [])
        ],
    }
    if metrics is not None:
        summary["metrics"] = metrics
    return summary


def _format_seconds(seconds: float) -> str:
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.3f}s"


def _top_tables(summary: dict, top: int) -> List[str]:
    """``--top N`` detail: slowest spans + per-layer forward/backward.

    Rendered through the bench reporter's table formatting so the two
    CLIs read the same.  (Imported lazily: ``repro.bench`` itself imports
    telemetry, so a module-level import here would be circular.)
    """
    from ..bench.report import format_seconds, format_table

    lines: List[str] = []
    spans = summary.get("spans") or {}
    if spans:
        ranked = sorted(spans.items(), key=lambda item: -item[1]["seconds"])
        rows = [
            [
                path,
                entry["count"],
                format_seconds(entry["seconds"]),
                format_seconds(entry["seconds"] / max(entry["count"], 1)),
                len(entry.get("workers") or {}) or 1,
            ]
            for path, entry in ranked[:top]
        ]
        lines += [
            "",
            f"Slowest spans (top {min(top, len(ranked))} of {len(ranked)}):",
            format_table(["span", "count", "total", "mean", "procs"], rows),
        ]

    profile = summary.get("profile") or {}
    functions = profile.get("functions") or {}
    if functions:
        samples = max(profile.get("samples") or 0, 1)
        interval = profile.get("interval")
        ranked_fns = sorted(
            functions.items(),
            key=lambda item: (-item[1]["self"], -item[1]["total"], item[0]),
        )

        def _est(count: int) -> str:
            if not interval:
                return "-"
            return format_seconds(count * interval)

        rows = [
            [
                name,
                entry["self"],
                f"{100.0 * entry['self'] / samples:.1f}%",
                _est(entry["self"]),
                f"{100.0 * entry['total'] / samples:.1f}%",
            ]
            for name, entry in ranked_fns[:top]
        ]
        lines += [
            "",
            f"Hottest functions by sampled self time "
            f"(top {min(top, len(ranked_fns))} of {len(ranked_fns)}):",
            format_table(
                ["function", "self", "self %", "est self", "total %"], rows
            ),
        ]

    histograms = (summary.get("metrics") or {}).get("histograms") or {}
    layers: Dict[str, Dict[str, dict]] = {}
    for name, digest in histograms.items():
        for kind in ("forward", "backward"):
            prefix = f"{kind}_seconds/"
            if name.startswith(prefix) and digest.get("count"):
                layers.setdefault(name[len(prefix):], {})[kind] = digest
    if layers:
        def _total(entry: Dict[str, dict]) -> float:
            return sum(d.get("sum", 0.0) for d in entry.values())

        ranked_layers = sorted(
            layers.items(), key=lambda item: -_total(item[1])
        )
        rows = []
        for layer, entry in ranked_layers[:top]:
            fwd = entry.get("forward", {})
            bwd = entry.get("backward", {})
            rows.append(
                [
                    layer,
                    fwd.get("count", 0),
                    format_seconds(fwd.get("sum")) if fwd else "-",
                    format_seconds(fwd.get("mean")) if fwd else "-",
                    format_seconds(bwd.get("sum")) if bwd else "-",
                    format_seconds(bwd.get("mean")) if bwd else "-",
                ]
            )
        lines += [
            "",
            f"Per-layer forward/backward "
            f"(top {min(top, len(ranked_layers))} of {len(ranked_layers)}):",
            format_table(
                ["layer", "calls", "fwd total", "fwd mean", "bwd total",
                 "bwd mean"],
                rows,
            ),
        ]
    if not lines:
        lines = ["", "(no span or per-layer timings recorded)"]
    return lines


def render_summary(summary: dict, top: Optional[int] = None) -> str:
    """Human-readable text report of a :func:`summarize_run` digest.

    ``top`` appends the slowest-``N`` spans and per-layer
    forward/backward tables (the CLI's ``--top N``).
    """
    lines = [
        f"Telemetry summary — {summary.get('run_id')}",
        f"  directory : {summary.get('run_dir')}",
        f"  events    : {summary.get('num_events')}",
    ]
    if summary.get("skipped_lines"):
        lines.append(
            f"  WARNING   : {summary['skipped_lines']} corrupt event "
            "line(s) skipped (truncated run?)"
        )
    config = summary.get("config") or {}
    if config:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
        lines.append(f"  config    : {rendered}")
    counts = summary.get("events_by_kind") or {}
    if counts:
        rendered = ", ".join(f"{k}×{v}" for k, v in counts.items())
        lines.append(f"  by kind   : {rendered}")

    epochs = summary.get("epochs") or []
    if epochs:
        total = sum(e["seconds"] or 0.0 for e in epochs)
        losses = [e["loss"] for e in epochs if e["loss"] is not None]
        lines.append("")
        lines.append(
            f"Training: {len(epochs)} epochs in {_format_seconds(total)}"
            + (
                f", loss {losses[0]:.4f} -> {losses[-1]:.4f}"
                if losses
                else ""
            )
        )
        grads = [
            e["grad_norm_pre_clip"]
            for e in epochs
            if e.get("grad_norm_pre_clip") is not None
        ]
        ratios = [
            e["update_ratio"]
            for e in epochs
            if e.get("update_ratio") is not None
        ]
        if grads:
            health = (
                f"Health: grad norm {grads[0]:.4g} -> {grads[-1]:.4g}"
            )
            if ratios:
                health += (
                    f", update ratio {ratios[0]:.3g} -> {ratios[-1]:.3g}"
                )
            lines.append(health)

    faults = summary.get("fault_realization")
    if faults:
        lines.append("")
        realized = faults.get("realized_p_sa")
        share = faults.get("realized_sa1_share")
        lines.append(
            f"Fault injection: {faults['injections']} injections, "
            f"{faults['sa0'] + faults['sa1']} faulted cells"
            + (f", realized p_sa {realized:.4g}" if realized is not None else "")
            + (
                f", SA1 share {share:.3f} "
                f"(nominal {faults['nominal_sa1_share']:.3f})"
                if share is not None
                else ""
            )
        )

    for cost in summary.get("model_cost") or []:
        lines.append("")
        lines.append(
            f"Model cost ({cost.get('model')}): "
            f"{cost.get('params')} params, "
            f"{cost.get('macs')} MACs, {cost.get('flops')} FLOPs, "
            f"{cost.get('crossbar_cells')} crossbar cells"
            + (
                f", {cost['activation_bytes'] / 1024.0:.1f} KiB activations"
                if isinstance(cost.get("activation_bytes"), (int, float))
                else ""
            )
        )

    resources = summary.get("resources")
    if resources:
        lines.append("")
        peak = resources.get("max_rss_bytes")
        cpu = resources.get("cpu_seconds")
        lines.append(
            f"Resources: {resources['samples']} samples "
            f"({resources['worker_samples']} from workers)"
            + (
                f", peak RSS {peak / (1024.0 * 1024.0):.1f} MiB"
                if isinstance(peak, (int, float))
                else ""
            )
            + (
                f", CPU {cpu:.2f}s"
                if isinstance(cpu, (int, float))
                else ""
            )
            + f", {resources['heartbeats']} heartbeats"
            + (
                f", {resources['stalls']} STALL WARNING(S)"
                if resources["stalls"]
                else ""
            )
        )

    profile = summary.get("profile")
    if profile:
        lines.append("")
        interval = profile.get("interval")
        line = (
            f"Profile: {profile['samples']} stack samples across "
            f"{profile['events']} aggregate(s) "
            f"({profile['worker_events']} from workers)"
        )
        if interval:
            line += (
                f", {interval:g}s interval "
                f"≈ {_format_seconds(profile['samples'] * interval)} sampled"
            )
        line += "  (flamegraph: python -m repro.telemetry flame <run>)"
        lines.append(line)

    forensics = summary.get("forensics")
    if forensics:
        lines.append("")
        flipped = forensics.get("flipped", 0)
        line = (
            f"Fault forensics: {forensics.get('draws', 0)} probed draws, "
            f"{forensics.get('samples', 0)} sample evaluations, "
            f"{flipped} prediction flips"
        )
        divergence = forensics.get("first_divergence") or {}
        if divergence:
            leader = next(iter(divergence.items()))
            line += (
                f"; first divergence most often at {leader[0]} "
                f"({leader[1]}×)"
            )
        lines.append(line)
        worst = forensics.get("max_rel_l2")
        if worst:
            lines.append(
                f"  max relative L2 deviation {worst['rel_l2']:.4g} "
                f"at {worst['layer']} "
                "(details: python -m repro.telemetry forensics <run>)"
            )

    defect = summary.get("defect") or {}
    if defect:
        lines.append("")
        lines.append("Defect evaluation (per testing rate):")
        for rate, stats in defect.items():
            lines.append(
                f"  p_sa={rate:<8} {stats['draws']:>4} draws   "
                f"mean {stats['mean_accuracy']:6.2f}%  "
                f"+/- {stats['std_accuracy']:5.2f}  "
                f"[{stats['min_accuracy']:.2f}, {stats['max_accuracy']:.2f}]"
            )

    spans = summary.get("spans") or {}
    if spans:
        lines.append("")
        lines.append("Spans (wall-clock by scope):")
        width = max(len(path) for path in spans)
        for path, entry in sorted(
            spans.items(), key=lambda item: -item[1]["seconds"]
        ):
            lines.append(
                f"  {path:<{width}}  ×{entry['count']:<4} "
                f"{_format_seconds(entry['seconds'])}"
            )
            workers = entry.get("workers") or {}
            if any(label != "main" for label in workers):
                for label, stats in sorted(workers.items()):
                    lines.append(
                        f"    {label:<{max(width - 2, 1)}}  "
                        f"×{stats['count']:<4} "
                        f"{_format_seconds(stats['seconds'])}"
                    )

    if top is not None:
        if top < 1:
            raise ValueError("top must be >= 1")
        lines.extend(_top_tables(summary, top))
    return "\n".join(lines)
