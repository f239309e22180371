"""Run ledger: a versioned cross-run index plus run-to-run comparison.

One telemetry run directory is self-describing (``events.jsonl``,
``metrics.json``, ``run.json``, ``trace.json``) but answering "which run
produced the Table 1 numbers, and is tonight's run slower?" needs the
*set* of runs in one place.  This module reads no run artefact
itself: it projects each run's
:func:`~repro.telemetry.summary.summarize_run` digest into a
:class:`RunRecord` — run id, git SHA, config, headline metrics, span
totals, duration — persists the records as a versioned ``index.json``,
and implements the ``diff`` used by ``python -m repro.telemetry`` to
compare two runs and flag regressions.

Regressions are time-shaped by construction: a span (or ``*_seconds``
histogram) whose total grew beyond the relative threshold.  Metric
deltas (counters/gauges) are always reported but never fail a diff on
their own — whether a loss delta is "worse" depends on the experiment,
so that judgement stays with the reader.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Union

from .summary import (
    _is_run_dir,
    _load_optional_json,
    _run_dirs,
    summarize_run,
)

__all__ = [
    "INDEX_VERSION",
    "INDEX_FILENAME",
    "DEFAULT_REGRESSION_THRESHOLD",
    "RunRecord",
    "scan_runs",
    "build_index",
    "load_index",
    "runs_by_config",
    "diff_runs",
    "render_diff",
]

#: Schema version stamped into every ``index.json``.
INDEX_VERSION = 1

#: File name of the ledger index inside a telemetry parent directory.
INDEX_FILENAME = "index.json"

#: Default relative growth in a span/time histogram that counts as a
#: regression in :func:`diff_runs`.
DEFAULT_REGRESSION_THRESHOLD = 0.25


@dataclass
class RunRecord:
    """One run's ledger entry — everything ``ls``/``diff`` need.

    Projected from the run's digest; every field degrades to a
    ``None``/empty value when the corresponding artefact is missing or
    partial (a crashed run still gets a record).
    """

    run_id: str
    run_dir: str
    git_sha: Optional[str] = None
    config: Dict[str, object] = field(default_factory=dict)
    started_at: Optional[float] = None
    duration_seconds: Optional[float] = None
    num_events: int = 0
    skipped_lines: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, dict] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-serialisable form (what ``index.json`` stores)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from its :meth:`as_dict` form."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_run_dir(cls, run_dir: str) -> "RunRecord":
        """Project one run's :func:`~repro.telemetry.summary.summarize_run`
        digest into a ledger record."""
        summary = summarize_run(run_dir)
        metrics = summary.get("metrics") or {}
        return cls(
            run_id=summary["run_id"],
            run_dir=summary["run_dir"],
            git_sha=summary["git_sha"],
            config=summary["config"],
            started_at=summary["started_at"],
            duration_seconds=summary["duration_seconds"],
            num_events=summary["num_events"],
            skipped_lines=summary["skipped_lines"],
            counters=metrics.get("counters") or {},
            gauges=metrics.get("gauges") or {},
            histograms=metrics.get("histograms") or {},
            spans={
                path: {"count": entry["count"], "seconds": entry["seconds"]}
                for path, entry in summary["spans"].items()
            },
        )


def scan_runs(directory: str) -> List[RunRecord]:
    """Digest every run directory under ``directory``, sorted by run id.

    ``directory`` may itself be a single run directory, in which case the
    result has exactly one record.
    """
    records = [RunRecord.from_run_dir(run) for run in _run_dirs(directory)]
    return sorted(records, key=lambda r: r.run_id)


def build_index(directory: str, write: bool = True) -> dict:
    """Scan ``directory`` into the versioned ledger index document.

    Parameters
    ----------
    directory:
        Telemetry parent directory holding one subdirectory per run.
    write:
        Persist the document as ``<directory>/index.json`` (default);
        pass ``False`` for a read-only scan.
    """
    records = scan_runs(directory)
    index = {
        "version": INDEX_VERSION,
        "directory": os.path.abspath(directory),
        "num_runs": len(records),
        "runs": [record.as_dict() for record in records],
    }
    if write and os.path.isdir(directory) and not _is_run_dir(directory):
        with open(os.path.join(directory, INDEX_FILENAME), "w") as handle:
            json.dump(index, handle, indent=2)
    return index


def load_index(directory: str) -> dict:
    """Load ``<directory>/index.json``, rebuilding it when absent/stale.

    A future-versioned index (written by a newer checkout) is rebuilt
    rather than misread.
    """
    path = os.path.join(directory, INDEX_FILENAME)
    index = _load_optional_json(path)
    if index is None or index.get("version") != INDEX_VERSION:
        return build_index(directory)
    return index


def runs_by_config(directory: str, key: str) -> Dict[str, List[RunRecord]]:
    """Group a directory's runs by the value of one ``config`` entry.

    The ledger lookup API behind resumable sweeps: ``repro.sweep`` stamps
    every cell run's config with its ``sweep_digest`` and asks this
    function which digests already have a recorded run.  Scalar values
    are grouped by their string form; runs whose config lacks ``key``
    (or whose value is not a scalar) are skipped; a
    missing or empty ``directory`` yields ``{}`` rather than raising, so
    a first invocation against a fresh sweep directory is not an error.

    Parameters
    ----------
    directory:
        Telemetry parent directory holding one subdirectory per run.
    key:
        Config entry to group by (e.g. ``"sweep_digest"``).

    Returns
    -------
    dict
        ``{value: [RunRecord, ...]}`` with each group sorted by run id.
    """
    if not os.path.isdir(directory):
        return {}
    grouped: Dict[str, List[RunRecord]] = {}
    for record in scan_runs(directory):
        value = record.config.get(key)
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            grouped.setdefault(str(value), []).append(record)
    return grouped


def _as_record(run: Union[RunRecord, dict, str]) -> RunRecord:
    if isinstance(run, RunRecord):
        return run
    if isinstance(run, dict):
        return RunRecord.from_dict(run)
    return RunRecord.from_run_dir(run)


def _numeric_deltas(
    old: Dict[str, float], new: Dict[str, float]
) -> List[dict]:
    deltas = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            if a != b:
                deltas.append({"name": name, "old": a, "new": b, "delta": None})
            continue
        if a == b:
            continue
        deltas.append(
            {
                "name": name,
                "old": a,
                "new": b,
                "delta": b - a,
                "relative": (b - a) / abs(a) if a else None,
            }
        )
    return deltas


def diff_runs(
    old: Union[RunRecord, dict, str],
    new: Union[RunRecord, dict, str],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> dict:
    """Compare two runs' metrics and spans.

    Parameters
    ----------
    old, new:
        :class:`RunRecord` instances, their ``as_dict`` forms, or run
        directory paths.
    threshold:
        Relative growth in a span total (or ``*_seconds`` histogram sum)
        beyond which the entry is listed under ``regressions``.

    Returns
    -------
    dict
        ``{"old", "new", "counters", "gauges", "histogram_means",
        "spans", "regressions"}`` — each delta list carries
        ``name/old/new/delta`` (plus ``relative`` where defined).
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    old_rec, new_rec = _as_record(old), _as_record(new)

    hist_means_old = {
        n: d.get("mean") for n, d in old_rec.histograms.items() if d.get("count")
    }
    hist_means_new = {
        n: d.get("mean") for n, d in new_rec.histograms.items() if d.get("count")
    }
    span_secs_old = {n: s.get("seconds", 0.0) for n, s in old_rec.spans.items()}
    span_secs_new = {n: s.get("seconds", 0.0) for n, s in new_rec.spans.items()}

    diff = {
        "old": old_rec.run_id,
        "new": new_rec.run_id,
        "threshold": threshold,
        "counters": _numeric_deltas(old_rec.counters, new_rec.counters),
        "gauges": _numeric_deltas(old_rec.gauges, new_rec.gauges),
        "histogram_means": _numeric_deltas(hist_means_old, hist_means_new),
        "spans": _numeric_deltas(span_secs_old, span_secs_new),
        "regressions": [],
    }
    for entry in diff["spans"]:
        rel = entry.get("relative")
        if rel is not None and rel > threshold:
            diff["regressions"].append({"kind": "span", **entry})
    for name, digest in new_rec.histograms.items():
        if not name.endswith("_seconds") and "_seconds/" not in name:
            continue
        old_digest = old_rec.histograms.get(name)
        if not old_digest or not old_digest.get("count") or not digest.get("count"):
            continue
        a, b = old_digest.get("sum", 0.0), digest.get("sum", 0.0)
        if a and (b - a) / abs(a) > threshold:
            diff["regressions"].append(
                {
                    "kind": "histogram",
                    "name": name,
                    "old": a,
                    "new": b,
                    "delta": b - a,
                    "relative": (b - a) / abs(a),
                }
            )
    return diff


def render_diff(diff: dict) -> str:
    """Human-readable text report of a :func:`diff_runs` result."""
    lines = [f"Run diff — {diff.get('old')} -> {diff.get('new')}"]

    def _section(title: str, entries: List[dict], unit: str = "") -> None:
        if not entries:
            return
        lines.append("")
        lines.append(f"{title}:")
        width = max(len(str(e["name"])) for e in entries)
        for entry in entries:
            rel = entry.get("relative")
            rel_text = f"  ({rel:+.1%})" if isinstance(rel, float) else ""
            lines.append(
                f"  {str(entry['name']):<{width}}  "
                f"{entry.get('old')} -> {entry.get('new')}{unit}{rel_text}"
            )

    _section("Counters", diff.get("counters", []))
    _section("Gauges", diff.get("gauges", []))
    _section("Histogram means", diff.get("histogram_means", []))
    _section("Span seconds", diff.get("spans", []), unit="s")
    regressions = diff.get("regressions", [])
    lines.append("")
    if regressions:
        lines.append(
            f"{len(regressions)} regression(s) beyond "
            f"+{diff.get('threshold', DEFAULT_REGRESSION_THRESHOLD):.0%}:"
        )
        for entry in regressions:
            # A diff entry's "kind" is its metric kind: RL012 mistakes the
            # entry for an event and its fields for undeclared event fields.
            old, new = entry["old"], entry["new"]  # repro-lint: disable=RL012
            rel = entry["relative"]  # repro-lint: disable=RL012
            lines.append(
                f"  [{entry['kind']}] {entry['name']}: "
                f"{old:.6g} -> {new:.6g} ({rel:+.1%})"
            )
    else:
        lines.append("No timing regressions beyond threshold.")
    return "\n".join(lines)
