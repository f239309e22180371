"""The event registry: every event kind and the payload fields it carries.

``EVENT_SCHEMAS`` is the one place the contract between the code that
emits events and the code that reads them back is written.  Adding an
event means adding one line here.  Two checks read it:

* at run time, an enabled :class:`~repro.telemetry.TelemetryRun` passes
  every event it records through :func:`validate_event` and raises
  ``ValueError`` on an undeclared kind or field, so a test that runs the
  producer fails on drift (a disabled run checks nothing);
* at lint time, rules RL011/RL012 read this module's literals (without
  importing it) and check every consumer's kind and field accesses.

Missing fields are never an error: many producers emit conditionally
(fault statistics, realized rates, forensics targets).

This module is import-cheap (stdlib only, no numpy) so the lint CLI,
the telemetry CLI, and worker processes can all use it freely.
:func:`validate_events` mirrors the problem-list style of
:func:`repro.telemetry.trace.validate_trace`: it returns human-readable
strings instead of raising, so callers choose their own strictness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "BOOKKEEPING_FIELDS",
    "EVENT_SCHEMAS",
    "fields_for",
    "known_kinds",
    "validate_event",
    "validate_events",
]

#: Fields stamped by ``EventLog.emit`` and the worker-event merge; valid
#: on every kind and never part of a producer's payload schema.
BOOKKEEPING_FIELDS = (
    "kind",
    "run_id",
    "seq",
    "ts",
    "worker_pid",
    "worker_seq",
    "worker_ts",
)

#: Event kind -> payload field names its producers may emit, sorted.
EVENT_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "defect_draw": ("accuracy", "draw", "p_sa", "seed"),
    "defect_eval": (
        "crossbar_cells", "mean_accuracy", "num_runs", "p_sa", "seed",
        "std_accuracy",
    ),
    "deploy": (
        "crossbar_cells", "crossbar_weights", "model", "num_crossbars",
        "params", "tile_size",
    ),
    "epoch_end": (
        "epoch", "grad_norm_post_clip", "grad_norm_pre_clip", "loss", "lr",
        "p_sa", "seconds", "train_accuracy", "update_ratio", "val_accuracy",
    ),
    "fault_inject": (
        "cells_faulted", "cells_total", "crossbar_cells", "crossbar_weights",
        "p_sa", "p_sa0", "p_sa1", "realized_p_sa", "realized_sa1_share",
        "sa0", "sa1", "tensors",
    ),
    "fleet_device": ("accuracy", "device", "p_sa", "seed"),
    "forensics_draw": (
        "accuracy", "draw", "layers", "num_flipped", "num_samples", "p_sa",
        "seed", "target", "undiverged_flips",
    ),
    "forensics_eval": (
        "layers", "num_draws", "num_flipped", "num_samples", "p_sa", "seed",
        "target", "undiverged_flips",
    ),
    "forensics_shuffled_loader": ("note",),
    "ft_train_start": ("method", "p_sa_target", "preserve_sparsity"),
    "heartbeat": (
        "completed", "elapsed_seconds", "eta_seconds", "label", "percent",
        "rate_per_second", "total",
    ),
    "log": ("level", "logger", "message"),
    "method_report": (
        "acc_pretrain", "acc_retrain", "defect", "metadata", "method",
    ),
    "model_cost": (
        "activation_bytes", "activation_elems", "crossbar_cells", "flops",
        "input_shape", "layers", "macs", "model", "params",
    ),
    "parallel_chunk": ("attempt", "seconds", "tasks", "worker_pid"),
    "parallel_fallback": ("reason", "workers"),
    "parallel_map_end": ("completed", "failed"),
    "parallel_map_start": ("chunk_size", "chunks", "tasks", "workers"),
    "parallel_retry": ("attempt", "indices", "reason"),
    "pretrain_done": ("accuracy", "num_classes", "scale"),
    "profile_stacks": ("interval", "samples", "stacks"),
    "progress_stall": (
        "completed", "idle_seconds", "label", "stall_timeout", "total",
    ),
    "progressive_level": ("epochs_per_level", "level", "p_sa"),
    "resource_sample": (
        "cpu_seconds", "max_rss_bytes", "num_fds", "rss_bytes",
        "tracemalloc_current", "tracemalloc_peak",
    ),
    "run_end": ("duration_seconds",),
    "run_start": ("config", "pid"),
    "span_begin": ("depth", "name", "path"),
    "span_end": ("depth", "name", "path", "seconds"),
    "sweep_cell": (
        "acc_defect", "acc_pretrain", "acc_retrain", "arch", "digest",
        "p_sa", "p_sa_train", "profile", "quant_bits", "seed", "sparsity",
        "stability_score", "sweep", "variant",
    ),
    "sweep_report": ("cells", "entries", "profile", "sweep"),
    "train_end": ("epochs", "final_loss", "total_seconds", "trainer"),
    "train_start": ("epochs", "p_sa", "trainer"),
}

#: Every field a recorded event of each kind may carry, bookkeeping included.
_ALLOWED: Dict[str, FrozenSet[str]] = {
    kind: frozenset(fields + BOOKKEEPING_FIELDS)
    for kind, fields in EVENT_SCHEMAS.items()
}


def known_kinds() -> Tuple[str, ...]:
    """Every declared event kind, sorted."""
    return tuple(sorted(EVENT_SCHEMAS))


def fields_for(kind: str) -> Optional[Tuple[str, ...]]:
    """Payload fields of ``kind`` (without bookkeeping), or ``None``."""
    return EVENT_SCHEMAS.get(kind)


def validate_event(event: Mapping, index: Optional[int] = None) -> List[str]:
    """Problems with one event against the registry.

    Flags a missing or undeclared kind and every payload field the kind
    does not declare.  Missing fields are never flagged.
    """
    where = f"event {index}" if index is not None else "event"
    if not isinstance(event, Mapping):
        return [f"{where}: not a mapping"]
    kind = event.get("kind")
    if not isinstance(kind, str) or not kind:
        return [f"{where}: missing or non-string 'kind'"]
    allowed = _ALLOWED.get(kind)
    if allowed is None:
        return [f"{where}: unknown kind {kind!r}"]
    return [
        f"{where} ({kind}): field {name!r} is not in the schema"
        for name in sorted(set(event) - allowed)
    ]


def validate_events(events: Iterable[Mapping]) -> List[str]:
    """Problems across a whole event log, in log order."""
    problems: List[str] = []
    for index, event in enumerate(events):
        problems.extend(validate_event(event, index))
    return problems
