"""Small statistics helpers shared by the benchmark and its tests.

Stdlib only, so the orchestrator (``run.py``) can import it without
loading numpy or ``repro``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles considered for the reported tail, highest first.
TAIL_CANDIDATES: Tuple[float, ...] = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A reported percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default ``linear`` method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def tail_percentile(
    samples: Sequence[float],
    candidates: Sequence[float] = TAIL_CANDIDATES,
    min_beyond: int = TAIL_MIN_BEYOND,
) -> Tuple[float, float, int]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(pct, value, n)``.  A percentile ``p`` qualifies when
    ``n * (1 - p/100) >= min_beyond``: p90 needs 100 samples, p50 needs
    20.  Below 20 samples no candidate qualifies and the median is
    returned as the tail, so a reader always gets a value with its
    sample count; ``n == 0`` gives ``(50.0, 0.0, 0)``.
    """
    n = len(samples)
    if n == 0:
        return 50.0, 0.0, 0
    for pct in sorted(candidates, reverse=True):
        # Compared in hundredths: 1 - 0.9 is not exactly 0.1 in floats.
        if n * (100.0 - pct) >= min_beyond * 100.0:
            return float(pct), percentile(samples, pct), n
    return 50.0, percentile(samples, 50.0), n


class Outcomes:
    """Counts operations attempted and failed, for ``error_rate``.

    An operation is one fault draw, one training step or one pipeline
    cell.  It fails when it raised or when any output check on it
    failed; a check that fails on an operation already counted as failed
    does not count it twice.  Each failure keeps its first reason.
    """

    def __init__(self) -> None:
        self._ops: Dict[str, Optional[str]] = {}

    def attempt(self, op: str) -> None:
        """Register ``op`` as attempted (idempotent)."""
        self._ops.setdefault(op, None)

    def fail(self, op: str, reason: str) -> None:
        """Mark ``op`` failed; registers it if it was not yet attempted."""
        if self._ops.get(op) is None:
            self._ops[op] = reason

    def fail_all(self, ops: Sequence[str], reason: str) -> None:
        for op in ops:
            self.fail(op, reason)

    @property
    def attempted(self) -> int:
        return len(self._ops)

    @property
    def failed(self) -> int:
        return sum(1 for reason in self._ops.values() if reason is not None)

    @property
    def error_rate(self) -> float:
        """Failed ÷ attempted; 1.0 when nothing was attempted at all."""
        if not self._ops:
            return 1.0
        return self.failed / self.attempted

    def reasons(self, limit: int = 5) -> List[str]:
        """Distinct failure reasons, first ``limit`` of them."""
        seen: List[str] = []
        for reason in self._ops.values():
            if reason is not None and reason not in seen:
                seen.append(reason)
        return seen[:limit]
