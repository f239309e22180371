"""Worker-count resolution and chunking policy for ``repro.parallel``.

The number of workers is a *performance* knob, never a correctness knob:
the determinism contract (see ``docs/PARALLELISM.md``) guarantees
bit-identical results for workers = 0, 1, 2, … and any chunk size, so it
is safe to resolve the default from the environment.  Precedence:

1. an explicit ``workers=`` argument (CLI ``--workers`` ends up here);
2. the ``REPRO_WORKERS`` environment variable (``auto`` = usable cores);
3. ``0`` — serial execution, the conservative default.
"""

from __future__ import annotations

import logging
import math
import os
from typing import Optional

__all__ = ["WORKERS_ENV", "resolve_workers", "default_chunk_size"]

logger = logging.getLogger("repro.parallel")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count (0 or 1 mean serial).

    ``workers`` wins when not ``None``; otherwise :data:`WORKERS_ENV` is
    consulted (empty → 0, ``auto`` → the cores this process may run on,
    garbage → warn and fall back to 0).  Negative counts are a caller
    bug and raise.
    """
    if workers is not None:
        workers = int(workers)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        return workers
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 0
    if raw.lower() == "auto":
        return _usable_cores()
    try:
        value = int(raw)
    except ValueError:
        logger.warning(
            "ignoring %s=%r (expected an integer or 'auto'); running serial",
            WORKERS_ENV,
            raw,
        )
        return 0
    if value < 0:
        logger.warning(
            "ignoring %s=%r (negative); running serial", WORKERS_ENV, raw
        )
        return 0
    return value


def _usable_cores() -> int:
    """Cores in this process's CPU affinity mask (``os.cpu_count()`` where
    the platform has no affinity call): a CPU mask must not overcommit."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_chunk_size(num_tasks: int, workers: int) -> int:
    """Chunk size giving each worker ~4 chunks (amortises IPC, keeps the
    retry unit small so a lost worker forfeits little work)."""
    if num_tasks <= 0 or workers <= 0:
        return 1
    return max(1, math.ceil(num_tasks / (workers * 4)))
