"""Provenance and process accounting for one benchmark run.

The benchmark sets no thread or worker variable itself; it records the
ones it found and the thread count the loaded OpenBLAS reports.  The one
thread setting it makes is ``blas_threads``, around the pooled stage of
``pipeline_cell_w2`` (see ``workloads.PipelineCellW2``).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from typing import Optional

#: Variables that change thread or worker counts, recorded as found.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_WORKERS")


def _git(root: str, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _openblas_function(action: str):
    """``get``/``set`` thread-count function of the OpenBLAS numpy loaded."""
    with open("/proc/self/maps") as maps:
        libraries = {
            line.split()[-1]
            for line in maps
            if "openblas" in line.split()[-1].lower()
        }
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            f"scipy_openblas_{action}_num_threads64_",
            f"openblas_{action}_num_threads64_",
            f"openblas_{action}_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                return function
    return None


def _openblas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy has loaded, asked through ctypes."""
    getter = _openblas_function("get")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with the loaded OpenBLAS at ``count`` threads.

    Processes forked inside the block start with ``count`` threads too.
    Raises when no OpenBLAS is loaded, rather than measuring another
    set-up silently.
    """
    setter = _openblas_function("set")
    previous = _openblas_threads()
    if setter is None or previous is None:
        raise RuntimeError("no OpenBLAS loaded; cannot cap BLAS threads")
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(count)
    try:
        yield
    finally:
        setter(previous)


def git_state(root: str) -> dict:
    """The checkout's git SHA and dirty flag, both null outside git.

    Asked by ``run.py``, not by the measured interpreter, so the git
    processes never count in the measured process tree's memory.
    """
    # Only the checkout's own repository: git would otherwise search the
    # parent directories of an exported tree.
    in_git = os.path.isdir(os.path.join(root, ".git"))
    status = _git(root, "status", "--porcelain") if in_git else None
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
    }


def provenance() -> dict:
    """The measured interpreter's side of a result: interpreter, BLAS, cores."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every child process has exited and been reaped.

    A ``repro.parallel`` pool terminates its workers without joining
    them; only reaped children count in ``RUSAGE_CHILDREN``.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("child processes did not exit")
        time.sleep(0.005)


def _status_kib(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return None


def _child_pids(pid: int) -> set:
    found = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as children:
                found.update(int(p) for p in children.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    for child in list(found):
        found |= _child_pids(child)
    return found


class TreeMemoryWatch:
    """Samples the peak RSS (``VmHWM``) of the descendants of ``pid``.

    Run from the parent, so the sampling thread never competes for the
    measured interpreter's GIL.  Each poll sums the peaks of the
    descendants alive at that moment; the largest such sum is kept, so
    pools that come and go one after another are not added up.  Summing
    per-process peaks bounds the simultaneous peak from above.  Growth
    in a descendant's last ``interval`` before it exits may be missed.
    """

    def __init__(self, pid: int, interval: float = 0.2) -> None:
        self.pid = pid
        self.interval = interval
        self._peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def start(self) -> "TreeMemoryWatch":
        self._thread.start()
        return self

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            alive = (_status_kib(pid, "VmHWM") for pid in _child_pids(self.pid))
            total = sum(hwm for hwm in alive if hwm is not None)
            self._peak_kib = max(self._peak_kib, total)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def descendants_kib(self) -> int:
        return self._peak_kib
