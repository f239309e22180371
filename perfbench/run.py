"""Benchmark entry point.

    python3 perfbench/run.py --workload mc_eval_r20 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the repository root.  Each workload runs in a fresh interpreter
(``child.py``), so the imports and set-up a user pays show in
``setup_s``; a few extra set-up-only interpreters give its median.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the layer tables.  Human-readable lines come first; the last
line of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from report import END_TO_END, PER_LAYER  # noqa: E402
from sysinfo import TreeMemoryWatch, git_state  # noqa: E402

WORKLOADS = ("mc_eval_r20", "ft_train_r8", "pipeline_cell_w2")

#: Set-up-only interpreters started before the measured one.
SETUP_PROBES = 4

#: Everything, children included, must finish within this many seconds.
DEADLINE_S = 170.0

OUT_DIR = os.path.join(ROOT_DIR, ".perfbench_out")


class ChildFailed(RuntimeError):
    pass


def _spawn(workload: str, args, mode: str, deadline: float):
    """Start ``child.py``; returns ``(setup_seconds, stdout_lines, memory)``."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--out", OUT_DIR,
    ]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT_DIR)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), process.kill)
    timer.start()
    memory = TreeMemoryWatch(process.pid).start()
    try:
        first = process.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        timer.cancel()
        memory.stop()
        if process.poll() is None:
            process.kill()
            process.wait()
    if first.strip() != "READY" or code != 0:
        raise ChildFailed(f"{mode} child exited with {code}")
    return setup_s, rest, memory


def _print_end_to_end(result: dict, metrics: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}")
    print(f"{'metric':16s} {'value':>14s}  unit")
    for name, unit, _ in END_TO_END:
        print(f"{name:16s} {metrics[name]:14.6g}  {unit}")
    print(f"{'error_rate':16s} {result['error_rate']:14.6g}  ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")


def _run_one(workload: str, args) -> int:
    """Run one workload and print its tables and JSON result line."""
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(workload, args, "setup", deadline)[0])
        mode = "trace" if args.trace else "run"
        setup_s, lines, memory = _spawn(workload, args, mode, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    if not lines:
        print(f"perfbench: {workload}: child printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    result["setup_samples"] = setups
    result["provenance"].update(git_state(ROOT_DIR))
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    if result["failures"]:
        print("failures: " + " | ".join(f.strip().splitlines()[-1] for f in result["failures"]))
    if args.trace:
        print(f"workload {workload}  seed {args.seed}  (traced)")
        print("\n".join(result["layer_lines"]))
        print(f"trace written to {os.path.relpath(result['trace_file'], ROOT_DIR)}")
        wanted = PER_LAYER
        values = result["per_layer"]
    else:
        peak_kib = result["self_peak_kib"] + memory.descendants_kib()
        values = dict(
            result["end_to_end"], setup_s=median(setups), peak_rss_mb=peak_kib / 1024.0
        )
        _print_end_to_end(result, values)
        wanted = END_TO_END
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _ in wanted
        },
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run benchmark workloads.")
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
        help="one workload, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT_DIR, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(_run_one(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
