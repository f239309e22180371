"""One workload in a fresh interpreter; started by ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --out DIR

Prints ``READY`` once its inputs are built (the parent times set-up up
to that line), then, unless ``--mode setup``, runs timed units for
``--seconds`` seconds, checks the outputs, and prints one JSON document
as its last line.  ``--mode trace`` alternates untraced and traced units
(U T T U U T T U …, so slow drift cancels) and adds the per-layer
metrics, tables and a Chrome trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

from stats import Outcomes  # noqa: E402
from tracer import ROOT, Tracer, install_layer_spans  # noqa: E402
import report  # noqa: E402
import sysinfo  # noqa: E402
import workloads  # noqa: E402

#: Numeric facts a workload's ``check_unit`` adds to a unit's info.
_INFO_FIELDS = ("retries", "fallbacks", "telemetry_events", "telemetry_bytes")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def _run_unit(workload, tracer, traced):
    """One timed unit; returns ``(record, info)``."""
    if traced:
        install_layer_spans(tracer)
        root = tracer.begin(ROOT)
    self_before = sysinfo.cpu_seconds(resource.RUSAGE_SELF)
    children_before = sysinfo.cpu_seconds(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    error = None
    info = None
    try:
        info = workload.unit()
    except Exception:
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - started
    cpu_self = sysinfo.cpu_seconds(resource.RUSAGE_SELF) - self_before
    if traced:
        tracer.end(root)
        wall = tracer.spans[root].duration
        tracer.uninstall()
    sysinfo.reap_children()
    record = {
        "traced": traced,
        "wall": wall,
        "cpu_self": cpu_self,
        "cpu_children": sysinfo.cpu_seconds(resource.RUSAGE_CHILDREN) - children_before,
        "error": error,
    }
    if info is not None:
        record["draws"] = info["draws"]
        record["samples"] = info["samples"]
        record["draws_s"] = info.get("draws_s", wall)
        record["samples_s"] = info.get("samples_s", wall)
    return record, info


def main(argv=None) -> int:
    args = _parse(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    tracer = Tracer() if args.mode == "trace" else None
    workload.install_probes()
    if tracer is not None:
        install_layer_spans(tracer)
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    workload.before_units()
    outcomes = Outcomes()
    records, infos = [], []
    min_units = 2 if tracer is not None else 1
    started = time.perf_counter()
    while True:
        index = len(records)
        traced = tracer is not None and index % 4 in (1, 2)
        record, info = _run_unit(workload, tracer, traced)
        try:
            workload.check_unit(index, info, outcomes)
        except Exception:
            outcomes.fail_all(
                workload.unit_ops(index), "check raised: " + traceback.format_exc(limit=3)
            )
        if record["error"] is not None:
            outcomes.fail_all(workload.unit_ops(index), "unit raised: " + record["error"])
            print(record["error"], file=sys.stderr)
        if info is not None:
            record.update({k: info[k] for k in _INFO_FIELDS if k in info})
        records.append(record)
        infos.append(info)
        elapsed = time.perf_counter() - started
        typical = median([r["wall"] for r in records])
        untraced = sum(not r["traced"] for r in records)
        capped = workload.max_units is not None and untraced >= workload.max_units
        if len(records) >= min_units and (capped or elapsed + typical > args.seconds):
            break

    path = os.path.join(HERE, "reference.json")
    with open(path) as handle:
        reference = json.load(handle).get(args.workload)
    if args.seed != workloads.DEFAULT_SEED:
        reference = None
    try:
        observed = workload.final_checks(infos, outcomes, reference)
    except Exception:
        every = [op for i in range(len(records)) for op in workload.unit_ops(i)]
        outcomes.fail_all(every, "final check raised: " + traceback.format_exc(limit=3))
        observed = {}

    untraced = [r for r in records if not r["traced"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "error_rate": outcomes.error_rate,
        "failures": outcomes.reasons(),
        "units": records,
        "self_peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "observed": observed,
        "provenance": sysinfo.provenance(),
    }
    try:
        result["end_to_end"] = report.end_to_end(untraced)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if tracer is not None:
        from repro.telemetry.trace import validate_trace

        table = report.LayerTable(tracer.spans)
        metrics = report.per_layer(
            table,
            tracer.counters,
            [r for r in records if r["traced"]],
            untraced,
            workload.retained_probe(),
        )
        trace = tracer.chrome_trace()
        problems = validate_trace(trace)
        if problems:
            print("perfbench: invalid trace: " + "; ".join(problems[:5]), file=sys.stderr)
            return 1
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as handle:
            json.dump(trace, handle, separators=(",", ":"))
        result["per_layer"] = metrics
        result["layer_lines"] = report.layer_lines(table, metrics)
        result["trace_file"] = trace_path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
