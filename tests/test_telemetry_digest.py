"""Golden tests for the offline run readers: ``show``, ``ls``/``diff``, report.

A fixed run directory is written by hand (no wall-clock values) with at
least one event of every kind the readers consume.  The text summary, the
ledger record and the HTML dashboard rendered from it are compared with
the files under ``tests/data/telemetry_golden/``; the run's temporary
path is replaced by ``<RUN_DIR>`` / ``<LEDGER>`` before comparing.
"""

import json
import os
import re
import sys

import pytest

from repro.telemetry import events as events_module
from repro.telemetry import find_run_dir, render_summary, summarize_run
from repro.telemetry.cli import main as cli_main
from repro.telemetry.ledger import RunRecord, scan_runs
from repro.telemetry.report import build_report, render_report

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "telemetry_golden")

RUN_ID = "run-golden"
WORKER_PID = 4242
MIB = 1024 * 1024


def _layer(name, dev, clean, flips):
    return {
        "layer": name, "sum_sq_dev": dev, "sum_sq_clean": clean,
        "sum_dot": clean - dev / 2.0, "sum_sq_fault": clean + dev,
        "perturbed": 12, "elements": 64, "first_divergence": flips,
    }


def _events():
    """The event log, in emission order, without bookkeeping fields."""
    events = [
        ("run_start", {"config": {"experiment": "table1", "seed": 7},
                       "pid": 1}),
        ("model_cost", {"model": "ResNet8", "params": 78042,
                        "macs": 1234567, "flops": 2469134,
                        "activation_bytes": 65536,
                        "crossbar_cells": 156084}),
        ("span_begin", {"name": "pretrain", "path": "pretrain", "depth": 0}),
    ]
    for epoch, (loss, acc, seconds, grad, ratio) in enumerate(
        ((1.5, 40.0, 0.5, 2.0, 0.01), (0.75, 70.0, 0.25, 1.0, 0.005))
    ):
        events.append(("epoch_end", {
            "epoch": epoch, "loss": loss, "train_accuracy": acc,
            "p_sa": 0.0, "seconds": seconds, "lr": 0.1,
            "grad_norm_pre_clip": grad, "grad_norm_post_clip": grad,
            "update_ratio": ratio,
        }))
    events += [
        ("span_end", {"name": "pretrain", "path": "pretrain", "depth": 0,
                      "seconds": 0.75}),
        ("fault_inject", {"p_sa": 0.1, "p_sa0": 0.016, "p_sa1": 0.084,
                          "cells_total": 1000, "cells_faulted": 100,
                          "sa0": 20, "sa1": 80, "tensors": 3,
                          "realized_p_sa": 0.1, "realized_sa1_share": 0.8}),
        ("fault_inject", {"p_sa": 0.1, "p_sa0": 0.016, "p_sa1": 0.084,
                          "cells_total": 1000, "cells_faulted": 96,
                          "sa0": 16, "sa1": 80, "tensors": 3,
                          "realized_p_sa": 0.096,
                          "realized_sa1_share": 0.8333}),
        ("resource_sample", {"rss_bytes": 100 * MIB,
                             "max_rss_bytes": 110 * MIB,
                             "cpu_seconds": 1.5, "num_fds": 9,
                             "tracemalloc_current": None,
                             "tracemalloc_peak": None}),
        ("resource_sample", {"rss_bytes": 90 * MIB,
                             "max_rss_bytes": 120 * MIB,
                             "cpu_seconds": 0.75, "num_fds": 7,
                             "tracemalloc_current": None,
                             "tracemalloc_peak": None,
                             "worker_pid": WORKER_PID}),
        ("span_begin", {"name": "evaluate", "path": "evaluate", "depth": 0}),
    ]
    for rate, accs in ((0.05, (70.0, 72.5)), (0.1, (55.0, 60.0, 65.0))):
        for draw, acc in enumerate(accs):
            events.append(("defect_draw", {"p_sa": rate, "draw": draw,
                                           "seed": 100 + draw,
                                           "accuracy": acc}))
        events.append(("defect_eval", {
            "p_sa": rate, "num_runs": len(accs),
            "mean_accuracy": sum(accs) / len(accs), "std_accuracy": 1.0,
            "seed": 100, "crossbar_cells": 156084,
        }))
    for draw in range(2):
        events.append(("forensics_draw", {
            "p_sa": 0.1, "draw": draw, "seed": 100 + draw,
            "num_samples": 32, "num_flipped": 4, "undiverged_flips": 1,
            "accuracy": 60.0,
            "layers": [_layer("net.conv1", 1.0 + draw, 50.0, 1),
                       _layer("net.fc", 4.0 + draw, 40.0, 2)],
        }))
    events += [
        ("span_end", {"name": "draw", "path": "evaluate/draw", "depth": 1,
                      "seconds": 0.125, "worker_pid": WORKER_PID}),
        ("span_end", {"name": "draw", "path": "evaluate/draw", "depth": 1,
                      "seconds": 0.25}),
        ("profile_stacks", {"interval": 0.01, "samples": 5, "stacks": {
            "span:evaluate;evaluate_draw;conv2d": 3,
            "span:evaluate;evaluate_draw;batchnorm": 2}}),
        ("profile_stacks", {"interval": 0.01, "samples": 4, "stacks": {
            "span:evaluate/draw;evaluate_draw;conv2d": 4},
            "worker_pid": WORKER_PID}),
        ("heartbeat", {"label": "defect", "completed": 5, "total": 5,
                       "percent": 100.0, "elapsed_seconds": 1.0,
                       "rate_per_second": 5.0, "eta_seconds": 0.0}),
        ("progress_stall", {"label": "defect", "completed": 3, "total": 5,
                            "idle_seconds": 30.0, "stall_timeout": 30.0}),
        ("span_end", {"name": "evaluate", "path": "evaluate", "depth": 0,
                      "seconds": 0.5}),
        ("method_report", {"method": "baseline", "acc_pretrain": 80.0,
                           "acc_retrain": 80.0,
                           "defect": {"0.0": 80.0, "0.05": 50.0,
                                      "0.1": 30.0},
                           "metadata": {}}),
        ("method_report", {"method": "one_shot", "acc_pretrain": 80.0,
                           "acc_retrain": 78.0,
                           "defect": {"0.0": 78.0, "0.05": 71.25,
                                      "0.1": 60.0},
                           "metadata": {}}),
        ("sweep_report", {"sweep": "grid", "profile": "smoke", "cells": 1,
                          "entries": [{
                              "rank": 1, "arch": "resnet8",
                              "variant": "one_shot", "p_sa": 0.1,
                              "p_sa_train": 0.05, "sparsity": 0.0,
                              "quant_bits": 4, "seeds": [0, 1],
                              "acc_pretrain": 80.0, "acc_retrain": 78.0,
                              "acc_defect": 60.0,
                              "stability_score": 1.5}]}),
        ("resource_sample", {"rss_bytes": 96 * MIB,
                             "max_rss_bytes": 110 * MIB,
                             "cpu_seconds": 2.25, "num_fds": 9,
                             "tracemalloc_current": None,
                             "tracemalloc_peak": None}),
        ("run_end", {"duration_seconds": 12.5}),
    ]
    return events


def write_golden_run(parent):
    """Write the fixed run under ``parent``; returns the run directory."""
    run_dir = os.path.join(parent, RUN_ID)
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "events.jsonl"), "w") as handle:
        for seq, (kind, fields) in enumerate(_events()):
            event = {"kind": kind, "run_id": RUN_ID, "seq": seq,
                     "ts": 1000.0 + seq}
            event.update(fields)
            handle.write(json.dumps(event) + "\n")
    metrics = {
        "counters": {"resource/samples_total": 3, "train/steps_total": 40},
        "gauges": {"resource/cpu_seconds": 2.25,
                   "resource/max_rss_bytes": 110 * MIB,
                   "train/epoch_loss": 0.75},
        "histograms": {
            "resource/rss_bytes": {"count": 3, "sum": 286.0 * MIB,
                                   "mean": 286.0 * MIB / 3,
                                   "min": 90.0 * MIB, "max": 100.0 * MIB},
            "forward_seconds/net.conv1": {"count": 4, "sum": 0.5,
                                          "mean": 0.125},
            "backward_seconds/net.conv1": {"count": 2, "sum": 0.75,
                                           "mean": 0.375},
            "forward_seconds/net.fc": {"count": 4, "sum": 0.125,
                                       "mean": 0.03125},
        },
    }
    with open(os.path.join(run_dir, "metrics.json"), "w") as handle:
        json.dump(metrics, handle, indent=2)
    meta = {
        "run_id": RUN_ID,
        "config": {"experiment": "table1", "seed": 7},
        "provenance": {"git_sha": "0123456789abcdef0123",
                       "started_at": 1000.0, "duration_seconds": 12.5},
    }
    with open(os.path.join(run_dir, "run.json"), "w") as handle:
        json.dump(meta, handle, indent=2)
    return run_dir


def rendered_outputs(parent):
    """The three golden renderings of the run under ``parent``."""
    run_dir = os.path.join(parent, RUN_ID)
    summary = render_summary(summarize_run(run_dir), top=5)
    record = json.dumps(
        RunRecord.from_run_dir(run_dir).as_dict(), indent=2, sort_keys=True
    )
    report = render_report(build_report(parent))
    return {
        "summary.txt": summary.replace(run_dir, "<RUN_DIR>") + "\n",
        "record.json": record.replace(run_dir, "<RUN_DIR>") + "\n",
        "report.html": report.replace(os.path.abspath(parent), "<LEDGER>")
        + "\n",
    }


@pytest.fixture()
def golden_ledger(tmp_path):
    parent = str(tmp_path / "ledger")
    write_golden_run(parent)
    return parent


@pytest.mark.parametrize("name", ["summary.txt", "record.json", "report.html"])
def test_rendering_matches_golden(golden_ledger, name):
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        expected = handle.read()
    assert rendered_outputs(golden_ledger)[name] == expected


def test_show_and_report_agree_on_peak_rss(golden_ledger, capsys):
    # The worker's peak (120 MiB) exceeds every parent sample's, and the
    # parent's max_rss_bytes gauge (110 MiB) is not the run's peak.
    run_dir = os.path.join(golden_ledger, RUN_ID)
    assert cli_main(["show", run_dir]) == 0
    shown = re.search(r"peak RSS ([\d.]+ MiB)", capsys.readouterr().out)
    html_text = render_report(build_report(golden_ledger))
    reported = re.search(r"\(1\)</td><td>([\d.]+ MiB)</td>", html_text)
    assert shown.group(1) == reported.group(1) == "120.0 MiB"


@pytest.mark.parametrize(
    "argv", [["show", "<run>"], ["show", "<run>", "--json"],
             ["report", "<ledger>", "--json"]],
)
def test_each_command_parses_the_event_log_once(golden_ledger, argv,
                                                monkeypatch, capsys):
    original = events_module.read_events_with_errors
    calls = []

    def counting(path):
        calls.append(path)
        return original(path)

    # Patch every telemetry module that bound the reader at import time.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(
            module, "read_events_with_errors", None
        ) is original:
            monkeypatch.setattr(module, "read_events_with_errors", counting)
    run_dir = os.path.join(golden_ledger, RUN_ID)
    argv = [{"<run>": run_dir, "<ledger>": golden_ledger}.get(a, a)
            for a in argv]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_run_json_only_directory_is_a_run_everywhere(tmp_path):
    # A run killed before its first event still has a run.json; the
    # ledger and the single-run commands agree that it is a run.
    run_dir = tmp_path / "run-crashed"
    run_dir.mkdir()
    (run_dir / "run.json").write_text(
        json.dumps({"run_id": "run-crashed", "config": {"seed": 1}})
    )
    assert find_run_dir(str(tmp_path)) == str(run_dir)
    [record] = scan_runs(str(tmp_path))
    assert record.run_id == "run-crashed"
    assert record.config == {"seed": 1}
    assert record.num_events == 0
    assert summarize_run(str(tmp_path))["run_id"] == "run-crashed"


if __name__ == "__main__":  # regenerate the golden files
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        ledger = os.path.join(scratch, "ledger")
        write_golden_run(ledger)
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for filename, text in rendered_outputs(ledger).items():
            with open(os.path.join(GOLDEN_DIR, filename), "w") as handle:
                handle.write(text)
