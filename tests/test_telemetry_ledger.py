"""Tests for repro.telemetry.ledger and the python -m repro.telemetry CLI."""

import json
import os

import pytest

from repro import telemetry
from repro.telemetry.cli import main as cli_main
from repro.telemetry.ledger import (
    INDEX_FILENAME,
    INDEX_VERSION,
    RunRecord,
    build_index,
    diff_runs,
    load_index,
    render_diff,
    scan_runs,
)


def _make_run(directory, seed, loss, steps, span_seconds=0.0):
    """One synthetic finished run with a controllable metric fingerprint."""
    with telemetry.session(
        str(directory), config={"experiment": "t", "seed": seed}
    ) as run:
        with run.span("work"):
            pass
        run.metrics.counter("train/steps_total").inc(steps)
        run.metrics.gauge("train/epoch_loss").set(loss)
        return run.directory


@pytest.fixture()
def two_runs(tmp_path):
    old = _make_run(tmp_path, seed=1, loss=0.8, steps=10)
    new = _make_run(tmp_path, seed=2, loss=0.5, steps=30)
    return str(tmp_path), old, new


def test_run_record_digests_artefacts(two_runs):
    parent, old, _ = two_runs
    record = RunRecord.from_run_dir(old)
    assert record.run_id == os.path.basename(old)
    assert record.config == {"experiment": "t", "seed": 1}
    assert record.counters["train/steps_total"] == 10
    assert record.gauges["train/epoch_loss"] == 0.8
    assert record.duration_seconds is not None and record.duration_seconds >= 0
    assert record.num_events >= 4  # run_start, span pair, run_end
    assert record.spans["work"]["count"] == 1
    assert record.skipped_lines == 0
    assert RunRecord.from_dict(record.as_dict()) == record


def test_scan_and_index_round_trip(two_runs):
    parent, old, new = two_runs
    records = scan_runs(parent)
    assert [r.run_dir for r in records] == sorted([old, new])

    index = build_index(parent)
    assert index["version"] == INDEX_VERSION
    assert index["num_runs"] == 2
    index_path = os.path.join(parent, INDEX_FILENAME)
    assert os.path.isfile(index_path)

    loaded = load_index(parent)
    assert loaded == index

    # A future-versioned index is rebuilt, not misread.
    with open(index_path, "w") as handle:
        json.dump({"version": INDEX_VERSION + 1, "runs": []}, handle)
    rebuilt = load_index(parent)
    assert rebuilt["num_runs"] == 2


def test_scan_accepts_single_run_dir(two_runs):
    _, old, _ = two_runs
    records = scan_runs(old)
    assert len(records) == 1
    assert records[0].run_dir == old


def test_diff_reports_metric_deltas(two_runs):
    _, old, new = two_runs
    diff = diff_runs(old, new)
    gauges = {e["name"]: e for e in diff["gauges"]}
    assert gauges["train/epoch_loss"]["delta"] == pytest.approx(-0.3)
    counters = {e["name"]: e for e in diff["counters"]}
    assert counters["train/steps_total"]["delta"] == 20
    text = render_diff(diff)
    assert "train/epoch_loss" in text
    assert "train/steps_total" in text


def test_diff_flags_span_regressions():
    old = RunRecord(
        run_id="a", run_dir="a", spans={"work": {"count": 1, "seconds": 1.0}}
    )
    new = RunRecord(
        run_id="b", run_dir="b", spans={"work": {"count": 1, "seconds": 2.0}}
    )
    diff = diff_runs(old, new, threshold=0.5)
    assert [r["name"] for r in diff["regressions"]] == ["work"]
    assert diff_runs(old, new, threshold=2.0)["regressions"] == []
    with pytest.raises(ValueError):
        diff_runs(old, new, threshold=-0.1)


def test_cli_ls_lists_runs(two_runs, capsys):
    parent, old, new = two_runs
    assert cli_main(["ls", parent]) == 0
    out = capsys.readouterr().out
    assert os.path.basename(old) in out
    assert os.path.basename(new) in out
    assert os.path.isfile(os.path.join(parent, INDEX_FILENAME))


def test_cli_show_json_and_text(two_runs, capsys):
    _, old, _ = two_runs
    assert cli_main(["show", old, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["run_id"] == os.path.basename(old)
    assert cli_main(["show", old]) == 0
    assert "Telemetry summary" in capsys.readouterr().out


def test_cli_diff_reports_and_gates(two_runs, capsys):
    _, old, new = two_runs
    assert cli_main(["diff", old, new]) == 0
    assert "train/epoch_loss" in capsys.readouterr().out
    # Span growth beyond a tiny threshold + the gate flag -> exit 1.
    code = cli_main(
        ["diff", old, new, "--threshold", "0", "--fail-on-regression",
         "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    spans_changed = any(e["name"] == "work" for e in payload["spans"])
    assert code == (1 if payload["regressions"] else 0)
    assert spans_changed or payload["spans"] == []


def test_cli_trace_exports(two_runs, capsys):
    _, old, _ = two_runs
    os.remove(os.path.join(old, "trace.json"))
    assert cli_main(["trace", old]) == 0
    path = capsys.readouterr().out.strip()
    assert os.path.isfile(path)
    assert telemetry.validate_trace(json.load(open(path))) == []


def test_cli_trace_reads_the_event_log_once(two_runs, monkeypatch, capsys):
    from repro.telemetry import events as events_module
    from repro.telemetry import trace as trace_module

    _, old, _ = two_runs
    reads = []
    original = events_module.read_events_with_errors

    def counting_reader(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(events_module, "read_events_with_errors", counting_reader)
    monkeypatch.setattr(trace_module, "read_events_with_errors", counting_reader)
    assert cli_main(["trace", old]) == 0
    assert capsys.readouterr().out.strip() == os.path.join(old, "trace.json")
    assert reads == [os.path.join(old, "events.jsonl")]


def test_cli_missing_directory_exits_2(tmp_path, capsys):
    assert cli_main(["ls", str(tmp_path / "nope")]) == 2
    assert cli_main(["show", str(tmp_path / "nope")]) == 2


def test_runs_by_config_groups_and_sorts(two_runs):
    from repro.telemetry.ledger import runs_by_config

    parent, _, _ = two_runs
    by_seed = runs_by_config(parent, "seed")
    assert set(by_seed) == {"1", "2"}
    assert all(len(records) == 1 for records in by_seed.values())
    by_exp = runs_by_config(parent, "experiment")
    assert set(by_exp) == {"t"}
    assert len(by_exp["t"]) == 2
    run_ids = [r.run_id for r in by_exp["t"]]
    assert run_ids == sorted(run_ids)
    # keys absent from every run, and missing directories, come back empty
    assert runs_by_config(parent, "nope") == {}
    assert runs_by_config(os.path.join(parent, "missing"), "seed") == {}
