"""Runtime side of the event registry: validate_event(s) and helpers.

That the registry declares exactly the emitted kinds is covered by
``tests/test_lint_flow.py``; here we pin the validation semantics that
every enabled run applies at emit time and that a recorded run is
checked against offline.
"""

import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.telemetry.schema import (
    BOOKKEEPING_FIELDS,
    EVENT_SCHEMAS,
    fields_for,
    known_kinds,
    validate_event,
    validate_events,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def closed_kind():
    kind = sorted(EVENT_SCHEMAS)[0]
    return kind, EVENT_SCHEMAS[kind]


def test_known_kinds_sorted_and_nonempty():
    kinds = known_kinds()
    assert kinds == tuple(sorted(kinds))
    assert "run_start" in kinds and "epoch_end" in kinds


def test_fields_for():
    kind, fields = closed_kind()
    assert fields_for(kind) == tuple(fields)
    assert fields_for("no_such_kind") is None


def test_validate_event_accepts_schema_and_bookkeeping_fields():
    kind, fields = closed_kind()
    event = {name: 0 for name in fields}
    event.update({name: 0 for name in BOOKKEEPING_FIELDS})
    event["kind"] = kind
    assert validate_event(event) == []


def test_validate_event_flags_unknown_kind():
    problems = validate_event({"kind": "no_such_kind"})
    assert problems and "no_such_kind" in problems[0]


def test_validate_event_flags_missing_kind_and_non_mapping():
    assert validate_event({"ts": 0.0}) == [
        "event: missing or non-string 'kind'"
    ]
    assert validate_event(["not", "a", "mapping"]) == [
        "event: not a mapping"
    ]


def test_validate_event_flags_unknown_field_on_closed_kind():
    kind, _ = closed_kind()
    problems = validate_event({"kind": kind, "no_such_field": 1}, index=3)
    assert problems == [
        f"event 3 ({kind}): field 'no_such_field' is not in the schema"
    ]


def test_validate_event_never_requires_fields():
    # Producers emit conditionally; an event with only bookkeeping is fine.
    kind, _ = closed_kind()
    assert validate_event({"kind": kind}) == []


def test_session_rejects_undeclared_kind_and_field():
    kind, fields = closed_kind()
    with telemetry.session(sink=telemetry.MemorySink()) as run:
        with pytest.raises(ValueError, match="unknown kind 'no_such_kind'"):
            run.emit("no_such_kind")
        with pytest.raises(ValueError, match="'no_such_field'"):
            run.emit(kind, no_such_field=1)
        run.emit(kind, **{name: 0 for name in fields})
    recorded = [e["kind"] for e in run.events.sink.events]
    assert recorded == ["run_start", kind, "run_end"]
    # A disabled run checks nothing: both calls are silent no-ops.
    assert telemetry.current() is telemetry.NULL_RUN
    assert telemetry.NULL_RUN.emit("no_such_kind") is None
    assert telemetry.NULL_RUN.emit(kind, no_such_field=1) is None


def test_validate_events_orders_and_indexes_problems():
    kind, _ = closed_kind()
    problems = validate_events(
        [{"kind": kind}, {"kind": "bogus"}, {"kind": kind, "zzz": 1}]
    )
    assert len(problems) == 2
    assert problems[0].startswith("event 1")
    assert problems[1].startswith("event 2")


def test_cli_validate_catches_drifted_run(tmp_path):
    run_dir = tmp_path / "run-19700101-000000-test"
    run_dir.mkdir()
    kind, _ = closed_kind()
    (run_dir / "events.jsonl").write_text(
        f'{{"kind": "{kind}", "run_id": "r", "seq": 0, "ts": 0.0}}\n'
        '{"kind": "bogus_kind", "run_id": "r", "seq": 1, "ts": 1.0}\n'
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.telemetry", "validate", str(run_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "bogus_kind" in proc.stdout
    # Drop the drifted line: the run now conforms and validate exits 0.
    (run_dir / "events.jsonl").write_text(
        f'{{"kind": "{kind}", "run_id": "r", "seq": 0, "ts": 0.0}}\n'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.telemetry", "validate", str(run_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "conform" in proc.stdout
