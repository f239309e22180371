"""Tests for the versioned BENCH_*.json schema and provenance capture."""

import json

import pytest

from repro.bench import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    RunnerConfig,
    SchemaError,
    collect_provenance,
    load_bench,
    validate_bench,
    write_bench,
)
from repro.bench.runner import CaseResult
from repro.bench.schema import build_document
from repro.bench.stats import describe


def _document():
    result = CaseResult(
        name="toy/add",
        suite="fast",
        params={"n": 10},
        repeats=5,
        rejected=0,
        warmup=2,
        stats=describe([0.1, 0.11, 0.09, 0.1, 0.1]),
    )
    return build_document(
        "fast", RunnerConfig().to_dict(), collect_provenance(), [result]
    )


def test_build_document_is_schema_valid():
    doc = _document()
    assert validate_bench(doc) is doc
    assert doc["schema"] == SCHEMA_NAME
    assert doc["schema_version"] == SCHEMA_VERSION


def test_provenance_fields_present(head_sha):
    prov = collect_provenance()
    for key in ("git_sha", "python", "numpy", "platform", "cpu_count",
                "timestamp", "machine", "git_dirty"):
        assert key in prov
    # The SHA of the checkout the test runs in, or None outside git.
    assert prov["git_sha"] == head_sha
    assert head_sha is None or len(head_sha) == 40
    assert prov["python"].count(".") >= 1


def test_provenance_degrades_outside_git(tmp_path):
    prov = collect_provenance(cwd=str(tmp_path))
    assert prov["git_sha"] is None
    assert prov["git_dirty"] is None
    assert prov["numpy"]  # non-git fields still populated


def test_round_trip(tmp_path):
    doc = _document()
    path = str(tmp_path / "BENCH_0.json")
    write_bench(path, doc)
    loaded = load_bench(path)
    assert loaded == doc


def test_validate_rejects_wrong_version():
    doc = _document()
    doc["schema_version"] = 99
    with pytest.raises(SchemaError, match="schema_version"):
        validate_bench(doc)


def test_validate_rejects_missing_cases_and_collects_all_problems():
    doc = _document()
    doc["cases"] = {}
    del doc["provenance"]["git_sha"]
    doc["suite"] = ""
    with pytest.raises(SchemaError) as excinfo:
        validate_bench(doc)
    problems = excinfo.value.problems
    assert any("cases" in p for p in problems)
    assert any("git_sha" in p for p in problems)
    assert any("suite" in p for p in problems)


def test_validate_rejects_malformed_case_stats():
    doc = _document()
    del doc["cases"]["toy/add"]["stats"]["mad"]
    doc["cases"]["toy/add"]["stats"]["median"] = "fast"
    with pytest.raises(SchemaError) as excinfo:
        validate_bench(doc)
    assert any("mad" in p for p in excinfo.value.problems)
    assert any("median" in p for p in excinfo.value.problems)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text("not json {")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_bench(str(path))


def test_written_file_is_plain_json(tmp_path):
    path = str(tmp_path / "BENCH_0.json")
    write_bench(path, _document())
    with open(path) as handle:
        raw = json.load(handle)
    assert raw["cases"]["toy/add"]["stats"]["count"] == 5
