"""Integration tests for the table/figure harness at CI scale."""

import numpy as np
import pytest

from repro import telemetry
from repro.experiments import (
    get_scale,
    run_figure2,
    run_table1,
    run_table2,
)
from repro.telemetry.schema import BOOKKEEPING_FIELDS, EVENT_SCHEMAS

CI = get_scale("ci").with_overrides(
    train_rates=(0.05,), defect_runs=3,
    test_rates=(0.0, 0.01, 0.05),
)


@pytest.fixture(scope="module")
def table1_small():
    return run_table1(CI, dataset="small")


def test_table1_has_all_rows(table1_small):
    # Baseline + one-shot + progressive per training rate.
    assert len(table1_small.reports) == 1 + 2 * len(CI.train_rates)
    assert table1_small.baseline.method == "Baseline Pretrained Model"


def test_table1_defect_grid_complete(table1_small):
    for report in table1_small.reports:
        for rate in CI.test_rates:
            report.acc_defect(rate)  # raises if missing


def test_table1_renders_text(table1_small):
    assert "Table I" in table1_small.text
    assert "Baseline" in table1_small.text
    assert "One-Shot" in table1_small.text


def test_table1_accuracy_monotone_tendency(table1_small):
    """Accuracy at the highest rate must not beat accuracy at rate 0."""
    for report in table1_small.reports:
        assert report.acc_defect(0.05) <= report.acc_defect(0.0) + 5.0


def test_table1_invalid_dataset():
    with pytest.raises(ValueError):
        run_table1(CI, dataset="medium")


def test_table2_rows_and_scores():
    scale = CI.with_overrides(train_rates=(0.05,))
    sink = telemetry.MemorySink()
    with telemetry.session(sink=sink):
        result = run_table2(scale, sparsity=0.5, train_rates=(0.05,))
    # 2 backbones x (1 baseline + 2 methods).
    assert len(result.rows) == 6
    for row in result.rows:
        assert row["ss_1"] > 0
        assert row["ss_2"] > 0
    assert "SS(0.01)" in result.text
    reports = [e for e in sink.events if e["kind"] == "method_report"]
    assert [e["method"] for e in reports] == [
        row["method"] for row in result.rows
    ]
    for event, row in zip(reports, result.rows):
        assert set(event) - set(BOOKKEEPING_FIELDS) == set(
            EVENT_SCHEMAS["method_report"]
        )
        assert event["acc_retrain"] == row["acc_retrain"]
        assert set(event["defect"]) == {
            str(row["rate_1"]), str(row["rate_2"])
        }
        assert event["metadata"]["table"] == "table2"


def test_figure2_curves():
    result = run_figure2(CI, dataset="small")
    assert set(result.curves) == {
        "Dense",
        "One-Shot Pruned 40%",
        "ADMM Pruned 40%",
        "One-Shot Pruned 70%",
        "ADMM Pruned 70%",
    }
    for curve in result.curves.values():
        assert set(curve) == set(CI.test_rates)
    assert "Figure 2" in result.text


def test_figure2_invalid_dataset():
    with pytest.raises(ValueError):
        run_figure2(CI, dataset="huge")
