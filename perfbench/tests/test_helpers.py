"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import report  # noqa: E402
from stats import Outcomes, percentile, tail_percentile  # noqa: E402
from tracer import ROOT, Span, Tracer, self_times, union_length  # noqa: E402


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(ROOT, 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once_and_clips_overhang():
    spans = [
        Span("parent", 0.0, 10.0, -1),
        Span("x", 1.0, 5.0, 0),
        Span("y", 3.0, 7.0, 0),
        Span("late", 9.0, 12.0, 0),
    ]
    # Children cover [1, 7] and, clipped, [9, 10]: 7 of the parent's 10.
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert union_length([(1.0, 5.0), (3.0, 7.0), (9.0, 10.0)]) == pytest.approx(7.0)


def test_layer_table_partitions_each_traced_unit():
    spans = [
        Span("setup", 0.0, 1.0, -1),
        Span(ROOT, 2.0, 6.0, -1),
        Span("conv", 2.5, 3.5, 1),
        Span("conv", 4.0, 5.0, 1),
        Span(ROOT, 7.0, 9.0, -1),
        Span("bn", 7.5, 8.0, 4),
    ]
    table = report.LayerTable(spans)
    rows = {name: (self_s, calls) for name, self_s, calls, _ in table.rows()}
    assert table.units == 2
    assert rows["conv"] == (pytest.approx(1.0), 1.0)
    assert rows["bn"] == (pytest.approx(0.25), 0.5)
    assert rows["unattributed"][0] == pytest.approx((2.0 + 1.5) / 2)
    assert "setup" not in rows
    total = sum(self_s for self_s, _ in rows.values())
    assert total == pytest.approx(table.per_unit(table.wall_s))
    assert table.outside_total("setup") == pytest.approx(1.0)


def test_live_tracer_self_times_add_up_and_uninstall_restores():
    class Base:
        def work(self):
            return 1

    class Leaf(Base):
        pass

    class Outer:
        def run(self, leaf):
            return leaf.work() + leaf.work()

    tracer = Tracer()
    tracer.patch_method(Leaf, "work", "leaf")
    tracer.patch_method(Outer, "run", "outer")
    root = tracer.begin(ROOT)
    assert Outer().run(Leaf()) == 2
    tracer.end(root)
    tracer.uninstall()
    assert "work" not in vars(Leaf) and Outer.run.__name__ == "run"
    assert not hasattr(Outer.run, "__wrapped__")
    names = [span.name for span in tracer.spans]
    assert names == [ROOT, "outer", "leaf", "leaf"]
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration)


def test_chrome_trace_passes_repro_validator():
    from repro.telemetry.trace import validate_trace

    tracer = Tracer()
    root = tracer.begin(ROOT)
    tracer.end(tracer.begin("nn.conv2d.fwd"))
    tracer.end(root)
    assert validate_trace(tracer.chrome_trace()) == []


# -- percentile rule ---------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (200, 95.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    pct, value, count = tail_percentile([float(i) for i in range(n)])
    assert (pct, count) == (expected, n)
    assert value == pytest.approx(np.percentile(np.arange(n), expected))


def test_tail_falls_back_to_median_below_twenty_samples():
    assert tail_percentile([1.0, 2.0, 9.0]) == (50.0, 2.0, 3)
    assert tail_percentile([]) == (50.0, 0.0, 0)


def test_percentile_matches_numpy_linear():
    samples = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for pct in (0, 10, 50, 75, 90, 100):
        assert percentile(samples, pct) == pytest.approx(np.percentile(samples, pct))


# -- error_rate --------------------------------------------------------------
def test_error_rate_counts_each_operation_once():
    outcomes = Outcomes()
    for op in ("d0", "d1", "d2", "d3"):
        outcomes.attempt(op)
    outcomes.fail("d1", "raised")
    outcomes.fail("d1", "check failed")
    outcomes.fail_all(["d1", "d2"], "state not restored")
    assert (outcomes.attempted, outcomes.failed) == (4, 2)
    assert outcomes.error_rate == 0.5
    assert outcomes.reasons() == ["raised", "state not restored"]


def test_failing_an_unattempted_operation_also_attempts_it():
    outcomes = Outcomes()
    outcomes.attempt("a")
    outcomes.fail("b", "raised before it was registered")
    assert (outcomes.attempted, outcomes.failed) == (2, 1)


def test_error_rate_with_nothing_attempted_is_total_failure():
    assert Outcomes().error_rate == 1.0


# -- seed threading ----------------------------------------------------------
def _inputs(cls, seed):
    import workloads

    workload = cls(seed, out_dir=HERE)
    workload.setup()
    if isinstance(workload, workloads.McEvalR20):
        images = next(iter(workload.loader))[0]
        return [images, *workload.model.state_dict().values()]
    if isinstance(workload, workloads.FtTrainR8):
        return [workload.train_set.images, *workload.model.state_dict().values()]
    from repro.experiments.runner import make_loaders

    train, test = make_loaders(workload.scale, 10)
    return [train.dataset.images, test.dataset.images]


@pytest.mark.parametrize("name", ["mc_eval_r20", "ft_train_r8", "pipeline_cell_w2"])
def test_seed_threads_into_generated_inputs(name):
    import workloads

    cls = workloads.WORKLOADS[name]
    first, again, other = _inputs(cls, 3), _inputs(cls, 3), _inputs(cls, 4)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])


# -- provenance and thread cap -----------------------------------------------
def test_git_state_outside_a_repository_is_null(tmp_path):
    import sysinfo

    assert sysinfo.git_state(str(tmp_path)) == {"git_sha": None, "git_dirty": None}


def _forked_blas_threads(_):
    import sysinfo

    return sysinfo._openblas_threads()


def test_blas_thread_cap_reaches_forked_workers_and_is_undone():
    import multiprocessing

    import sysinfo

    found = sysinfo._openblas_threads()
    if found is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    with sysinfo.blas_threads(1):
        assert sysinfo._openblas_threads() == 1
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.map(_forked_blas_threads, [0]) == [1]
    assert sysinfo._openblas_threads() == found


# -- BENCHMARK.json ------------------------------------------------------------
def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER
    )
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 and not math.isnan(m["bound"]) for m in spec["end_to_end"])
