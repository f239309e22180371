"""Worker-side telemetry capture and the parent-side merge.

A pool worker records its chunk's events/metrics into a MemorySink
session and ships them back; the parent merges metrics into its own
registry and re-emits the events stamped with `worker_pid`.  The
observable contract: running under a pool loses *no* telemetry relative
to serial, modulo ordering.
"""

from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.core import evaluate_defect_accuracy, layer_sensitivity, simulate_fleet
from repro.datasets import DataLoader, make_synthetic_pair
from repro.models import MLP
from repro.telemetry import MemorySink, MetricsRegistry


# -- MetricsRegistry.dump / merge --------------------------------------------


def test_dump_round_trips_through_merge():
    source = MetricsRegistry(enabled=True)
    source.counter("draws").inc(3)
    source.gauge("loss").set(0.25)
    source.histogram("acc").observe(10.0)
    source.histogram("acc").observe(20.0)

    target = MetricsRegistry(enabled=True)
    target.counter("draws").inc(1)
    target.histogram("acc").observe(5.0)
    target.merge(source.dump())

    assert target.counter("draws").value == 4
    assert target.gauge("loss").value == 0.25
    assert sorted(target.histogram("acc").values) == [5.0, 10.0, 20.0]


def test_merge_gauge_is_last_wins_and_skips_unset():
    source = MetricsRegistry(enabled=True)
    source.gauge("set").set(2.0)
    source.gauge("unset")  # never written; must not clobber the target

    target = MetricsRegistry(enabled=True)
    target.gauge("set").set(1.0)
    target.gauge("unset").set(9.0)
    target.merge(source.dump())

    assert target.gauge("set").value == 2.0
    assert target.gauge("unset").value == 9.0


def test_merge_into_disabled_registry_is_noop():
    source = MetricsRegistry(enabled=True)
    source.counter("draws").inc(5)
    disabled = MetricsRegistry(enabled=False)
    disabled.merge(source.dump())  # must not raise or allocate instruments
    assert disabled.snapshot()["counters"] == {}


# -- end-to-end capture through a real pool ----------------------------------


@pytest.fixture(scope="module")
def model():
    return MLP(48, [16], 4, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def loader():
    _, test = make_synthetic_pair(
        num_classes=4, image_size=4, train_size=8, test_size=24,
        seed=0, bandwidth=1, channels=3,
    )
    return DataLoader(test, 24, shuffle=False)


def _run_instrumented(model, loader, workers):
    sink = MemorySink()
    with telemetry.session(sink=sink) as run:
        evaluation = evaluate_defect_accuracy(
            model, loader, 0.05, num_runs=4, seed=11, workers=workers
        )
        snapshot = run.metrics.snapshot()
    return evaluation, snapshot, sink.events


def test_pool_run_loses_no_per_draw_telemetry(model, loader):
    evaluation, metrics, events = _run_instrumented(model, loader, workers=2)

    assert metrics["counters"]["eval/fault_draws_total"] == 4
    assert metrics["counters"]["parallel/tasks_total"] == 4
    assert metrics["histograms"]["eval/defect_accuracy"]["count"] == 4

    draws = [e for e in events if e["kind"] == "defect_draw"]
    assert len(draws) == 4
    # Per-draw provenance survives the hop: same seeds/accuracies as the
    # result, each event stamped with the worker that produced it.
    assert sorted(e["seed"] for e in draws) == [11, 12, 13, 14]
    assert Counter(e["accuracy"] for e in draws) == Counter(
        evaluation.run_accuracies
    )
    assert all(e["worker_pid"] for e in draws)

    kinds = {e["kind"] for e in events}
    assert "parallel_map_start" in kinds
    assert "parallel_map_end" in kinds
    assert "parallel_chunk" in kinds
    # Worker session bookkeeping must not leak into the parent stream.
    assert "run_start" not in {e["kind"] for e in events[1:]}


def test_pool_and_serial_telemetry_agree_on_the_pipeline_counts(model, loader):
    _, serial_metrics, serial_events = _run_instrumented(model, loader, 0)
    _, pool_metrics, pool_events = _run_instrumented(model, loader, 2)

    assert (
        pool_metrics["counters"]["eval/fault_draws_total"]
        == serial_metrics["counters"]["eval/fault_draws_total"]
    )
    serial_draws = [e for e in serial_events if e["kind"] == "defect_draw"]
    pool_draws = [e for e in pool_events if e["kind"] == "defect_draw"]
    strip = lambda e: (e["p_sa"], e["draw"], e["seed"], e["accuracy"])  # noqa: E731
    assert sorted(map(strip, pool_draws)) == sorted(map(strip, serial_draws))


def test_disabled_telemetry_ships_nothing(model, loader):
    # No session active: capture is off and the pool path must not
    # resurrect telemetry or crash shipping a None payload.
    evaluation = evaluate_defect_accuracy(
        model, loader, 0.05, num_runs=4, seed=11, workers=2
    )
    assert evaluation.num_runs == 4
    assert not telemetry.current().enabled


# -- shared-rng fallback: one event per entry point --------------------------


def _defect_eval(model, loader, **kwargs):
    evaluation = evaluate_defect_accuracy(model, loader, 0.05, num_runs=4, **kwargs)
    return evaluation.run_accuracies, evaluation.seed


def _fleet(model, loader, **kwargs):
    report = simulate_fleet(model, loader, 0.05, num_devices=4, **kwargs)
    return report.accuracies, report.seed


def _sensitivity(model, loader, **kwargs):
    rows = layer_sensitivity(model, loader, 0.1, num_runs=2, **kwargs)
    # A sensitivity sweep records no base seed.
    return [(r.name, r.mean_accuracy, r.std_accuracy) for r in rows], None


@pytest.mark.parametrize(
    "entry_point",
    [_defect_eval, _fleet, _sensitivity],
    ids=["defect_eval", "fleet", "sensitivity"],
)
def test_shared_rng_requests_fall_back_to_serial(entry_point, model, loader):
    # The shared-stream protocol is order-dependent, so a worker request
    # runs serial, gives the serial numbers and says so exactly once.
    serial = entry_point(model, loader, rng=np.random.default_rng(77), workers=0)
    sink = MemorySink()
    with telemetry.session(sink=sink):
        pooled = entry_point(
            model, loader, rng=np.random.default_rng(77), workers=2
        )
    assert pooled == serial
    assert pooled[1] is None
    fallbacks = [e for e in sink.events if e["kind"] == "parallel_fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0]["workers"] == 2
    assert "parallel_map_start" not in {e["kind"] for e in sink.events}
