"""Tests for the `repro.parallel` executor: ordering, fallback, retry.

Task functions live at module level because pool workers import them by
qualified name.  Worker-count/chunk-size determinism of the *numeric*
pipeline is covered in test_parallel_determinism.py; here the executor's
own mechanics are exercised with cheap synthetic tasks.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro import telemetry
from repro.models import MLP
from repro.parallel import (
    Broadcast,
    ModelBroadcast,
    ParallelExecutionError,
    ParallelMap,
    WORKERS_ENV,
    default_chunk_size,
    resolve_workers,
)


# -- module-level task functions (workers import these by name) --------------


def _double(task, context):
    return task * 2 + context.get("offset", 0)


def _crash(task, context):
    raise ValueError(f"task {task} always fails")


def _crash_odd(task, context):
    if task % 2 == 1:
        raise ValueError(f"odd task {task}")
    return task


def _flaky(task, context):
    """Fails once per task (tracked by a flag file), then succeeds."""
    flag = os.path.join(context["dir"], f"seen-{task}")
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        raise RuntimeError(f"first attempt at task {task}")
    return task * 10


def _hang(task, context):
    time.sleep(60)
    return task


# -- worker-count and chunking policy ----------------------------------------


def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "7")
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 0


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 0
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert resolve_workers() == 4
    monkeypatch.setenv(WORKERS_ENV, "auto")
    # `auto` counts the cores in the affinity mask, not the machine's.
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers() == 1


def test_resolve_workers_garbage_env_falls_back(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "many")
    assert resolve_workers() == 0
    monkeypatch.setenv(WORKERS_ENV, "-2")
    assert resolve_workers() == 0


def test_resolve_workers_negative_argument_raises():
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_default_chunk_size_targets_four_chunks_per_worker():
    assert default_chunk_size(100, 2) == 13
    assert default_chunk_size(3, 8) == 1
    assert default_chunk_size(0, 4) == 1


def test_parallel_map_rejects_bad_knobs():
    with pytest.raises(ValueError):
        ParallelMap(2, retries=-1)
    with pytest.raises(ValueError):
        ParallelMap(2, timeout=0)
    with pytest.raises(ValueError):
        ParallelMap(2, chunk_size=0)


# -- mapping semantics --------------------------------------------------------


def test_serial_map_preserves_order():
    result = ParallelMap(0).map(_double, [3, 1, 2])
    assert result == [6, 2, 4]


def test_empty_tasks_return_empty_list():
    assert ParallelMap(2).map(_double, []) == []


def test_pool_matches_serial_and_preserves_order():
    tasks = list(range(11))
    serial = ParallelMap(0).map(_double, tasks)
    pooled = ParallelMap(2).map(_double, tasks)
    assert pooled == serial == [t * 2 for t in tasks]


@pytest.mark.parametrize("chunk_size", [1, 3, 7, 100])
def test_chunk_size_does_not_change_results(chunk_size):
    tasks = list(range(9))
    result = ParallelMap(2, chunk_size=chunk_size).map(_double, tasks)
    assert result == [t * 2 for t in tasks]


def test_broadcast_context_reaches_workers():
    tasks = [1, 2, 3]
    pooled = ParallelMap(2).map(_double, tasks, Broadcast(offset=100))
    serial = ParallelMap(0).map(_double, tasks, Broadcast(offset=100))
    assert pooled == serial == [102, 104, 106]


# -- graceful degradation -----------------------------------------------------


def test_bogus_start_method_falls_back_to_serial():
    # Pool creation fails, the map still completes in-process.
    pmap = ParallelMap(2, start_method="no-such-method")
    assert pmap.map(_double, [1, 2]) == [2, 4]


# -- retry / failure reporting ------------------------------------------------


def test_crashing_task_raises_after_retries():
    pmap = ParallelMap(2, retries=1, chunk_size=1)
    with pytest.raises(ParallelExecutionError) as excinfo:
        pmap.map(_crash_odd, [0, 1, 2, 3])
    error = excinfo.value
    assert sorted(f.index for f in error.failures) == [1, 3]
    assert error.completed == 2
    assert all(f.attempts == 2 for f in error.failures)
    assert "ValueError" in error.failures[0].reason


def test_flaky_tasks_recover_on_retry(tmp_path):
    pmap = ParallelMap(2, retries=2, chunk_size=1)
    sink = telemetry.MemorySink()
    with telemetry.session(sink=sink):
        result = pmap.map(_flaky, [1, 2, 3], Broadcast(dir=str(tmp_path)))
    assert result == [10, 20, 30]
    # Every one-task chunk fails once: one parallel_retry event each.
    retries = [e for e in sink.events if e["kind"] == "parallel_retry"]
    assert sorted(e["indices"] for e in retries) == [[0], [1], [2]]
    assert all(e["attempt"] == 1 for e in retries)
    assert all("first attempt at task" in e["reason"] for e in retries)


def test_all_failures_never_return_partial_results():
    pmap = ParallelMap(2, retries=0, chunk_size=2)
    with pytest.raises(ParallelExecutionError) as excinfo:
        pmap.map(_crash, [1, 2, 3])
    assert excinfo.value.completed == 0
    assert len(excinfo.value.failures) == 3


def test_hung_worker_times_out_and_reports():
    pmap = ParallelMap(2, retries=0, chunk_size=2, timeout=0.5)
    started = time.monotonic()
    with pytest.raises(ParallelExecutionError) as excinfo:
        pmap.map(_hang, [1, 2])
    assert time.monotonic() - started < 30
    assert "timed out" in str(excinfo.value)


# -- broadcast wire format ----------------------------------------------------


def test_model_broadcast_parent_side_is_the_live_model():
    model = MLP(8, [4], 3, rng=np.random.default_rng(0))
    assert ModelBroadcast(model).materialize() is model


def test_model_broadcast_pickle_roundtrip():
    model = MLP(8, [4], 3, batch_norm=True, rng=np.random.default_rng(0))
    rebuilt = pickle.loads(pickle.dumps(ModelBroadcast(model))).materialize()
    assert rebuilt is not model
    original_state = model.state_dict()
    rebuilt_state = rebuilt.state_dict()
    assert set(rebuilt_state) == set(original_state)
    for name, value in original_state.items():
        np.testing.assert_array_equal(rebuilt_state[name], value)
    # The rebuilt model is usable, not just state-identical.
    x = np.random.default_rng(1).normal(size=(2, 8))
    np.testing.assert_allclose(rebuilt(x), model(x))


def test_broadcast_bundle_pickles_once_per_worker():
    bundle = Broadcast(offset=5, tag="x")
    clone = pickle.loads(pickle.dumps(bundle))
    assert clone.materialize() == {"offset": 5, "tag": "x"}
