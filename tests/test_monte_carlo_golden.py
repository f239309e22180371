"""Golden Monte Carlo numbers and event shapes for the three draw loops.

``evaluate_defect_accuracy``, ``simulate_fleet`` and ``layer_sensitivity``
are each run with a ``seed`` and with a live ``rng``, with and without
fault forensics, serial (``workers=0``) and on a 2-worker pool, all
inside one telemetry session.  The per-draw accuracies, the sensitivity
``(name, mean, std)`` rows, the returned seeds and, for every event
kind, its field set and count are compared with
``tests/data/monte_carlo_golden.json``.  Heartbeats and resource
samples depend on wall-clock time and are left out of the counts.

Regenerate with ``PYTHONPATH=src python tests/test_monte_carlo_golden.py``
only for an intended change, and say which values moved.
"""

import json
import os
from collections import defaultdict

import numpy as np

from repro import telemetry
from repro.core import evaluate_defect_accuracy, layer_sensitivity, simulate_fleet
from repro.datasets import DataLoader, make_synthetic_pair
from repro.forensics import ForensicsConfig
from repro.models import MLP
from repro.telemetry import MemorySink

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "monte_carlo_golden.json"
)

#: Event kinds whose count depends on wall-clock time.
UNPINNED_KINDS = {"heartbeat", "resource_sample"}


def _model_and_loader():
    # The MLP and loader of tests/test_parallel_determinism.py.
    model = MLP(48, [16], 4, rng=np.random.default_rng(7))
    _, test = make_synthetic_pair(
        num_classes=4, image_size=4, train_size=8, test_size=24,
        seed=0, bandwidth=1, channels=3,
    )
    return model, DataLoader(test, 24, shuffle=False)


def _streams():
    """``(label, kwargs)`` for the seed-driven and shared-rng protocols."""
    return [
        ("seed", {"seed": 123}),
        ("rng", {"rng": np.random.default_rng(77)}),
    ]


def record():
    """Run every combination in one session; return the golden document."""
    model, loader = _model_and_loader()
    results = {}
    sink = MemorySink()
    with telemetry.session(sink=sink):
        for workers in (0, 2):
            for forensics in (None, ForensicsConfig()):
                mode = "plain" if forensics is None else "forensics"
                for stream, kwargs in _streams():
                    tag = f"w{workers}/{stream}/{mode}"
                    evaluation = evaluate_defect_accuracy(
                        model, loader, 0.05, num_runs=5, workers=workers,
                        forensics=forensics, **kwargs,
                    )
                    results[f"defect_eval/{tag}"] = {
                        "accuracies": evaluation.run_accuracies,
                        "seed": evaluation.seed,
                    }
                for stream, kwargs in _streams():
                    tag = f"w{workers}/{stream}/{mode}"
                    rows = layer_sensitivity(
                        model, loader, 0.1, num_runs=2, workers=workers,
                        forensics=forensics, **kwargs,
                    )
                    results[f"layer_sensitivity/{tag}"] = [
                        [row.name, row.mean_accuracy, row.std_accuracy]
                        for row in rows
                    ]
            for stream, kwargs in _streams():
                report = simulate_fleet(
                    model, loader, 0.05, num_devices=5, workers=workers,
                    **kwargs,
                )
                results[f"fleet/w{workers}/{stream}"] = {
                    "accuracies": report.accuracies,
                    "seed": report.seed,
                }
    fields = defaultdict(set)
    counts = defaultdict(int)
    for event in sink.events:
        kind = event["kind"]
        if kind in UNPINNED_KINDS:
            continue
        fields[kind].update(event)
        counts[kind] += 1
    events = {
        kind: {"count": counts[kind], "fields": sorted(fields[kind])}
        for kind in sorted(counts)
    }
    return {"results": results, "events": events}


def test_monte_carlo_matches_golden():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    # A JSON round trip turns tuples into lists and keeps floats exact.
    actual = json.loads(json.dumps(record()))
    assert actual["results"] == golden["results"]
    assert actual["events"] == golden["events"]


if __name__ == "__main__":  # regenerate the golden file
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
