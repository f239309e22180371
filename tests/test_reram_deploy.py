"""Tests for model deployment onto the crossbar simulator."""

import numpy as np
import pytest

from repro import nn, telemetry
from repro.models import MLP, SimpleCNN
from repro.reram import ReRAMDeviceModel, crossbar_parameters, deploy_weights

FINE = ReRAMDeviceModel(g_off=1e-6, g_on=1e-4, levels=4096)


def test_crossbar_parameters_selects_conv_and_linear_weights(rng):
    model = SimpleCNN(in_channels=1, num_classes=3, image_size=8, rng=rng)
    names = [name for name, _ in crossbar_parameters(model)]
    assert all(name.endswith("weight") for name in names)
    # Two convs + one linear.
    assert len(names) == 3
    # BatchNorm gammas are excluded despite being named like weights? They
    # are named 'gamma', so only conv/linear weights appear.
    assert not any("gamma" in name or "bn" in name for name in names)


def test_crossbar_parameters_excludes_biases(rng):
    model = MLP(8, [4], 2, rng=rng)
    names = [name for name, _ in crossbar_parameters(model)]
    assert all("bias" not in name for name in names)


def test_deploy_and_readback_preserves_accuracy_behaviour(rng):
    model = MLP(8, [16], 3, rng=rng)
    x = rng.normal(size=(10, 1, 2, 4))
    model.eval()
    clean = model(x)
    deployed = deploy_weights(model, device=FINE, tile_size=16)
    deployed.load_effective_weights()
    quantised = model(x)
    # Fine quantisation: predictions should essentially match.
    np.testing.assert_allclose(quantised, clean, rtol=0.05, atol=0.05)
    deployed.restore_pristine()
    np.testing.assert_allclose(model(x), clean, atol=1e-12)


def test_deploy_counts_crossbars(rng):
    model = MLP(8, [4], 2, rng=rng)
    sink = telemetry.MemorySink()
    with telemetry.session(sink=sink):
        deployed = deploy_weights(model, device=FINE, tile_size=4)
    # fc1: (8 in x 4 out) -> 2x1 tiles x 2 = 4 xbars;
    # fc2: (4 x 2) -> 1 tile x 2 = 2 xbars.
    assert deployed.num_crossbars == 6
    (event,) = [e for e in sink.events if e["kind"] == "deploy"]
    assert event["model"] == "MLP"
    assert event["tile_size"] == 4
    assert event["num_crossbars"] == 6
    # 8*4 + 4*2 crossbar-resident weights; params adds the 4 + 2 biases.
    assert event["crossbar_weights"] == 40
    assert event["params"] == 46
    assert event["crossbar_cells"] == 2 * 40  # one cell pair per weight


def test_inject_faults_changes_effective_weights(rng):
    model = MLP(8, [16], 3, rng=rng)
    pristine = {
        name: p.data.copy() for name, p in crossbar_parameters(model)
    }
    deployed = deploy_weights(model, device=FINE, tile_size=16)
    count = deployed.inject_faults(0.2, rng)
    assert count > 0
    deployed.load_effective_weights()
    changed = False
    for name, param in crossbar_parameters(model):
        if not np.allclose(param.data, pristine[name], atol=1e-3):
            changed = True
    assert changed
    deployed.restore_pristine()
    for name, param in crossbar_parameters(model):
        np.testing.assert_array_equal(param.data, pristine[name])


def test_clear_faults_then_reload(rng):
    model = MLP(4, [4], 2, rng=rng)
    deployed = deploy_weights(model, device=FINE, tile_size=8)
    deployed.inject_faults(0.5, rng)
    deployed.clear_faults()
    # Cells stay at pinned values until reprogrammed; restore puts the
    # pristine weights back in the *model* regardless.
    deployed.restore_pristine()
    for (name, param), (_, pristine) in zip(
        crossbar_parameters(model), deployed._pristine.items()
    ):
        np.testing.assert_array_equal(param.data, deployed._pristine[name])


def test_custom_ratio_passthrough(rng):
    model = MLP(4, [4], 2, rng=rng)
    deployed = deploy_weights(model, device=FINE, tile_size=8)
    count = deployed.inject_faults(0.3, rng, ratio=(1.0, 0.0))
    assert count > 0
