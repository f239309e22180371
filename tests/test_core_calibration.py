"""Tests for post-deployment BatchNorm recalibration."""

import copy

import numpy as np
import pytest

from repro import nn
from repro.core import (
    FaultInjector,
    Trainer,
    evaluate_accuracy,
    recalibrate_batchnorm,
)
from repro.datasets import ArrayDataset, DataLoader
from repro.models import MLP, SimpleCNN


@pytest.fixture
def cnn_setup(rng):
    from repro.datasets import make_synthetic_pair

    train_set, test_set = make_synthetic_pair(
        num_classes=4, image_size=8, train_size=200, test_size=120,
        seed=31, noise_sigma=0.4, max_shift=1,
    )
    train = DataLoader(train_set, 40, shuffle=True, seed=0)
    test = DataLoader(test_set, 120, shuffle=False)
    model = SimpleCNN(in_channels=3, num_classes=4, image_size=8, width=8,
                      rng=rng)
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    Trainer(model, opt).fit(train, 8)
    return model, train, test


def test_returns_batch_count(cnn_setup):
    model, train, _ = cnn_setup
    consumed = recalibrate_batchnorm(model, train, num_batches=2)
    assert consumed == 2


def test_full_epoch_when_unlimited(cnn_setup):
    model, train, _ = cnn_setup
    consumed = recalibrate_batchnorm(model, train)
    assert consumed == len(train)


def test_no_bn_model_returns_zero(rng):
    model = MLP(8, [8], 3, rng=rng)  # no batch norm
    loader = DataLoader(
        ArrayDataset(rng.normal(size=(8, 1, 2, 4)),
                     rng.integers(0, 3, size=8)),
        4,
    )
    assert recalibrate_batchnorm(model, loader) == 0


def test_parameters_untouched(cnn_setup):
    model, train, _ = cnn_setup
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    recalibrate_batchnorm(model, train, num_batches=2)
    for n, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, before[n])


def test_running_stats_match_plain_train_forwards(cnn_setup):
    """Recalibration's forwards run under no_grad(); the running
    statistics are bit-identical to plain train-mode forwards'."""
    model, train, _ = cnn_setup
    loader = DataLoader(train.dataset, 40, shuffle=False)
    reference = copy.deepcopy(model)
    recalibrate_batchnorm(model, loader, momentum=None)
    reference.train()
    for images, _ in loader:
        reference(images)
    for (name, got), (_, want) in zip(
        model.named_buffers(), reference.named_buffers()
    ):
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert not any(
        isinstance(value, np.ndarray)
        for module in model.modules()
        if isinstance(module, nn.Conv2d)
        for value in vars(module).values()
    )


def test_buffers_change(cnn_setup, rng):
    model, train, _ = cnn_setup
    # Perturb weights so the statistics genuinely shift.
    injector = FaultInjector(model, rng=rng)
    injector.inject(0.1)
    before = {n: b.copy() for n, b in model.named_buffers()}
    recalibrate_batchnorm(model, train, num_batches=3)
    changed = any(
        not np.allclose(b, before[n]) for n, b in model.named_buffers()
    )
    injector.restore()
    assert changed


def test_restores_mode_and_momentum(cnn_setup):
    model, train, _ = cnn_setup
    model.eval()
    bn = next(
        m for m in model.modules() if isinstance(m, nn.BatchNorm2d)
    )
    original_momentum = bn.momentum
    recalibrate_batchnorm(model, train, num_batches=1, momentum=0.9)
    assert not model.training
    assert bn.momentum == original_momentum


def test_recalibration_recovers_accuracy_under_faults(cnn_setup):
    """The headline behaviour: with faulty weights, refreshed BN stats
    recover accuracy on average across devices."""
    model, train, test = cnn_setup
    rng = np.random.default_rng(3)
    deltas = []
    for _ in range(6):
        faulty = copy.deepcopy(model)
        FaultInjector(faulty, rng=rng).inject(0.05)
        before = evaluate_accuracy(faulty, test)
        recalibrate_batchnorm(faulty, train, momentum=0.3)
        after = evaluate_accuracy(faulty, test)
        deltas.append(after - before)
    assert np.mean(deltas) > -1.0  # at minimum it must not hurt
    # And typically it helps visibly on at least some devices.
    assert max(deltas) > 0.0
