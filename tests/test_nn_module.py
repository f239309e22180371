"""Tests for Parameter and Module base machinery."""

import numpy as np
import pytest

from repro import nn


class TwoLayer(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(4, 3, rng=rng)
        self.fc2 = nn.Linear(3, 2, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(x))

    def backward(self, g):
        return self.fc1.backward(self.fc2.backward(g))


def test_parameter_holds_float64_and_zero_grad():
    p = nn.Parameter(np.ones((2, 2), dtype=np.float32))
    assert p.data.dtype == np.float64
    p.grad += 3.0
    p.zero_grad()
    assert np.all(p.grad == 0)


def test_parameter_shape_and_size():
    p = nn.Parameter(np.zeros((3, 5)))
    assert p.shape == (3, 5)
    assert p.size == 15


def test_named_parameters_order_and_prefixes(rng):
    model = TwoLayer(rng)
    names = [name for name, _ in model.named_parameters()]
    assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]


def test_parameters_returns_all(rng):
    model = TwoLayer(rng)
    assert len(model.parameters()) == 4


def test_num_parameters(rng):
    model = TwoLayer(rng)
    assert model.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2


def test_train_eval_propagates(rng):
    model = TwoLayer(rng)
    model.eval()
    assert not model.training
    assert not model.fc1.training
    model.train()
    assert model.fc2.training


def test_zero_grad_clears_all(rng):
    model = TwoLayer(rng)
    x = rng.normal(size=(5, 4))
    out = model(x)
    model.backward(np.ones_like(out))
    assert any(np.any(p.grad != 0) for p in model.parameters())
    model.zero_grad()
    assert all(np.all(p.grad == 0) for p in model.parameters())


def test_state_dict_roundtrip(rng):
    model = TwoLayer(rng)
    state = model.state_dict()
    other = TwoLayer(np.random.default_rng(999))
    other.load_state_dict(state)
    for (n1, p1), (n2, p2) in zip(
        model.named_parameters(), other.named_parameters()
    ):
        assert n1 == n2
        np.testing.assert_array_equal(p1.data, p2.data)


def test_state_dict_returns_copies(rng):
    model = TwoLayer(rng)
    state = model.state_dict()
    state["fc1.weight"][...] = 0.0
    assert not np.all(model.fc1.weight.data == 0.0)


def test_load_state_dict_missing_key_raises(rng):
    model = TwoLayer(rng)
    state = model.state_dict()
    del state["fc1.weight"]
    with pytest.raises(KeyError):
        model.load_state_dict(state)


def test_load_state_dict_shape_mismatch_raises(rng):
    model = TwoLayer(rng)
    state = model.state_dict()
    state["fc1.weight"] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        model.load_state_dict(state)


def test_buffers_registered_and_saved():
    bn = nn.BatchNorm1d(4)
    state = bn.state_dict()
    assert "running_mean" in state
    assert "running_var" in state


def test_buffer_roundtrip_through_state_dict(rng):
    bn = nn.BatchNorm1d(3)
    bn(rng.normal(size=(10, 3)))  # update running stats
    state = bn.state_dict()
    fresh = nn.BatchNorm1d(3)
    fresh.load_state_dict(state)
    np.testing.assert_allclose(fresh.running_mean, bn.running_mean)
    np.testing.assert_allclose(fresh.running_var, bn.running_var)


def test_set_buffer_unknown_name_raises():
    bn = nn.BatchNorm1d(3)
    with pytest.raises(KeyError):
        bn.set_buffer("nonexistent", np.zeros(3))


def test_modules_iterates_tree(rng):
    model = TwoLayer(rng)
    kinds = [type(m).__name__ for m in model.modules()]
    assert kinds == ["TwoLayer", "Linear", "Linear"]


def test_forward_backward_not_implemented():
    m = nn.Module()
    with pytest.raises(NotImplementedError):
        m.forward(np.zeros(1))
    with pytest.raises(NotImplementedError):
        m.backward(np.zeros(1))


# -- no_grad() inference mode --------------------------------------------------


def _random_bn_stats(model, rng):
    """Non-trivial running statistics and affine parameters on every BN."""
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            c = module.num_features
            module.set_buffer("running_mean", rng.normal(size=c))
            module.set_buffer("running_var", rng.uniform(0.2, 3.0, size=c))
            module.gamma.data[...] = rng.normal(size=c)
            module.beta.data[...] = rng.normal(size=c)
    return model


def _inference_model(name, rng):
    """``(model, input)`` in eval mode with random BN statistics."""
    from repro.models import SimpleCNN, resnet8, resnet20
    from repro.reram import CrossbarMapper, convert_to_analog

    if name == "resnet8":
        model, shape = resnet8(num_classes=5, rng=rng), (3, 3, 12, 12)
    elif name == "resnet20":
        model = resnet20(num_classes=5, base_width=8, rng=rng)
        shape = (3, 3, 12, 12)
    elif name == "simplecnn":
        model = SimpleCNN(in_channels=3, num_classes=5, image_size=8, rng=rng)
        shape = (3, 3, 8, 8)
    elif name == "sequential_bias":
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.Conv2d(4, 6, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(6),
            nn.GlobalAvgPool2d(),
        )
        for conv in (model[0], model[3]):
            conv.bias.data[...] = rng.normal(size=conv.out_channels)
        shape = (3, 3, 9, 9)
    else:
        model = convert_to_analog(
            resnet8(num_classes=5, base_width=4, rng=rng),
            CrossbarMapper(tile_size=64),
        )
        shape = (2, 3, 8, 8)
    return _random_bn_stats(model, rng).eval(), rng.normal(size=shape)


@pytest.mark.parametrize(
    "name",
    ["resnet8", "resnet20", "simplecnn", "sequential_bias", "analog_resnet8"],
)
def test_no_grad_logits_equal_plain_eval_logits(rng, name):
    """ResNets (stride-2 option-B shortcuts), a SimpleCNN, convs with a
    bias and an analog ResNet, whose convs are not fused, give the same
    outputs."""
    model, x = _inference_model(name, rng)
    plain = model(x)
    with nn.no_grad():
        inferred = model(x)
    assert np.array_equal(plain, inferred)


def test_no_grad_fuses_conv_bn_relu_runs(rng, monkeypatch):
    """BN and ReLU run inside the conv's pass: their own forwards are not
    called, except where a hook rules fusion out."""
    from repro.models import resnet8

    model = _random_bn_stats(resnet8(num_classes=5, rng=rng), rng).eval()
    calls = []
    for cls in (nn.BatchNorm2d, nn.ReLU):

        def counted(self, x, __original=cls.forward):
            calls.append(type(self).__name__)
            return __original(self, x)

        monkeypatch.setattr(cls, "forward", counted)
    x = rng.normal(size=(2, 3, 8, 8))
    with nn.no_grad():
        model(x)
    assert calls == []
    model.stem[1].register_forward_hook(lambda m, x, out: None)
    with nn.no_grad():
        model(x)
    assert calls == ["BatchNorm2d", "ReLU"]
    model.eval()
    model(x)  # outside no_grad() every layer runs its own forward
    assert calls.count("BatchNorm2d") == 1 + 9 and calls.count("ReLU") == 1 + 7


def test_no_grad_hooks_see_every_leaf_output(rng):
    from repro.forensics import named_leaf_modules
    from repro.models import resnet8

    model = _random_bn_stats(resnet8(num_classes=5, rng=rng), rng).eval()
    seen = {}
    for name, leaf in named_leaf_modules(model):
        leaf.register_forward_hook(
            lambda m, x, out, __name=name: seen.__setitem__(__name, out)
        )
    x = rng.normal(size=(3, 3, 12, 12))
    plain_logits = model(x)
    plain = dict(seen)
    seen.clear()
    with nn.no_grad():
        logits = model(x)
    assert np.array_equal(plain_logits, logits)
    assert seen.keys() == plain.keys() == dict(named_leaf_modules(model)).keys()
    for name, out in plain.items():
        assert np.array_equal(out, seen[name]), name


def _held_arrays(module):
    """ndarrays a module holds (also inside tuples/lists) outside its
    registered buffers."""
    buffers = {id(value) for value in module._buffers.values()}
    for value in vars(module).values():
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(item, np.ndarray) and id(item) not in buffers:
                yield item


def test_no_grad_forward_retains_no_activations(rng):
    """After a training step and then a no_grad() forward, no module
    holds an array besides its parameters and buffers: the forward keeps
    nothing and clears what the training step left."""
    from repro.models import SimpleCNN, resnet20

    for model, shape in [
        (resnet20(num_classes=5, base_width=8, rng=rng), (4, 3, 12, 12)),
        (SimpleCNN(in_channels=3, num_classes=5, image_size=8, rng=rng), (4, 3, 8, 8)),
    ]:
        x = rng.normal(size=shape)
        model.train()
        model.backward(np.ones_like(model(x)))
        assert any(any(True for _ in _held_arrays(m)) for m in model.modules())
        model.eval()
        with nn.no_grad():
            model(x)
        for module in model.modules():
            assert list(_held_arrays(module)) == [], type(module).__name__


@pytest.mark.parametrize(
    "layer,shape",
    [
        (lambda rng: nn.Conv2d(2, 3, 3, padding=1, rng=rng), (2, 2, 5, 5)),
        (lambda rng: nn.BatchNorm2d(2), (2, 2, 3, 3)),
        (lambda rng: nn.BatchNorm2d(2).eval(), (2, 2, 3, 3)),
        (lambda rng: nn.BatchNorm1d(3), (4, 3)),
        (lambda rng: nn.GroupNorm(1, 2), (2, 2, 3, 3)),
        (lambda rng: nn.ReLU(), (2, 3)),
        (lambda rng: nn.LeakyReLU(), (2, 3)),
        (lambda rng: nn.Tanh(), (2, 3)),
        (lambda rng: nn.Sigmoid(), (2, 3)),
        (lambda rng: nn.Dropout(0.5, rng=rng), (2, 3)),
        (lambda rng: nn.Dropout(0.5, rng=rng).eval(), (2, 3)),
        (lambda rng: nn.Linear(3, 2, rng=rng), (2, 3)),
        (lambda rng: nn.MaxPool2d(2), (1, 2, 4, 4)),
        (lambda rng: nn.AvgPool2d(2), (1, 2, 4, 4)),
        (lambda rng: nn.GlobalAvgPool2d(), (1, 2, 4, 4)),
        (lambda rng: nn.Flatten(), (1, 2, 4, 4)),
    ],
)
def test_backward_after_no_grad_forward_raises(rng, layer, shape):
    layer = layer(rng)
    x = rng.normal(size=shape)
    out = layer(x)
    layer.backward(np.ones_like(out))  # a plain forward caches
    with nn.no_grad():
        layer(x)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        layer.backward(np.ones_like(out))


def test_backward_after_no_grad_model_forward_raises(rng):
    from repro.models import resnet8

    model = resnet8(num_classes=5, rng=rng).eval()
    x = rng.normal(size=(2, 3, 8, 8))
    with nn.no_grad():
        logits = model(x)
    with pytest.raises(RuntimeError, match="backward called before forward"):
        model.backward(np.ones_like(logits))


def test_no_grad_nests_and_restores_on_exception():
    assert nn.is_grad_enabled()
    with nn.no_grad():
        assert not nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
        assert not nn.is_grad_enabled()
    assert nn.is_grad_enabled()
    with pytest.raises(ZeroDivisionError):
        with nn.no_grad():
            with nn.no_grad():
                1 / 0
    assert nn.is_grad_enabled()


def test_no_grad_applies_to_the_calling_thread_only():
    import threading

    seen = []
    with nn.no_grad():
        worker = threading.Thread(target=lambda: seen.append(nn.is_grad_enabled()))
        worker.start()
        worker.join(timeout=10)
        assert not nn.is_grad_enabled()
    assert not worker.is_alive()
    assert seen == [True]


def test_train_mode_forward_under_no_grad_matches_plain(rng):
    """A train-mode BN forward under no_grad() (BN recalibration) updates
    the running statistics exactly as a plain one and is not fused."""
    from repro.models import resnet8

    plain = resnet8(num_classes=5, rng=np.random.default_rng(1))
    inferred = resnet8(num_classes=5, rng=np.random.default_rng(1))
    x = rng.normal(size=(4, 3, 8, 8))
    out = plain(x)
    with nn.no_grad():
        assert np.array_equal(inferred(x), out)
    for (name, a), (_, b) in zip(plain.named_buffers(), inferred.named_buffers()):
        assert np.array_equal(a, b), name
