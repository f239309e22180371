"""Gradient checks and forward correctness for every layer.

Every backward pass in ``repro.nn`` is verified against central finite
differences via ``check_layer_gradients``.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import resnet8
from repro.nn import functional as F
from repro.nn.gradcheck import check_layer_gradients

TOL = 1e-5


def assert_gradients_ok(layer, x, tol=TOL):
    errors = check_layer_gradients(layer, x)
    for name, err in errors.items():
        assert err < tol, f"gradient mismatch for {name}: {err}"


# -- Linear ----------------------------------------------------------------


def test_linear_forward_matches_numpy(rng):
    layer = nn.Linear(4, 3, rng=rng)
    x = rng.normal(size=(5, 4))
    expected = x @ layer.weight.data.T + layer.bias.data
    np.testing.assert_allclose(layer(x), expected)


def test_linear_gradcheck(rng):
    assert_gradients_ok(nn.Linear(4, 3, rng=rng), rng.normal(size=(5, 4)))


def test_linear_no_bias(rng):
    layer = nn.Linear(4, 3, bias=False, rng=rng)
    assert layer.bias is None
    assert_gradients_ok(layer, rng.normal(size=(2, 4)))


def test_linear_rejects_wrong_width(rng):
    layer = nn.Linear(4, 3, rng=rng)
    with pytest.raises(ValueError):
        layer(rng.normal(size=(5, 7)))


def test_linear_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        nn.Linear(0, 3)


def test_linear_backward_before_forward_raises(rng):
    layer = nn.Linear(4, 3, rng=rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((2, 3)))


# -- Conv2d -----------------------------------------------------------------


def _naive_conv(x, weight, bias, stride, padding):
    n, c, h, w = x.shape
    oc, _, k, _ = weight.shape
    x_p = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for b in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = x_p[
                        b, :, i * stride : i * stride + k, j * stride : j * stride + k
                    ]
                    out[b, o, i, j] = np.sum(patch * weight[o])
            if bias is not None:
                out[b, o] += bias[o]
    return out


def _nhwc_memory(x):
    """The same values as an NCHW view of NHWC memory, as layers pass them."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize(
    "stride,padding,kernel,size,nhwc",
    [
        pytest.param(1, 0, 3, (6, 6), False, id="1-0"),
        pytest.param(1, 1, 3, (6, 6), False, id="1-1"),
        pytest.param(2, 1, 3, (6, 6), False, id="2-1"),
        pytest.param(2, 0, 3, (6, 6), False, id="2-0"),
        pytest.param(1, 0, 1, (6, 6), False, id="k1"),
        pytest.param(2, 0, 1, (7, 5), False, id="k1-stride2-odd"),
        pytest.param(2, 1, 3, (7, 10), False, id="non-square"),
        pytest.param(1, 1, 3, (6, 5), True, id="nhwc-memory"),
    ],
)
def test_conv_forward_matches_naive(rng, stride, padding, kernel, size, nhwc):
    layer = nn.Conv2d(2, 3, kernel, stride=stride, padding=padding, rng=rng)
    x = rng.normal(size=(2, 2) + size)
    expected = _naive_conv(
        x, layer.weight.data, layer.bias.data, stride, padding
    )
    if nhwc:
        x = _nhwc_memory(x)
    np.testing.assert_allclose(layer(x), expected, atol=1e-12)


def _im2col_conv_backward(layer, x, grad_out):
    """``(dx, dW, db)`` of the im2col/col2im lowering, as a reference."""
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    cols, _, _ = F.im2col(x, k, s, p)
    rows = grad_out.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
    weight_mat = layer.weight.data.reshape(layer.out_channels, -1)
    grad_w = (rows.T @ cols).reshape(layer.weight.shape)
    grad_x = F.col2im(rows @ weight_mat, x.shape, k, s, p)
    return grad_x, grad_w, rows.sum(axis=0)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("cin,cout", [(16, 16), (16, 32)])
def test_conv_backward_matches_im2col_reference(rng, cin, cout, kernel, stride):
    layer = nn.Conv2d(cin, cout, kernel, stride=stride, padding=kernel // 2, rng=rng)
    x = _nhwc_memory(rng.normal(size=(3, cin, 8, 8)))
    grad_out = _nhwc_memory(rng.normal(size=layer(x).shape))
    layer.zero_grad()
    grad_x = layer.backward(grad_out)
    got = (grad_x, layer.weight.grad, layer.bias.grad)
    for name, actual, want in zip(
        ("dx", "dW", "db"), got, _im2col_conv_backward(layer, x, grad_out)
    ):
        assert actual.shape == want.shape, name
        np.testing.assert_allclose(
            actual, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=name
        )


def test_conv_1x1_matches_linear_per_pixel(rng):
    layer = nn.Conv2d(3, 2, 1, bias=False, rng=rng)
    x = rng.normal(size=(1, 3, 4, 4))
    out = layer(x)
    w = layer.weight.data.reshape(2, 3)
    expected = np.einsum("oc,nchw->nohw", w, x)
    np.testing.assert_allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
def test_conv_gradcheck(rng, stride, padding):
    layer = nn.Conv2d(2, 2, 3, stride=stride, padding=padding, rng=rng)
    assert_gradients_ok(layer, rng.normal(size=(2, 2, 5, 5)))


def test_conv_gradcheck_1x1_stride2_shortcut(rng):
    # The ResNet downsampling shortcut; the odd side leaves input pixels
    # no tap reads, whose gradient must be zero.
    layer = nn.Conv2d(2, 3, 1, stride=2, padding=0, bias=False, rng=rng)
    assert_gradients_ok(layer, rng.normal(size=(2, 2, 5, 5)))


def test_conv_gradcheck_no_bias(rng):
    layer = nn.Conv2d(1, 2, 3, padding=1, bias=False, rng=rng)
    assert_gradients_ok(layer, rng.normal(size=(1, 1, 4, 4)))


def test_conv_rejects_bad_input(rng):
    layer = nn.Conv2d(3, 4, 3, rng=rng)
    with pytest.raises(ValueError):
        layer(rng.normal(size=(1, 2, 6, 6)))


def test_conv_rejects_bad_construction():
    with pytest.raises(ValueError):
        nn.Conv2d(0, 1, 3)
    with pytest.raises(ValueError):
        nn.Conv2d(1, 1, 3, padding=-1)


# -- BatchNorm ----------------------------------------------------------------


def test_batchnorm2d_normalises_in_train_mode(rng):
    bn = nn.BatchNorm2d(3)
    x = rng.normal(loc=5.0, scale=3.0, size=(8, 3, 4, 4))
    out = bn(x)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_batchnorm2d_gradcheck_train(rng):
    assert_gradients_ok(nn.BatchNorm2d(2), rng.normal(size=(4, 2, 3, 3)))


def test_batchnorm2d_gradcheck_eval(rng):
    bn = nn.BatchNorm2d(2)
    # Populate running stats, then check eval-mode gradients.
    bn(rng.normal(size=(8, 2, 3, 3)))
    bn.eval()
    assert_gradients_ok(bn, rng.normal(size=(4, 2, 3, 3)))


def test_batchnorm1d_gradcheck(rng):
    assert_gradients_ok(nn.BatchNorm1d(5), rng.normal(size=(7, 5)))


def test_batchnorm_running_stats_track_data(rng):
    bn = nn.BatchNorm2d(1, momentum=1.0)  # running stats = last batch
    x = rng.normal(loc=2.0, scale=1.5, size=(64, 1, 8, 8))
    bn(x)
    assert abs(bn.running_mean[0] - 2.0) < 0.1
    assert abs(bn.running_var[0] - 1.5**2) < 0.3


def test_batchnorm_eval_uses_running_stats(rng):
    bn = nn.BatchNorm1d(2)
    bn(rng.normal(size=(32, 2)))
    bn.eval()
    x = rng.normal(size=(4, 2))
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
    np.testing.assert_allclose(bn(x), expected, atol=1e-12)


def test_batchnorm2d_eval_output_matches_formula(rng):
    bn = nn.BatchNorm2d(3)
    bn.gamma.data[:] = [0.5, -1.5, 2.0]
    bn.beta.data[:] = [0.1, -0.3, 1.2]
    bn.set_buffer("running_mean", np.array([0.4, -2.0, 3.0]))
    bn.set_buffer("running_var", np.array([0.25, 4.0, 9.0]))
    bn.eval()
    x = _nhwc_memory(rng.normal(loc=1.0, scale=2.0, size=(4, 3, 5, 6)))
    shape = (1, 3, 1, 1)
    expected = bn.gamma.data.reshape(shape) * (
        x - bn.running_mean.reshape(shape)
    ) / np.sqrt(bn.running_var.reshape(shape) + bn.eps) + bn.beta.data.reshape(shape)
    np.testing.assert_allclose(bn(x), expected, rtol=0, atol=1e-12)


def _cached_arrays(module):
    """Every ndarray a module holds outside its parameters and buffers."""
    buffers = {id(value) for value in module._buffers.values()}
    for value in vars(module).values():
        if isinstance(value, dict):
            value = tuple(value.values())
        for item in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(item, np.ndarray) and id(item) not in buffers:
                yield item


def test_eval_forward_memory_is_bounded(rng):
    """After an eval forward no layer holds more than its own input."""
    model = resnet8(rng=rng).eval()
    inputs = {}
    for module in model.modules():
        if isinstance(module, (nn.Conv2d, nn.BatchNorm2d)):
            module.register_forward_hook(
                lambda m, x, out: inputs.__setitem__(m, x)
            )
    model(rng.normal(size=(4, 3, 12, 12)))
    for module, x in inputs.items():
        arrays = list(_cached_arrays(module))
        if isinstance(module, nn.Conv2d):
            n, c, h, w = x.shape
            bound = n * (h + 2 * module.padding) * (w + 2 * module.padding) * c
            assert arrays and max(a.size for a in arrays) <= bound
        else:
            assert all(a is x or a.size <= module.num_features for a in arrays)


def test_batchnorm_rejects_bad_shapes(rng):
    with pytest.raises(ValueError):
        nn.BatchNorm2d(3)(rng.normal(size=(2, 4, 3, 3)))
    with pytest.raises(ValueError):
        nn.BatchNorm1d(3)(rng.normal(size=(2, 4)))


def test_batchnorm_invalid_construction():
    with pytest.raises(ValueError):
        nn.BatchNorm2d(0)
    with pytest.raises(ValueError):
        nn.BatchNorm2d(3, momentum=0.0)


# -- Activations --------------------------------------------------------------


@pytest.mark.parametrize(
    "layer_factory",
    [nn.ReLU, lambda: nn.LeakyReLU(0.1), nn.Tanh, nn.Sigmoid, nn.Identity],
)
def test_activation_gradcheck(rng, layer_factory):
    # Offset away from the ReLU kink to keep finite differences exact.
    x = rng.normal(size=(3, 5))
    x[np.abs(x) < 0.05] = 0.1
    assert_gradients_ok(layer_factory(), x)


def test_relu_forward():
    out = nn.ReLU()(np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_leaky_relu_forward():
    out = nn.LeakyReLU(0.1)(np.array([[-10.0, 10.0]]))
    np.testing.assert_allclose(out, [[-1.0, 10.0]])


def test_dropout_eval_is_identity(rng):
    layer = nn.Dropout(0.5, rng=rng)
    layer.eval()
    x = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(layer(x), x)


def test_dropout_train_scales_kept_units(rng):
    layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((1000,))
    out = layer(x)
    kept = out[out != 0]
    np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling
    assert 300 < kept.size < 700


def test_dropout_backward_uses_same_mask(rng):
    layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
    x = np.ones((100,))
    out = layer(x)
    grad = layer.backward(np.ones(100))
    np.testing.assert_array_equal(grad == 0, out == 0)


def test_dropout_invalid_p():
    with pytest.raises(ValueError):
        nn.Dropout(1.0)


# -- Pooling -------------------------------------------------------------------


def test_maxpool_forward(rng):
    layer = nn.MaxPool2d(2)
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = layer(x)
    np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_gradcheck(rng):
    # Distinct values avoid argmax ties that break finite differences.
    x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8) * 0.1
    assert_gradients_ok(nn.MaxPool2d(2), x)


def test_avgpool_forward():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    out = nn.AvgPool2d(2)(x)
    np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_avgpool_gradcheck(rng):
    assert_gradients_ok(nn.AvgPool2d(2), rng.normal(size=(2, 2, 4, 4)))


def test_global_avgpool(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    out = nn.GlobalAvgPool2d()(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)))


def test_global_avgpool_gradcheck(rng):
    assert_gradients_ok(nn.GlobalAvgPool2d(), rng.normal(size=(2, 3, 3, 3)))


def test_flatten_roundtrip(rng):
    layer = nn.Flatten()
    x = rng.normal(size=(2, 3, 4, 4))
    out = layer(x)
    assert out.shape == (2, 48)
    grad = layer.backward(out)
    assert grad.shape == x.shape


# -- Containers ------------------------------------------------------------------


def test_sequential_gradcheck(rng):
    net = nn.Sequential(
        nn.Linear(4, 6, rng=rng), nn.Tanh(), nn.Linear(6, 2, rng=rng)
    )
    assert_gradients_ok(net, rng.normal(size=(3, 4)))


def test_sequential_indexing(rng):
    net = nn.Sequential(nn.ReLU(), nn.Tanh())
    assert len(net) == 2
    assert isinstance(net[0], nn.ReLU)
    assert [type(m).__name__ for m in net] == ["ReLU", "Tanh"]


def test_sequential_append(rng):
    net = nn.Sequential(nn.ReLU())
    net.append(nn.Tanh())
    assert len(net) == 2
    assert len(net.parameters()) == 0


def test_residual_gradcheck(rng):
    body = nn.Sequential(nn.Linear(4, 4, rng=rng), nn.Tanh())
    block = nn.Residual(body, nn.Identity())
    assert_gradients_ok(block, rng.normal(size=(3, 4)))


def test_residual_forward_adds_branches(rng):
    block = nn.Residual(nn.Identity(), nn.Identity())
    x = rng.normal(size=(2, 3))
    np.testing.assert_allclose(block(x), 2 * x)
