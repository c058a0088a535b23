import tracemalloc

import numpy as np
import pytest

from sumlearn import classifier as clf
from sumlearn import nn
from sumlearn.classifier import (
    CnnParams,
    classify,
    eval_addition,
    eval_classification,
    train_cnn,
)
from sumlearn.dataset import ImageStore, build_corpus, decode
from sumlearn.embedding import PCA_BLOCK, AutoencoderParams
from sumlearn.errors import DivergenceError
from sumlearn.tensorfile import load_tensors, save_tensors

from conftest import store_with_labels, uint8_store_pair


def blob_store(n=60, side=14, n_classes=4, seed=0):
    """Linearly separable images: class c lights up a distinct quadrant."""
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(n_classes), n // n_classes + 1)[:n]
    labels = labels[rng.permutation(n)]
    images = rng.random((n, side, side)) * 0.1
    half = side // 2
    corners = [(0, 0), (0, half), (half, 0), (half, half)]
    for i, lab in enumerate(labels):
        r, c = corners[lab % 4]
        images[i, r : r + half, c : c + half] += 0.8
    return ImageStore(images.reshape(n, side * side), labels)


class TestGradients:
    def test_cnn_matches_finite_differences(self):
        # 4-image toy batch, 8x8 inputs, 2 filters, every layer kind in play
        rng = np.random.default_rng(0)
        layers = [
            nn.Conv2d(1, 2, (3, 3), rng, dtype=np.float64),
            nn.ReLU(),
            nn.MaxPool2x2(),
            nn.Flatten(),
            nn.Dense(18, 6, rng, dtype=np.float64),
            nn.ReLU(),
            nn.Dense(6, 10, rng, dtype=np.float64),
        ]
        x = rng.random((4, 1, 8, 8))
        y = np.array([1, 0, 7, 3])

        logits = nn.forward(layers, x)
        _, grad = nn.softmax_cross_entropy(logits, y)
        nn.backward(layers, grad)

        eps = 1e-6
        for layer in layers:
            for param, analytic in [(p, g) for p, g in layer.params()]:
                numeric = np.zeros_like(param)
                flat, nflat = param.ravel(), numeric.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up, _ = nn.softmax_cross_entropy(nn.forward(layers, x), y)
                    flat[i] = orig - eps
                    down, _ = nn.softmax_cross_entropy(nn.forward(layers, x), y)
                    flat[i] = orig
                    nflat[i] = (up - down) / (2 * eps)
                mask = np.abs(numeric) > 1e-10
                rel = np.abs(analytic - numeric)[mask] / np.abs(numeric)[mask]
                assert rel.max(initial=0.0) < 1e-3
                assert np.abs(analytic[~mask]).max(initial=0.0) < 1e-8


def full_backward(layers, grad):
    """Every layer's backward in turn, the network input's gradient included."""
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return grad


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestBackward:
    @pytest.mark.parametrize("net", ["cnn", "autoencoder"])
    def test_parameter_grads_match_full_backward(self, net):
        rng = np.random.default_rng(17)
        if net == "cnn":
            layers = CnnParams(seed=17, side=16, dtype=np.float32).layers
            x = rng.random((8, 1, 16, 16)).astype(np.float32)
            _, grad = nn.softmax_cross_entropy(nn.forward(layers, x), rng.integers(0, 10, 8))
        else:
            layers = AutoencoderParams(widths=(64, 24, 6), seed=17, dtype=np.float32).layers
            x = rng.random((8, 64)).astype(np.float32)
            _, grad = nn.mse(nn.forward(layers, x), x)
        first, calls = layers[0], []

        def spy(g, **kwargs):
            result = type(first).backward(first, g, **kwargs)
            calls.append((kwargs, result))
            return result

        first.backward = spy
        assert nn.backward(layers, grad) is None
        assert calls == [({"input_grad": False}, None)]
        del first.backward
        skipped = [g.copy() for _, g in nn.parameters(layers)]

        nn.forward(layers, x)  # a backward pass spends its forward pass's cache
        assert full_backward(layers, grad).shape == x.shape
        for ours, (_, full) in zip(skipped, nn.parameters(layers)):
            assert same_bits(ours, full)

    def test_parameter_free_front_layers_are_not_run(self):
        class NoBackward(nn.Flatten):
            def backward(self, grad):
                raise AssertionError("front layer ran backward")

        rng = np.random.default_rng(18)
        layers = [NoBackward(), nn.Dense(12, 5, rng), nn.ReLU(), nn.Dense(5, 3, rng)]
        _, grad = nn.softmax_cross_entropy(nn.forward(layers, rng.random((4, 3, 4))), [0, 1, 2, 1])
        nn.backward(layers, grad)
        assert layers[1].dW.any()


def scatter_input_grad(conv, grad):
    """The former col2im: one (B*Ho*Wo, kh*kw*C) product, then kh*kw
    strided adds whose inner run is C values."""
    kh, kw = conv.kernel
    f, c = conv.W.shape[:2]
    b_, ho, wo = grad.shape[0], grad.shape[2], grad.shape[3]
    g = grad.transpose(0, 2, 3, 1).reshape(-1, f)
    dcols = (g @ conv._wmat().T).reshape(b_, ho, wo, kh, kw, c)
    dx = np.zeros(conv._xshape, dtype=grad.dtype)
    for p in range(kh):
        for q in range(kw):
            dx[:, p : p + ho, q : q + wo, :] += dcols[:, :, :, p, q, :]
    return dx.transpose(0, 3, 1, 2)


def conv_reference(x, W, b):
    """Valid stride-1 convolution by nested loops over (b, f, i, j)."""
    n, _, h, w = x.shape
    f, _, kh, kw = W.shape
    out = np.zeros((n, f, h - kh + 1, w - kw + 1))
    for bi in range(n):
        for fi in range(f):
            for i in range(h - kh + 1):
                for j in range(w - kw + 1):
                    out[bi, fi, i, j] = (x[bi, :, i : i + kh, j : j + kw] * W[fi]).sum() + b[fi]
    return out


def conv_reference_grads(x, W, grad):
    """dW, db, dx of conv_reference for upstream `grad`, by nested loops."""
    n, _, ho, wo = grad.shape
    f, _, kh, kw = W.shape
    dW, dx = np.zeros_like(W), np.zeros_like(x)
    for bi in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    g = grad[bi, fi, i, j]
                    dW[fi] += g * x[bi, :, i : i + kh, j : j + kw]
                    dx[bi, :, i : i + kh, j : j + kw] += g * W[fi]
    return dW, grad.sum(axis=(0, 2, 3)), dx


def channels_last_view(a):
    """Same (B, C, H, W) values, stored channels-last in memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestLayers:
    @pytest.mark.parametrize(
        "layout, channels",
        [("nchw", 3), ("channels_last", 3), ("nchw", 1), ("channels_last", 1)],
        ids=["nchw", "channels_last", "nchw-1-channel", "channels_last-1-channel"],
    )
    def test_conv_matches_nested_loop_reference(self, layout, channels):
        rng = np.random.default_rng(12)
        conv = nn.Conv2d(channels, 4, (3, 2), rng, dtype=np.float64)
        conv.b[...] = rng.normal(size=4)
        x = rng.normal(size=(2, channels, 7, 6))
        grad = rng.normal(size=(2, 4, 5, 5))
        if layout == "channels_last":
            x, grad = channels_last_view(x), channels_last_view(grad)
        out = conv.forward(x)
        dx = conv.backward(grad)
        ref_dW, ref_db, ref_dx = conv_reference_grads(x, conv.W, grad)
        np.testing.assert_allclose(out, conv_reference(x, conv.W, conv.b), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.dW, ref_dW, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.db, ref_db, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
        assert conv.W.shape == (4, channels, 3, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("channels, filters, side", [(32, 64, 13)])
    def test_conv_input_grad_matches_former_scatter(self, dtype, layout, channels, filters, side):
        rng = np.random.default_rng(19)
        conv = nn.Conv2d(channels, filters, (3, 3), rng, dtype=dtype)
        x = rng.normal(size=(6, channels, side, side)).astype(dtype)
        grad = rng.normal(size=(6, filters, side - 2, side - 2)).astype(dtype)
        if layout == "channels_last":
            x, grad = channels_last_view(x), channels_last_view(grad)
        conv.forward(x)
        assert same_bits(conv.backward(grad), scatter_input_grad(conv, grad))

    def test_pool_routes_all_equal_windows_to_first_element(self):
        x = np.full((1, 2, 4, 4), 0.5)
        pool = nn.MaxPool2x2()
        assert np.array_equal(pool.forward(x), np.full((1, 2, 2, 2), 0.5))
        dx = pool.backward(np.arange(1.0, 9.0).reshape(1, 2, 2, 2))
        expected = np.zeros((1, 2, 4, 4))
        expected[:, :, ::2, ::2] = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
        assert np.array_equal(dx, expected)

    def test_pool_routes_post_relu_zero_windows_to_first_element(self):
        relu, pool = nn.ReLU(), nn.MaxPool2x2()
        x = -np.random.default_rng(13).random((2, 3, 6, 6))
        x[0, 1, 2:4, 2:4] = [[-1.0, 2.0], [2.0, 0.5]]  # one window with a tie at 2.0
        out = pool.forward(relu.forward(channels_last_view(x)))
        assert out[0, 1, 1, 1] == 2.0
        dx = pool.backward(np.ones_like(out))
        expected = np.zeros_like(x)
        expected[:, :, ::2, ::2] = 1.0
        expected[0, 1, 2, 2] = 0.0
        expected[0, 1, 2, 3] = 1.0
        assert np.array_equal(dx, expected)

    def test_pool_floors_odd_sizes_and_zeroes_dropped_gradient(self):
        rng = np.random.default_rng(14)
        x = rng.random((2, 3, 5, 7))
        pool = nn.MaxPool2x2()
        out = pool.forward(x)
        assert out.shape == (2, 3, 2, 3)
        windows = x[:, :, :4, :6].reshape(2, 3, 2, 2, 3, 2)
        assert np.array_equal(out, windows.max(axis=(3, 5)))
        dx = pool.backward(rng.random(out.shape) + 1.0)
        assert dx.shape == x.shape
        assert not dx[:, :, 4, :].any()
        assert not dx[:, :, :, 6].any()
        assert np.count_nonzero(dx) == out.size

    def test_pool_keeps_no_reference_to_its_input(self):
        pool = nn.MaxPool2x2()
        x = np.random.default_rng(15).random((2, 3, 4, 4))
        pool.forward(x)
        for value in vars(pool).values():
            assert not (isinstance(value, np.ndarray) and np.shares_memory(value, x))


def awkward_maps(layout):
    """(3, 4, 7, 9) maps: odd sizes, tied maxima, all-negative windows,
    signed and unsigned exact zeros."""
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 4, 7, 9))
    x[0, 0, :2, :2] = 0.5  # all four tied
    x[0, 1, :2, :2] = [[-0.5, 1.0], [1.0, 1.0]]  # tie after a negative
    x[1, 0, :4, :6] = -rng.random((4, 6)) - 0.1  # all negative
    x[1, 1, 2:4, 2:4] = [[0.0, -1.0], [0.0, -2.0]]  # tied zero max
    x[1, 2, :2, 2:4] = [[-1.0, -0.0], [0.0, -3.0]]  # -0 before +0
    x[2, 0] = 0.0
    x[2, 3] = np.round(2.0 * x[2, 3]) / 2.0  # many ties and zeros
    return channels_last_view(x) if layout == "channels_last" else x


def pooled_and_unpooled(channels, filters, kernel, dtype, seed):
    """A pooled Conv2d and an unpooled one with the same weights, plus the
    MaxPool2x2 that follows the unpooled one."""
    rng = np.random.default_rng(seed)
    pooled = nn.Conv2d(channels, filters, kernel, rng, dtype=dtype, pool=True)
    pooled.b[...] = rng.normal(size=filters)
    plain = nn.Conv2d(channels, filters, kernel, None, dtype=dtype)
    plain.W[...], plain.b[...] = pooled.W, pooled.b
    return pooled, [plain, nn.MaxPool2x2()]


class TestPooledConv:
    # "awkward": a 1x1 identity conv, so the maps the pool sees are
    # awkward_maps' values (a GEMM's exact zeros are +0, so its -0 entries
    # reach the pool as +0); "random": a 3x3 conv of odd-sized maps
    @pytest.mark.parametrize("case", ["awkward", "random"])
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_equals_conv_then_pool(self, case, layout, dtype, rtol):
        if case == "awkward":
            pooled, pair = pooled_and_unpooled(4, 4, (1, 1), dtype, seed=23)
            pooled.W[...] = pair[0].W[...] = np.eye(4)[:, :, None, None]
            pooled.b[...] = pair[0].b[...] = 0.0
            x = awkward_maps(layout).astype(dtype)
            assert np.array_equal(pair[0].forward(x), x)
        else:
            pooled, pair = pooled_and_unpooled(3, 5, (3, 3), dtype, seed=24)
            x = np.random.default_rng(24).normal(size=(3, 3, 10, 11)).astype(dtype)
            if layout == "channels_last":
                x = channels_last_view(x)
        expected = nn.forward(pair, x)
        assert same_bits(pooled.forward(x, cache=False), expected)
        out = pooled.forward(x)
        assert same_bits(out, expected)
        grad = np.random.default_rng(25).normal(size=out.shape).astype(dtype)
        grad[0, 0, 0, 0] = 0.0
        assert same_bits(pooled.backward(grad), full_backward(pair, grad))
        conv = pair[0]
        for ours, theirs in ((pooled.dW, conv.dW), (pooled.db, conv.db)):
            assert ours.dtype == theirs.dtype
            assert np.abs(ours - theirs).max() <= rtol * np.abs(theirs).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [28, 17])
    def test_cnn_logits_equal_an_unpooled_conv1_and_pool(self, dtype, side):
        params = CnnParams(seed=26, side=side, dtype=dtype)
        conv1 = params.layers[0]
        plain = nn.Conv2d(1, 32, conv1.kernel, None, dtype=dtype)
        plain.W[...], plain.b[...] = conv1.W, np.random.default_rng(26).normal(size=32)
        conv1.b[...] = plain.b
        unpooled = [plain, nn.MaxPool2x2(), *params.layers[1:]]
        pixels = np.random.default_rng(side).integers(0, 256, (clf.BATCH, side * side), dtype=np.uint8)
        x = params.inputs(pixels)
        assert same_bits(nn.forward(params.layers, x), nn.forward(unpooled, x))


def former_cnn_order(params):
    """CnnParams' layers with conv3 in the former conv -> ReLU -> pool order."""
    conv1, conv2, conv3, dense1, dense2 = params.weighted_layers()
    return [
        conv1, nn.ReLU(),
        conv2, nn.ReLU(),
        conv3, nn.ReLU(), nn.MaxPool2x2(),
        nn.Flatten(), dense1, nn.ReLU(), dense2,
    ]


class TestPoolBeforeRelu:
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    def test_pool_then_relu_equals_relu_then_pool(self, layout):
        x = awkward_maps(layout)
        grad = np.random.default_rng(21).normal(size=(3, 4, 3, 4))
        grad[0, 0, 0, 0] = 0.0
        relu_pool, pool_relu = [nn.ReLU(), nn.MaxPool2x2()], [nn.MaxPool2x2(), nn.ReLU()]
        out = nn.forward(pool_relu, x)
        assert np.array_equal(out, nn.forward(relu_pool, x))
        dx = full_backward(pool_relu, grad)
        assert np.array_equal(dx, full_backward(relu_pool, grad))
        assert np.count_nonzero(dx) == np.count_nonzero(out * grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_former_order_trains_to_the_same_bits(self, dtype):
        rng = np.random.default_rng(22)
        pixels = rng.random((96, 28 * 28))
        pixels[rng.random(pixels.shape) < 0.6] = 0.0  # blank regions: exact zeros
        store = ImageStore(pixels, rng.integers(0, 10, 96))
        labels = store.evaluation_labels()
        ours, former = CnnParams(seed=22, dtype=dtype), CnnParams(seed=22, dtype=dtype)
        former.layers = former_cnn_order(former)
        initial = ours.weighted_layers()[0].W.copy()
        train_cnn(ours, store, labels, epochs=2, seed=22)
        train_cnn(former, store, labels, epochs=2, seed=22)
        a, b = (nn.weight_tensors(p.weighted_layers()) for p in (ours, former))
        assert a.keys() == b.keys()
        for name in a:
            assert same_bits(a[name], b[name]), name
        assert not np.array_equal(a["W0"], initial)


class TestUint8Store:
    def test_train_and_classify_bitwise_equal_to_its_decode(self, monkeypatch):
        monkeypatch.setattr(clf, "BATCH", 256)
        u8, f64 = uint8_store_pair(2 * PCA_BLOCK + 7, 14 * 14, seed=4)
        labels = u8.evaluation_labels()
        trained = []
        for store in (u8, f64):
            params = CnnParams(seed=4, side=14, dtype=np.float32)
            train_cnn(params, store, labels, epochs=1, seed=4)
            trained.append((nn.weight_tensors(params.weighted_layers()), classify(params, store.images)))
        (weights, (preds, probs)), (weights_f, (preds_f, probs_f)) = trained
        assert weights.keys() == weights_f.keys()
        for name in weights:
            assert same_bits(weights[name], weights_f[name]), name
        assert same_bits(probs, probs_f) and same_bits(preds, preds_f)


class TestInitCnn:
    def test_shape_audit(self):
        params = CnnParams(seed=0)
        x = np.random.default_rng(0).random((2, 1, 28, 28))
        expected = [
            (2, 32, 13, 13),
            (2, 32, 13, 13),
            (2, 64, 11, 11),
            (2, 64, 11, 11),
            (2, 64, 9, 9),
            (2, 64, 4, 4),
            (2, 64, 4, 4),
            (2, 1024),
            (2, 100),
            (2, 100),
            (2, 10),
        ]
        for layer, shape in zip(params.layers, expected, strict=True):
            x = layer.forward(x)
            assert x.shape == shape

    def test_he_variance(self):
        params = CnnParams(seed=1)
        fan_ins = [9, 288, 576, 1024, 100]
        for layer, fan_in in zip(params.weighted_layers(), fan_ins):
            target = 2.0 / fan_in
            assert abs(layer.W.var() - target) < 0.2 * target

    def test_zero_biases(self):
        params = CnnParams(seed=2)
        for layer in params.weighted_layers():
            assert not layer.b.any()

    def test_side_14_network(self):
        params = CnnParams(seed=0, side=14)
        assert params.side == 14
        x = np.random.default_rng(0).random((3, 1, 14, 14))
        assert nn.forward(params.layers, x).shape == (3, 10)
        assert params.weighted_layers()[3].W.shape == (64 * 1 * 1, 100)

    def test_same_seed_identical(self):
        a, b = CnnParams(seed=3), CnnParams(seed=3)
        for la, lb in zip(a.weighted_layers(), b.weighted_layers()):
            assert np.array_equal(la.W, lb.W)

    @pytest.mark.parametrize("side", [13, 10, 9, 2])
    def test_side_below_the_minimum_refused(self, side):
        with pytest.raises(ValueError, match=f"side at least 14, got side {side}"):
            CnnParams(seed=0, side=side)


def uncropped_batch(params, pixels):
    """A batch of whole images: the input before CnnParams.inputs cut it
    to the used square."""
    return decode(pixels).astype(params.dtype).reshape(-1, 1, params.side, params.side)


class TestUsedSquare:
    # the network is fed only the top-left square its logits depend on
    @pytest.mark.parametrize("side, used", [(28, 26), (29, 26), (15, 14), (14, 14)])
    def test_pixels_outside_the_used_square_change_nothing(self, side, used):
        params = CnnParams(seed=30, side=side, dtype=np.float32)
        assert params.used == used
        pixels = np.random.default_rng(side).integers(0, 256, (40, side, side), dtype=np.uint8)
        edited = pixels.copy()
        edited[:, used:, :] = 255 - edited[:, used:, :]
        edited[:, :used, used:] = 255 - edited[:, :used, used:]
        assert np.count_nonzero(edited != pixels) == 40 * (side * side - used * used)
        _, probs = classify(params, pixels.reshape(40, -1))
        _, edited_probs = classify(params, edited.reshape(40, -1))
        assert same_bits(edited_probs, probs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [28, 29])
    def test_classify_equals_the_uncropped_forward(self, dtype, side):
        params = CnnParams(seed=31, side=side, dtype=dtype)
        pixels = np.random.default_rng(31).integers(0, 256, (2 * clf.BATCH + 9, side * side), dtype=np.uint8)
        _, probs = classify(params, pixels)
        for start in range(0, len(pixels), clf.BATCH):
            chunk = pixels[start : start + clf.BATCH]
            logits = nn.forward(params.layers, uncropped_batch(params, chunk), cache=False)
            assert same_bits(probs[start : start + len(chunk)], nn.softmax(logits).astype(np.float64))

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("side", [28, 29, 15])
    def test_step_gradients_match_the_uncropped_step(self, dtype, rtol, side):
        cropped, whole = CnnParams(seed=32, side=side, dtype=dtype), CnnParams(seed=32, side=side, dtype=dtype)
        rng = np.random.default_rng(32)
        pixels = rng.integers(0, 256, (clf.BATCH, side * side), dtype=np.uint8)
        labels = rng.integers(0, 10, clf.BATCH)
        for params, x in ((cropped, cropped.inputs(pixels)), (whole, uncropped_batch(whole, pixels))):
            _, grad = nn.softmax_cross_entropy(nn.forward(params.layers, x), labels)
            nn.backward(params.layers, grad)
        for a, b in zip(cropped.weighted_layers(), whole.weighted_layers()):
            assert same_bits(a.db, b.db)
            if isinstance(a, nn.Dense):
                assert same_bits(a.dW, b.dW)
            else:  # a sum over fewer output positions, rounded in another order
                assert a.dW.dtype == b.dW.dtype
                assert np.abs(a.dW - b.dW).max() <= rtol * np.abs(b.dW).max()

    def test_cropped_shape_audit(self):
        params = CnnParams(seed=0)
        x = params.inputs(np.random.default_rng(0).random((2, 28 * 28)))
        assert x.shape == (2, 1, 26, 26)
        expected = [
            (2, 32, 12, 12),
            (2, 32, 12, 12),
            (2, 64, 10, 10),
            (2, 64, 10, 10),
            (2, 64, 8, 8),
            (2, 64, 4, 4),
            (2, 64, 4, 4),
            (2, 1024),
            (2, 100),
            (2, 100),
            (2, 10),
        ]
        for layer, shape in zip(params.layers, expected, strict=True):
            x = layer.forward(x)
            assert x.shape == shape


def reference_train_cnn(params, store, labels, epochs, seed, lr=0.01, momentum=0.9, batch_size=32):
    """The CNN's own epoch loop and input path from before nn.fit and
    Network.inputs, kept as the reference they must match bit for bit."""
    side = params.side
    dtype = params.weighted_layers()[0].W.dtype.type
    opt = nn.SGDMomentum(params.layers, lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)
    n = len(store)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x = decode(store.images[idx]).reshape(-1, 1, side, side).astype(dtype)
            logits = nn.forward(params.layers, x)
            loss, grad = nn.softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            nn.backward(params.layers, grad)
            opt.step()
    return params


class TestTrainCnn:
    def test_zero_epochs_noop(self):
        store = blob_store(n=16)
        params = CnnParams(seed=0, side=14)
        before = [layer.W.copy() for layer in params.weighted_layers()]
        train_cnn(params, store, store.evaluation_labels(), epochs=0)
        for w, layer in zip(before, params.weighted_layers()):
            assert np.array_equal(w, layer.W)

    def test_memorizes_random_labels(self):
        # pure memorization oracle: random images, random labels
        rng = np.random.default_rng(4)
        store = ImageStore(rng.random((30, 196)), rng.integers(0, 10, 30))
        params = CnnParams(seed=4, side=14, dtype=np.float32)
        labels = store.evaluation_labels()
        acc = 0.0
        for _ in range(10):  # up to 200 epochs, checked every 20
            train_cnn(params, store, labels, epochs=20, seed=4)
            preds, _ = classify(params, store.images)
            acc = (preds == labels).mean()
            if acc == 1.0:
                break
        assert acc == 1.0

    def test_loss_decreases_first_epoch_majority(self):
        wins = 0
        for seed in range(5):
            store = blob_store(n=48, seed=seed)
            labels = store.evaluation_labels()
            params = CnnParams(seed=seed, side=14)
            x = store.images.reshape(-1, 1, 14, 14)
            loss_before, _ = nn.softmax_cross_entropy(
                nn.forward(params.layers, x), labels
            )
            train_cnn(params, store, labels, epochs=1, seed=seed)
            loss_after, _ = nn.softmax_cross_entropy(
                nn.forward(params.layers, x), labels
            )
            wins += loss_after < loss_before
        assert wins >= 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_loop(self, dtype, monkeypatch):
        monkeypatch.setattr(clf, "BATCH", 16)
        store = blob_store(n=45, seed=3)  # batches of 16: the last one has 13 images
        labels = store.evaluation_labels()
        ours, reference = CnnParams(seed=3, side=14, dtype=dtype), CnnParams(seed=3, side=14, dtype=dtype)
        train_cnn(ours, store, labels, epochs=2, seed=3)
        reference_train_cnn(reference, store, labels, epochs=2, seed=3, batch_size=16)
        a, b = (nn.weight_tensors(p.weighted_layers()) for p in (ours, reference))
        for name in a:
            assert same_bits(a[name], b[name]), name

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_label_outside_digits_refused(self, bad):
        store = blob_store(n=8)
        labels = store.evaluation_labels().copy()
        labels[[5, 7]] = bad
        params = CnnParams(seed=0, side=14)
        before = params.weighted_layers()[0].W.copy()
        with pytest.raises(ValueError, match=f"image 5 has label {bad}, outside 0..9"):
            train_cnn(params, store, labels, epochs=1)
        assert np.array_equal(params.weighted_layers()[0].W, before)

    def test_label_length_mismatch(self):
        store = blob_store(n=8)
        with pytest.raises(ValueError):
            train_cnn(CnnParams(seed=0, side=14), store, [1, 2], epochs=1)

    def test_divergence(self, monkeypatch):
        monkeypatch.setattr(clf, "LR", 1e18)
        store = blob_store(n=16)
        params = CnnParams(seed=0, side=14, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train_cnn(params, store, store.evaluation_labels(), epochs=10)


class TestClassify:
    def test_probabilities_normalized(self, rng):
        params = CnnParams(seed=5, side=14)
        _, probs = classify(params, rng.random((7, 196)))
        assert (probs >= 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_duplicated_rows_duplicated_outputs(self, rng):
        params = CnnParams(seed=6, side=14)
        row = rng.random((1, 196))
        preds, probs = classify(params, np.vstack([row, row]))
        assert preds[0] == preds[1]
        assert np.array_equal(probs[0], probs[1])

    def test_zero_weights_uniform_probabilities(self):
        params = CnnParams(seed=7, side=14)
        for layer in params.weighted_layers():
            layer.W[...] = 0.0
            layer.b[...] = 0.0
        _, probs = classify(params, np.random.default_rng(0).random((3, 196)))
        assert np.allclose(probs, 0.1)

    def test_shape_mismatch(self):
        params = CnnParams(seed=0, side=14)
        with pytest.raises(ValueError):
            classify(params, np.zeros((2, 197)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [14, 17])  # 17: both pools see odd sizes
    def test_cache_free_forward_bitwise_equal(self, rng, dtype, side):
        params = CnnParams(seed=8, side=side, dtype=dtype)
        x = rng.random((5, 1, side, side)).astype(dtype)
        cached = nn.forward(params.layers, x)
        assert np.array_equal(nn.forward(params.layers, x, cache=False), cached)

    def test_classify_keeps_no_backward_cache(self, rng):
        params = CnnParams(seed=9, side=14)
        images = rng.random((5, 196))
        classify(params, images)
        caches = ("_cols", "_mask", "_index", "_x")
        assert all(getattr(l, name, None) is None for l in params.layers for name in caches)
        nn.forward(params.layers, images.reshape(5, 1, 14, 14))  # a training-style pass
        classify(params, images)  # drops the cache that pass left
        assert all(getattr(l, name, None) is None for l in params.layers for name in caches)


def traced_peak(fn, *args, **kwargs):
    """Bytes fn(*args, **kwargs) allocates at its peak, above what was
    allocated when it was called (tracemalloc; numpy traces its buffers)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_classify_peak_does_not_grow_with_images(self):
        params = CnnParams(seed=12, dtype=np.float32)
        pixels = np.random.default_rng(12).integers(0, 256, (640, 28 * 28), dtype=np.uint8)
        small, large = (traced_peak(classify, params, pixels[:n]) for n in (64, 640))
        assert abs(large - small) < 0.1 * small

    def test_classify_peak_below_a_training_step(self):
        u8, _ = uint8_store_pair(4 * clf.BATCH, 28 * 28, seed=13)
        params = CnnParams(seed=13, dtype=np.float32)
        batch = u8.subset(np.arange(clf.BATCH))
        step = traced_peak(train_cnn, params, batch, batch.evaluation_labels(), epochs=1)
        assert traced_peak(classify, params, u8.images) < step

    def test_conv_forward_holds_one_column_matrix(self):
        rng = np.random.default_rng(14)
        conv = nn.Conv2d(64, 64, (3, 3), rng, dtype=np.float32)
        x = rng.random((clf.BATCH, 64, 11, 11)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = conv.forward(x)
            out_bytes, cols_bytes = out.nbytes, conv._cols.nbytes
            del out
            tracemalloc.reset_peak()
            conv.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert cols_bytes == clf.BATCH * 9 * 9 * 9 * 64 * 4
        assert peak < 1.5 * cols_bytes + out_bytes

    def test_conv_backward_frees_the_column_matrix_before_the_slabs(self):
        # conv3 at the training batch: the input gradient's slabs are as
        # large as the im2col matrix, and the two are never held together
        rng = np.random.default_rng(16)
        conv = nn.Conv2d(64, 64, (3, 3), rng, dtype=np.float32)
        x = rng.random((clf.BATCH, 64, 11, 11)).astype(np.float32)
        grad = rng.random((clf.BATCH, 64, 9, 9)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            conv.forward(x)  # its output is dropped at once
            cols_bytes = conv._cols.nbytes
            tracemalloc.reset_peak()
            conv.backward(grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert conv._cols is None
        assert peak < 1.5 * cols_bytes


class TestChunking:
    @pytest.mark.parametrize("n", [400, 500, 1000])
    def test_training_batch_chunks_match_chunks_of_128(self, n, monkeypatch):
        params = CnnParams(seed=15, dtype=np.float32)
        pixels = np.random.default_rng(n).integers(0, 256, (n, 28 * 28), dtype=np.uint8)
        preds, probs = classify(params, pixels)
        monkeypatch.setattr(clf, "BATCH", 128)
        preds_128, probs_128 = classify(params, pixels)
        assert np.array_equal(preds, preds_128)
        # BLAS may round a chunk of <= 8 rows differently: such a last
        # chunk, under either chunking, is compared within rounding. A few
        # float32 ulps in the logits move a probability by up to about 3e-6
        # relative (seen at three seeds on 1,000 images), hence 1e-5.
        short = np.zeros(n, dtype=bool)
        for chunk in (32, 128):
            if n % chunk <= 8:
                short[n - n % chunk :] = True
        assert same_bits(probs[~short], probs_128[~short])
        assert np.allclose(probs[short], probs_128[short], rtol=1e-5, atol=0.0)


class TestEval:
    def trained_blob_cnn(self):
        store = blob_store(n=120, seed=8)
        params = CnnParams(seed=8, side=14, dtype=np.float32)
        train_cnn(params, store, store.evaluation_labels(), epochs=6, seed=8)
        return params

    def test_classification_and_addition_perfect_on_easy_data(self):
        params = self.trained_blob_cnn()
        test_store = blob_store(n=80, seed=9)
        assert eval_classification(params, test_store) == 1.0
        corpus = build_corpus(test_store, w=2, h=2, seed=0)
        assert eval_addition(params, corpus, test_store) == 1.0

    def test_evaluate_classifies_once(self, monkeypatch):
        params = self.trained_blob_cnn()
        test_store = blob_store(n=80, seed=9)
        corpus = build_corpus(test_store, w=2, h=2, seed=0)
        expected = {
            "cls_acc": eval_classification(params, test_store),
            "add_acc": eval_addition(params, corpus, test_store),
        }
        calls = []
        original = clf.classify
        monkeypatch.setattr(
            clf, "classify", lambda *args: calls.append(1) or original(*args)
        )
        assert clf.evaluate(params, corpus, test_store) == expected
        assert len(calls) == 1

    def test_untrained_net_near_chance(self, rng):
        labels = rng.integers(0, 10, 1000)
        store = ImageStore(rng.random((1000, 196)), labels)
        params = CnnParams(seed=10, side=14)
        acc = eval_classification(params, store)
        assert 0.02 <= acc <= 0.25

    def test_addition_accuracy_matches_error_model(self, rng, monkeypatch):
        # independent per-digit error rate p flips addition accuracy to
        # roughly p^(w*h); Monte Carlo sanity band of +/- 3 points
        p = 0.9
        w, h = 2, 2
        store = store_with_labels(rng.integers(0, 10, 4000))
        corpus = build_corpus(store, w=w, h=h, seed=0)
        truth = store.evaluation_labels()
        noisy = truth.copy()
        flip = rng.random(len(store)) > p
        noisy[flip] = (truth[flip] + 1 + rng.integers(0, 9, flip.sum())) % 10
        monkeypatch.setattr(
            clf, "classify", lambda params, images: (noisy, None)
        )
        acc = eval_addition(object(), corpus, store)
        assert abs(acc - p ** (w * h)) < 0.03
        # exactly the share of grids whose rows, read as numbers, add up
        spelled = [
            sum(int("".join(str(noisy[i]) for i in row)) for row in grid)
            for grid in corpus.grids.tolist()
        ]
        assert acc == sum(np.array(spelled) == corpus.sums) / len(corpus)


class TestPersistence:
    def test_roundtrip(self, tmp_path, rng):
        store = blob_store(n=16)
        params = CnnParams(seed=11, side=14, dtype=np.float32)
        train_cnn(params, store, store.evaluation_labels(), epochs=1, seed=1)
        path = tmp_path / "cnn.tf"
        params.save(path, meta={"config_key": "k"})
        loaded = CnnParams.load(path)
        x = rng.random((4, 196))
        assert np.array_equal(classify(loaded, x)[1], classify(params, x)[1])

    @pytest.mark.parametrize("network", ["cnn", "autoencoder"])
    def test_load_draws_no_weights_and_round_trips_bit_for_bit(self, tmp_path, monkeypatch, network):
        if network == "cnn":
            params = CnnParams(seed=27, side=14, dtype=np.float32)
        else:
            params = AutoencoderParams(widths=(196, 20, 10), seed=27, dtype=np.float32)
        rng = np.random.default_rng(27)
        for layer in params.weighted_layers():
            layer.b[...] = rng.normal(size=layer.b.shape)
        path = tmp_path / "net.tf"
        params.save(path)

        def no_generator(*args, **kwargs):
            raise AssertionError("load made a random generator")

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", no_generator)
            loaded = type(params).load(path)
        saved, got = (nn.weight_tensors(p.weighted_layers()) for p in (params, loaded))
        assert saved.keys() == got.keys()
        for name in saved:
            assert same_bits(got[name], saved[name]), name
        assert loaded.meta() == params.meta()
        assert not any(grad.any() for _, grad in nn.parameters(loaded.layers))

    @pytest.mark.parametrize("edit", ["autoencoder", "missing", "extra", "dtype"])
    def test_load_refuses_tensors_its_meta_does_not_describe(self, tmp_path, edit):
        path = tmp_path / "cnn.tf"
        if edit == "autoencoder":  # an autoencoder.tf passed as the CNN
            AutoencoderParams(widths=(196, 20, 10), seed=0).save(path)
            name = "W0"
        else:
            CnnParams(seed=0, side=14, dtype=np.float32).save(path)
            meta, tensors = load_tensors(path)
            if edit == "missing":
                del tensors["b4"]
                name = "b4"
            elif edit == "extra":
                tensors["W5"] = tensors["W4"]
                name = "W5"
            else:
                tensors["b0"] = tensors["b0"].astype(np.float64)
                name = "b0"
            save_tensors(path, tensors, meta=meta)
        with pytest.raises(ValueError, match=f"tensor '{name}' is "):
            CnnParams.load(path)
