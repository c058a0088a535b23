import re
import tracemalloc

import numpy as np
import pytest

from sumlearn import embedding, nn
from sumlearn.clustering import kmeans, purity
from sumlearn.dataset import ImageStore, decode, generate_synthetic, load_idx
from sumlearn.embedding import (
    EXACT_MAX_ROWS,
    EXACT_ROWS,
    PCA_BLOCK,
    AutoencoderParams,
    _components,
    _exact_scatter,
    _scatter,
    encode,
    load_embedding,
    pca_embed,
    save_embedding,
    train_autoencoder,
)
from sumlearn.errors import DivergenceError

from conftest import uint8_store_pair, write_idx_pair

TOY_WIDTHS = (8, 6, 4, 3)


def toy_params(seed, dtype=np.float32):
    return AutoencoderParams(widths=TOY_WIDTHS, seed=seed, dtype=dtype)


def reconstruction_loss(params, store):
    """Mean squared error of the whole network's reconstruction of the store."""
    x = decode(store.images).astype(params.encoder[0].W.dtype, copy=False)
    return float(((nn.forward(params.layers, x, cache=False) - x) ** 2).mean())


def toy_store(n=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return ImageStore(rng.random((n, dim)), rng.integers(0, 10, n))


def numeric_grads(layers, x, param, eps=1e-6):
    """Central finite differences of the reconstruction MSE wrt one array."""
    grad = np.zeros_like(param)
    flat = param.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up, _ = nn.mse(nn.forward(layers, x), x)
        flat[i] = orig - eps
        down, _ = nn.mse(nn.forward(layers, x), x)
        flat[i] = orig
        grad.ravel()[i] = (up - down) / (2 * eps)
    return grad


class TestGradients:
    def test_autoencoder_matches_finite_differences(self):
        store = toy_store()
        params = AutoencoderParams(widths=TOY_WIDTHS, seed=3, dtype=np.float64)
        layers = params.layers
        x = store.images

        recon = nn.forward(layers, x)
        _, grad = nn.mse(recon, x)
        nn.backward(layers, grad)

        for layer in params.weighted_layers():
            for analytic, param in ((layer.dW, layer.W), (layer.db, layer.b)):
                numeric = numeric_grads(layers, x, param)
                scale = np.maximum(np.abs(numeric), 1e-8)
                rel = np.abs(analytic - numeric) / scale
                # zero-gradient coords (dead ReLU paths) compare absolutely
                mask = np.abs(numeric) > 1e-10
                assert rel[mask].max(initial=0.0) < 1e-4
                assert np.abs(analytic[~mask]).max(initial=0.0) < 1e-8


def reference_train_autoencoder(params, store, epochs, seed, lr=1e-3, momentum=0.9, batch_size=256):
    """The autoencoder's own epoch loop and input path from before nn.fit
    and Network.inputs, kept as the reference they must match bit for bit."""
    dtype = params.encoder[0].W.dtype.type
    layers = params.layers
    opt = nn.SGDMomentum(layers, lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(1 << 20)
    n = len(store)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = decode(store.images[idx]).astype(dtype, copy=False)
            recon = nn.forward(layers, batch)
            loss, grad = nn.mse(recon, batch)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite reconstruction loss at epoch {epoch}")
            nn.backward(layers, grad)
            opt.step()
            total += loss * batch.shape[0]
        params.loss_history.append(total / n)
        params.epochs_trained = epoch
    return params


class TestTrainAutoencoder:
    def test_zero_epochs_is_noop(self):
        store = toy_store()
        trained = train_autoencoder(toy_params(1), store, epochs=0, seed=1)
        assert trained.epochs_trained == 0 and not trained.loss_history
        assert reconstruction_loss(trained, store) == reconstruction_loss(toy_params(1), store)

    def test_loss_decreases(self):
        store = toy_store(n=64)
        one = train_autoencoder(toy_params(4, np.float64), store, epochs=1, seed=4)
        many = train_autoencoder(toy_params(4, np.float64), store, epochs=40, seed=4)
        assert reconstruction_loss(many, store) <= reconstruction_loss(one, store)
        assert many.loss_history[-1] <= many.loss_history[0]

    def test_overfits_single_image(self, monkeypatch):
        monkeypatch.setattr(embedding, "LR", 0.02)
        monkeypatch.setattr(embedding, "BATCH", 1)
        rng = np.random.default_rng(9)
        store = ImageStore(rng.random((1, 8)), [0])
        params = train_autoencoder(toy_params(2, np.float64), store, epochs=3000, seed=2)
        assert reconstruction_loss(params, store) < 1e-3

    def test_seed_determinism(self):
        store = toy_store(n=32)
        a = train_autoencoder(toy_params(7), store, epochs=5, seed=7)
        b = train_autoencoder(toy_params(7), store, epochs=5, seed=7)
        for la, lb in zip(a.weighted_layers(), b.weighted_layers()):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.b, lb.b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_loop(self, dtype, monkeypatch):
        monkeypatch.setattr(embedding, "BATCH", 8)
        store = toy_store(n=37)  # batches of 8: the last one has 5 images
        ours = train_autoencoder(toy_params(6, dtype), store, epochs=2, seed=6)
        reference = reference_train_autoencoder(toy_params(6, dtype), store, epochs=2, seed=6, batch_size=8)
        for la, lb in zip(ours.weighted_layers(), reference.weighted_layers()):
            for a, b in ((la.W, lb.W), (la.b, lb.b)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert ours.loss_history == reference.loss_history
        assert ours.epochs_trained == reference.epochs_trained == 2

    def test_divergence_names_epoch(self, monkeypatch):
        monkeypatch.setattr(embedding, "LR", 1e12)  # overflow fast
        store = toy_store(n=32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train_autoencoder(toy_params(0), store, epochs=5, seed=0)


class TestEncode:
    def test_shape(self):
        store = toy_store(n=11)
        params = AutoencoderParams(widths=TOY_WIDTHS, seed=0)
        assert encode(params, store).shape == (11, 3)

    def test_zero_weights_zero_embedding(self):
        store = toy_store()
        params = AutoencoderParams(widths=TOY_WIDTHS, seed=0)
        for layer in params.weighted_layers():
            layer.W[...] = 0.0
            layer.b[...] = 0.0
        assert not encode(params, store).any()

    def test_deterministic(self):
        store = toy_store(n=9)
        params = AutoencoderParams(widths=TOY_WIDTHS, seed=5)
        assert np.array_equal(encode(params, store), encode(params, store))

    def test_dim_mismatch(self):
        params = AutoencoderParams(widths=TOY_WIDTHS, seed=0)
        with pytest.raises(ValueError):
            encode(params, toy_store(dim=9))


class TestParamsPersistence:
    def test_roundtrip(self, tmp_path):
        store = toy_store(n=16)
        params = train_autoencoder(toy_params(8), store, epochs=3, seed=8)
        path = tmp_path / "ae.tf"
        params.save(path)
        loaded = AutoencoderParams.load(path)
        assert loaded.epochs_trained == 3
        assert np.array_equal(encode(loaded, store), encode(params, store))

    def test_resumed_training_counts_epochs(self, tmp_path):
        # epochs_trained is a running total, in step with loss_history
        store = toy_store(n=16)
        train_autoencoder(toy_params(8), store, epochs=2, seed=8).save(tmp_path / "ae.tf")
        resumed = train_autoencoder(AutoencoderParams.load(tmp_path / "ae.tf"), store, epochs=1, seed=9)
        assert resumed.epochs_trained == len(resumed.loss_history) == 3

    @pytest.mark.parametrize("shape", [(12,), (2, 3, 2)])
    def test_embedding_that_is_not_a_matrix_refused(self, tmp_path, shape):
        path = tmp_path / "embedding.tf"
        save_embedding(np.zeros(shape), path)
        with pytest.raises(ValueError, match=re.escape(f"tensor 'embedding' has shape {shape}, not a 2-D matrix")):
            load_embedding(path)
        save_embedding(np.ones((6, 2)), path)
        assert np.array_equal(load_embedding(path), np.ones((6, 2)))


def unblocked_pca(images, dim):
    """The whole-matrix float64 PCA: centre, covariance, eigh, project."""
    centred = images - images.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centred.T @ centred)
    order = np.argsort(eigvals)[::-1][:dim]
    components = eigvecs[:, order].T
    eigvals = eigvals[order]
    tol = max(eigvals.max(initial=0.0), 0.0) * len(images) * np.finfo(np.float64).eps
    components[np.maximum(eigvals, 0.0) <= tol] = 0.0
    for comp in components:
        if comp.any() and comp[np.argmax(np.abs(comp))] < 0:
            comp *= -1.0
    return centred @ components.T


class TestPca:
    def test_shape(self, rng):
        store = ImageStore(rng.random((20, 12)), rng.integers(0, 10, 20))
        assert pca_embed(store, dim=10).shape == (20, 10)

    def test_exact_on_low_rank_data(self, rng):
        basis = rng.random((3, 10))
        coeffs = rng.random((30, 3))
        images = coeffs @ basis + rng.random(10)  # affine 3-d subspace
        store = ImageStore(images, np.zeros(30, dtype=int))
        x = decode(store.images)
        mean = x.mean(axis=0)
        components = _components(_scatter(store, mean), len(store), 3)
        proj = (x - mean) @ components.T
        recon = proj @ components + mean
        assert np.abs(recon - x).max() < 1e-8

    @pytest.mark.parametrize("n", [30, PCA_BLOCK])
    def test_one_block_bitwise_equal_to_unblocked(self, rng, n):
        store = ImageStore(rng.random((n, 64)), np.zeros(n, dtype=int))
        assert np.array_equal(pca_embed(store, dim=10), unblocked_pca(store.images, 10))

    def test_blocks_match_unblocked(self, rng):
        n = 2 * PCA_BLOCK + 808  # ragged last block
        store = ImageStore(rng.random((n, 64)), np.zeros(n, dtype=int))
        ref = unblocked_pca(store.images, 10)
        assert np.abs(pca_embed(store, dim=10) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_no_centred_copy_of_the_store(self, rng):
        n = 4 * PCA_BLOCK + 808  # one block buffer plus the output stay under half
        store = ImageStore(rng.random((n, 64)), np.zeros(n, dtype=int))
        tracemalloc.start()
        try:
            live, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pca_embed(store, dim=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - live < store.images.nbytes / 2

    def test_no_centred_block_held_through_eigh(self, rng, monkeypatch):
        n, d = 2000, 64  # one centred block (n * d * 8 bytes) dwarfs the (d, d) scatter
        store = ImageStore(rng.random((n, d)), np.zeros(n, dtype=int))
        eigh, held = np.linalg.eigh, []

        def traced_eigh(a):
            held.append(tracemalloc.get_traced_memory()[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
        tracemalloc.start()
        try:
            live, _ = tracemalloc.get_traced_memory()
            pca_embed(store, dim=10)
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert held[0] - live < n * d * 8 / 2

    @pytest.mark.parametrize("case", ["ragged", "extremes"])
    def test_exact_scatter_equals_int64_reference(self, rng, case):
        if case == "ragged":
            pixels = rng.integers(0, 256, size=(3 * EXACT_ROWS + 7, 64), dtype=np.uint8)
        else:
            # whole blocks of 0 and of 255 reach the 2^24 bound on a block's
            # partial sums; a random ragged tail keeps the scatter non-zero
            extremes = np.repeat(np.array([0, 255, 0], dtype=np.uint8), EXACT_ROWS)
            tail = rng.integers(0, 256, size=(EXACT_ROWS // 2, 64), dtype=np.uint8)
            pixels = np.vstack([np.tile(extremes[:, None], (1, 64)), tail])
            pixels[EXACT_ROWS : 2 * EXACT_ROWS, 32:] = 0  # all-0 columns against all-255 ones
        x = pixels.astype(np.int64)
        sums = x.sum(axis=0)
        reference = len(x) * (x.T @ x) - np.outer(sums, sums)
        got_sums, scatter = _exact_scatter(pixels)
        # the column sums come from the float32 blocks: whole blocks of 0 or
        # 255 reach the 2^17 bound on a block's column sum
        assert scatter.dtype == got_sums.dtype == np.int64
        assert np.array_equal(got_sums, sums)
        assert np.array_equal(scatter, reference)

    def test_exact_scatter_at_its_row_limit(self):
        # all-0 pixels make n G and T T^T both 2^62, the int64 extreme
        pixels = np.broadcast_to(np.uint8(0), (EXACT_MAX_ROWS, 2))
        sums, scatter = _exact_scatter(pixels)
        assert np.array_equal(sums, [0, 0])
        assert np.array_equal(scatter, np.zeros((2, 2), dtype=np.int64))

    def test_refuses_more_rows_than_the_exact_envelope(self):
        store = ImageStore(np.zeros((1, 4), dtype=np.uint8), [0])
        store.images = np.broadcast_to(store.images, (EXACT_MAX_ROWS + 1, 4))  # no real allocation
        with pytest.raises(ValueError, match=f"at most {EXACT_MAX_ROWS} images, got {EXACT_MAX_ROWS + 1}"):
            pca_embed(store, dim=2)

    def test_uint8_store_matches_its_decode(self):
        n = 2 * PCA_BLOCK + 7  # ragged in both block sizes
        u8, f64 = uint8_store_pair(n, 64, seed=3)
        ref = pca_embed(f64, dim=10)
        assert np.abs(pca_embed(u8, dim=10) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_idx_store_never_decoded_whole(self, tmp_path, rng):
        n = 5 * PCA_BLOCK + 808  # one decoded block stays under half the decode
        images = rng.integers(0, 256, size=(n, 14, 14), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(n, dtype=np.uint8))
        float64_copy = n * 196 * 8
        tracemalloc.start()
        try:
            live, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pca_embed(load_idx(img, lbl), dim=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - live < float64_copy / 2

    def test_rank_deficient_zero_pads(self, rng):
        images = np.tile(rng.random(6), (15, 1)) * rng.random((15, 1))  # rank 1 + mean
        store = ImageStore(images, np.zeros(15, dtype=int))
        emb = pca_embed(store, dim=5)
        assert np.abs(emb[:, 2:]).max() < 1e-9

    def test_downstream_purity_on_separated_gaussians(self):
        store = generate_synthetic(300, 3, separation=100, dim=12, seed=0)
        emb = pca_embed(store, dim=5)
        model = kmeans(emb, k=3, seed=0)
        assert purity(model, store.evaluation_labels()) == 1.0

    def test_bad_dim(self, rng):
        store = ImageStore(rng.random((5, 4)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            pca_embed(store, dim=5)
