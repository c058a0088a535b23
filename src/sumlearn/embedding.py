"""Clustering-friendly 10-d image representations.

Two backends: a fully connected symmetric autoencoder (the reference
configuration) and a deterministic PCA projection used as a fast fallback
for CI-scale runs. The encoder half of the trained autoencoder is the
embedding map.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .dataset import decode
from .errors import DivergenceError
from .tensorfile import load_tensors, save_tensors

ENCODER_WIDTHS = (784, 500, 500, 2000, 10)
PCA_BLOCK = 4096  # rows per PCA block: the chunk `encode` uses


@dataclass
class TrainingHyper:
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 256
    dtype: str = "float32"


class AutoencoderParams:
    """Symmetric dense autoencoder: encoder widths mirrored by the decoder.

    Hidden layers are ReLU; the code layer and the reconstruction layer
    are linear.
    """

    def __init__(self, widths=ENCODER_WIDTHS, seed=0, dtype=np.float64):
        self.widths = tuple(int(w) for w in widths)
        self.seed = seed
        self.epochs_trained = 0
        self.loss_history = []
        rng = np.random.default_rng(seed)
        enc = list(self.widths)
        dec = enc[::-1]
        self.encoder = self._stack(enc, rng, dtype)
        self.decoder = self._stack(dec, rng, dtype)

    @staticmethod
    def _stack(widths, rng, dtype):
        layers = []
        n_dense = len(widths) - 1
        for i in range(n_dense):
            layers.append(nn.Dense(widths[i], widths[i + 1], rng, dtype=dtype))
            if i < n_dense - 1:
                layers.append(nn.ReLU())  # final layer of each half stays linear
        return layers

    @property
    def layers(self):
        return self.encoder + self.decoder

    def dense_layers(self):
        return [l for l in self.layers if isinstance(l, nn.Dense)]

    def save(self, path, meta=None):
        m = dict(meta or {})
        m.update(
            widths=list(self.widths),
            seed=self.seed,
            epochs=self.epochs_trained,
            loss_history=self.loss_history,
        )
        save_tensors(path, nn.weight_tensors(self.dense_layers()), meta=m)

    @classmethod
    def load(cls, path):
        meta, tensors = load_tensors(path)
        dtype = tensors["W0"].dtype.type
        params = cls(widths=meta["widths"], seed=meta["seed"], dtype=dtype)
        nn.set_weights(params.dense_layers(), tensors)
        params.epochs_trained = meta.get("epochs", 0)
        params.loss_history = list(meta.get("loss_history", []))
        return params


def train_autoencoder(store, epochs, seed=0, hyper=None, widths=None):
    """Minimize mean-squared reconstruction error with mini-batch SGD.

    Deterministic given (store, epochs, seed, hyper): parameter init and
    the per-epoch shuffles all derive from `seed`. epochs=0 returns the
    freshly initialized parameters untouched.
    """
    hyper = hyper or TrainingHyper()
    dtype = np.dtype(hyper.dtype).type
    if widths is None:
        widths = (store.dim,) + ENCODER_WIDTHS[1:]
    params = AutoencoderParams(widths=widths, seed=seed, dtype=dtype)
    if epochs <= 0:
        return params

    layers = params.layers
    opt = nn.SGDMomentum(layers, lr=hyper.learning_rate, momentum=hyper.momentum)
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(1 << 20)  # decouple shuffles from init draws
    n = len(store)
    bs = hyper.batch_size

    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, bs):
            batch = decode(store.images[order[start : start + bs]]).astype(dtype, copy=False)
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


def encode(params, store, chunk=4096):
    """Forward pass through the encoder half only. Pure and deterministic."""
    if store.dim != params.widths[0]:
        raise ValueError(
            f"encoder expects dim {params.widths[0]}, store has {store.dim}"
        )
    dtype = params.encoder[0].W.dtype
    out = np.empty((len(store), params.widths[-1]), dtype=np.float64)
    for start in range(0, len(store), chunk):
        x = decode(store.images[start : start + chunk]).astype(dtype, copy=False)
        out[start : start + x.shape[0]] = nn.forward(params.encoder, x, cache=False)
    return out


def reconstruction_loss(params, store, chunk=4096):
    dtype = params.encoder[0].W.dtype
    total = 0.0
    for start in range(0, len(store), chunk):
        x = decode(store.images[start : start + chunk]).astype(dtype, copy=False)
        recon = nn.forward(params.layers, x, cache=False)
        total += float(((recon - x) ** 2).mean()) * x.shape[0]
    return total / len(store)


def _mean(store):
    """decode(store.images).mean(axis=0), bit for bit, decoded PCA_BLOCK rows at a
    time. A mean over axis 0 adds the rows in order, so the running sum
    goes in as row 0 of the next block's reduction."""
    n = len(store)
    buf = np.empty((min(n, PCA_BLOCK) + 1, store.dim))
    lead = 0  # the first block has no running sum above it
    for start in range(0, n, PCA_BLOCK):
        rows = lead + min(PCA_BLOCK, n - start)
        decode(store.images[start : start + rows - lead], out=buf[lead:rows])
        buf[0] = np.add.reduce(buf[:rows], axis=0)
        lead = 1
    return buf[0] / n


def _centred_blocks(store, mean):
    """(start, block) over the store's rows decoded and centred on `mean`,
    PCA_BLOCK rows at a time. Every block is written into one reused
    buffer, so a caller must be done with a block before asking for the
    next."""
    buf = np.empty((min(len(store), PCA_BLOCK), store.dim))
    for start in range(0, len(store), PCA_BLOCK):
        block = buf[: min(PCA_BLOCK, len(store) - start)]
        decode(store.images[start : start + block.shape[0]], out=block)
        block -= mean
        yield start, block


def _pca_fit(store, mean, dim):
    """Top-`dim` principal axes of the store's rows centred on `mean`;
    components past the data rank are zeroed so rank-deficient inputs
    project deterministically. The covariance is summed over row blocks;
    one block is exactly the product of the whole centred matrix."""
    blocks = _centred_blocks(store, mean)
    _, first = next(blocks)
    cov = first.T @ first
    for _, block in blocks:
        cov += block.T @ block
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:dim]
    components = eigvecs[:, order].T  # (dim, D)
    eigvals = eigvals[order]

    tol = max(eigvals.max(initial=0.0), 0.0) * len(store) * np.finfo(np.float64).eps
    components[np.maximum(eigvals, 0.0) <= tol] = 0.0
    # fix sign per component so the projection is reproducible
    for comp in components:
        if comp.any():
            pivot = np.argmax(np.abs(comp))
            if comp[pivot] < 0:
                comp *= -1.0
    return components


def pca_embed(store, dim=10):
    """Projection onto the top principal components of the centered data.

    Works in row blocks of PCA_BLOCK, decoded from the store's pixels, so
    besides the store and the output it holds one decoded block, never a
    decoded or centred copy of the whole store.
    """
    if not 1 <= dim <= store.dim:
        raise ValueError(f"dim must be in [1, {store.dim}], got {dim}")
    mean = _mean(store)
    components_t = _pca_fit(store, mean, dim).T
    out = np.empty((len(store), dim))
    for start, block in _centred_blocks(store, mean):
        np.matmul(block, components_t, out=out[start : start + block.shape[0]])
    return out


def save_embedding(matrix, path, meta=None):
    save_tensors(path, {"embedding": np.asarray(matrix, dtype=np.float64)}, meta=meta)


def load_embedding(path):
    return load_tensors(path)[1]["embedding"]
