"""Clustering-friendly 10-d image representations.

Two backends: a fully connected symmetric autoencoder (the reference
configuration) and a deterministic PCA projection used as a fast fallback
for CI-scale runs. The encoder half of the trained autoencoder is the
embedding map.

PCA takes uint8 pixels only (an IDX file's, or a synthetic store's after
`dataset.normalize_unit`), so every PCA is exact up to `eigh`: its scatter
matrix is computed in integers for up to 2^24 images, and a larger store
is refused.
"""

import numpy as np

from . import nn
from .errors import InputError
from .tensorfile import load_tensors, save_tensors

# The autoencoder's widths and SGD settings (learning rate, momentum,
# images per step) and the PCA block. Read at call time; no stage key
# hashes them, so a change to one needs a pipeline.STAGE_FORMAT bump.
ENCODER_WIDTHS = (784, 500, 500, 2000, 10)
LR = 1e-3
MOMENTUM = 0.9
BATCH = 256
PCA_BLOCK = 4096  # rows per PCA block: the chunk `encode` uses
EXACT_ROWS = 1024  # rows per float32 Gram block: 1024 * 128^2 = 2^24 stays exact
EXACT_MAX_ROWS = 1 << 24  # images the int64 scatter n G - S S^T holds without overflow


class AutoencoderParams(nn.Network):
    """Symmetric dense autoencoder: encoder widths mirrored by the decoder.

    Hidden layers are ReLU; the code layer and the reconstruction layer
    are linear. With draw=False the weights are left unset. Its tensor
    file's meta holds widths, seed, epochs and loss_history.
    """

    def __init__(self, widths=ENCODER_WIDTHS, seed=0, dtype=np.float64, draw=True):
        self.widths = tuple(int(w) for w in widths)
        self.input_shape = (self.widths[0],)
        self.seed = seed
        self.epochs_trained = 0
        self.loss_history = []
        rng = np.random.default_rng(seed) if draw else None
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

    def meta(self):
        return {
            "widths": list(self.widths),
            "seed": self.seed,
            "epochs": self.epochs_trained,
            "loss_history": self.loss_history,
        }

    @classmethod
    def from_meta(cls, meta, dtype):
        params = cls(widths=meta["widths"], seed=meta["seed"], dtype=dtype, draw=False)
        params.epochs_trained = meta.get("epochs", 0)
        params.loss_history = list(meta.get("loss_history", []))
        return params


def train_autoencoder(params, store, epochs, seed=0):
    """Minimize mean-squared reconstruction error with SGD (LR, MOMENTUM)
    on mini-batches of BATCH images, in the dtype of `params`; each
    epoch's mean loss is appended to `loss_history`.

    The per-epoch shuffles derive from `seed`, on a stream advanced past
    the draws that `AutoencoderParams(seed=seed)` makes; epochs=0 leaves
    the parameters untouched.
    """
    if epochs <= 0:
        return params
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(1 << 20)  # decouple shuffles from init draws

    def batch(idx):
        x = params.inputs(store.images[idx])
        return x, x

    params.loss_history += nn.fit(
        params.layers, batch, len(store), nn.mse, epochs, rng, LR, MOMENTUM, BATCH
    )
    params.epochs_trained += epochs
    return params


def encode(params, store):
    """Forward pass through the encoder half only, PCA_BLOCK rows at a
    time. Pure and deterministic."""
    out = np.empty((len(store), params.widths[-1]), dtype=np.float64)
    for start in range(0, len(store), PCA_BLOCK):
        x = params.inputs(store.images[start : start + PCA_BLOCK])
        out[start : start + x.shape[0]] = nn.forward(params.encoder, x, cache=False)
    return out


def _components(scatter, n, dim):
    """Top-`dim` eigenvectors of the (D, D) scatter matrix of `n` rows, one
    per row; components past the data rank are zeroed so rank-deficient
    inputs project deterministically, and each is signed so that its
    largest entry is positive."""
    eigvals, eigvecs = np.linalg.eigh(scatter)
    order = np.argsort(eigvals)[::-1][:dim]
    components = eigvecs[:, order].T  # (dim, D)
    eigvals = eigvals[order]

    tol = max(eigvals.max(initial=0.0), 0.0) * n * np.finfo(np.float64).eps
    components[np.maximum(eigvals, 0.0) <= tol] = 0.0
    # fix sign per component so the projection is reproducible
    for comp in components:
        if comp.any():
            pivot = np.argmax(np.abs(comp))
            if comp[pivot] < 0:
                comp *= -1.0
    return components


def _exact_scatter(pixels):
    """(S, n G - T T^T) for uint8 `pixels` (n, D): S their int64 column
    sums, and G and T = S - 128 n the Gram matrix and column sums of the
    pixels shifted by -128. The scatter is n^2 255^2 times the covariance
    of the decoded pixels, as exact int64.

    G and T are summed from EXACT_ROWS-row float32 blocks of the shifted
    pixels: a shifted pixel is at most 128 in magnitude, so every partial
    sum of a block's products is an integer of at most EXACT_ROWS 128^2 =
    2^24, and of a block's column sums at most EXACT_ROWS 128 = 2^17, exact
    in float32 whatever order BLAS or numpy adds in; their float64 totals
    are exact too. The int64 scatter cannot overflow for n <=
    EXACT_MAX_ROWS."""
    n, d = pixels.shape
    if n > EXACT_MAX_ROWS:
        raise ValueError(
            f"exact PCA scatter holds for at most {EXACT_MAX_ROWS} images, got {n}"
        )
    gram = np.zeros((d, d))
    column_sums = np.zeros(d)
    buf = np.empty((min(n, EXACT_ROWS), d), dtype=np.float32)
    for start in range(0, n, EXACT_ROWS):
        block = buf[: min(EXACT_ROWS, n - start)]
        np.subtract(pixels[start : start + block.shape[0]], 128, out=block, dtype=np.float32)
        gram += block.T @ block
        column_sums += block.sum(axis=0)
    shifted = column_sums.astype(np.int64)
    return shifted + 128 * n, n * gram.astype(np.int64) - np.outer(shifted, shifted)


def pca_embed(store, dim):
    """Projection of a uint8 store's decoded pixels onto their top
    principal components.

    The components come from the exact integer scatter of `_exact_scatter`,
    accumulated from EXACT_ROWS-row float32 blocks; it holds for at most
    EXACT_MAX_ROWS (2^24) images and is refused above that. Its float64
    copy, which `eigh` reads, is exact up to about 740K images and
    correctly rounded beyond. The projection is (raw - S/n) @
    components^T / 255, PCA_BLOCK rows at a time, so besides the store and
    the output it holds one block, never a decoded or centred copy of the
    whole store.

    A store that is not uint8 is an InputError naming store, and a `dim`
    outside 1..store.dim one naming embed_dim.
    """
    if store.images.dtype != np.uint8:
        raise InputError("store", f"PCA takes uint8 pixels, got {store.images.dtype} images")
    if not 1 <= dim <= store.dim:
        raise InputError("embed_dim", f"dim must be in [1, {store.dim}], got {dim}")
    n = len(store)
    sums, scatter = _exact_scatter(store.images)
    scatter = scatter.astype(np.float64)  # the int64 one is freed before eigh
    components_t = _components(scatter, n, dim).T
    del scatter  # freed before the projection allocates its block buffer
    centre = sums / n
    out = np.empty((n, dim))
    block = np.empty((min(n, PCA_BLOCK), store.dim))
    for start in range(0, n, PCA_BLOCK):
        rows = block[: min(PCA_BLOCK, n - start)]
        # a copy and an in-place subtract beat one mixed uint8/float64 subtract
        np.copyto(rows, store.images[start : start + rows.shape[0]])
        rows -= centre
        np.matmul(rows, components_t, out=out[start : start + rows.shape[0]])
    out /= 255.0
    return out


def save_embedding(matrix, path, meta=None):
    save_tensors(path, {"embedding": np.asarray(matrix, dtype=np.float64)}, meta=meta)


def load_embedding(path):
    """save_embedding's matrix. A tensor file without one, or whose
    `embedding` is not a 2-D matrix, is refused with a ValueError naming
    the tensor."""
    matrix = load_tensors(path)[1].get("embedding")
    if matrix is None:
        raise ValueError(f"{path}: no tensor 'embedding', so not an embedding")
    if matrix.ndim != 2:
        raise ValueError(f"{path}: tensor 'embedding' has shape {matrix.shape}, not a 2-D matrix")
    return matrix
