"""CNN classifier trained on the inferred labels, plus evaluation helpers.

Architecture for 28x28 single-channel input, valid convolutions:
conv 32@3x3 -> pool 2x2 -> conv 64@3x3 -> conv 64@3x3 -> pool 2x2
-> dense 100 -> dense 10, ReLU activations, He init, softmax output.
Intermediate sizes: 28 -> 26 -> 13 -> 11 -> 9 -> 4, flattened 1024.

Where a convolution is pooled, the layers run conv -> pool -> ReLU, so
ReLU touches a quarter of the values. That is the same network as conv ->
ReLU -> pool: ReLU is monotone, so the max of the rectified window is the
rectified max. Backward agrees too: a window whose max is positive routes
its gradient to the same first-maximal element either way, and any other
window passes exact zeros. The weighted layers keep their order, so saved
weights (W0..b4) are unchanged.
"""

import numpy as np

from . import nn
from .dataset import decode, grid_sums
from .errors import ConsistencyError, DivergenceError
from .tensorfile import load_tensors, save_tensors

BATCH = 32  # images per training step, and per classification chunk


class CnnParams:
    """The network's layers: He-initialized weights (fan-in scaling), zero biases."""

    def __init__(self, seed=0, dtype=np.float64, side=28):
        self.seed = seed
        self.side = side
        rng = np.random.default_rng(seed)
        after_pool1 = (side - 2) // 2
        after_pool2 = (after_pool1 - 2 - 2) // 2
        flat = after_pool2 * after_pool2 * 64
        self.layers = [
            nn.Conv2d(1, 32, (3, 3), rng, dtype=dtype),
            nn.MaxPool2x2(),
            nn.ReLU(),
            nn.Conv2d(32, 64, (3, 3), rng, dtype=dtype),
            nn.ReLU(),
            nn.Conv2d(64, 64, (3, 3), rng, dtype=dtype),
            nn.MaxPool2x2(),
            nn.ReLU(),
            nn.Flatten(),
            nn.Dense(flat, 100, rng, dtype=dtype),
            nn.ReLU(),
            nn.Dense(100, 10, rng, dtype=dtype),
        ]

    def weighted_layers(self):
        return [l for l in self.layers if l.params()]

    def save(self, path, meta=None):
        m = dict(meta or {})
        m.update(seed=self.seed, side=self.side)
        save_tensors(path, nn.weight_tensors(self.weighted_layers()), meta=m)

    @classmethod
    def load(cls, path):
        meta, tensors = load_tensors(path)
        dtype = tensors["W0"].dtype.type
        params = cls(seed=meta["seed"], dtype=dtype, side=meta.get("side", 28))
        nn.set_weights(params.weighted_layers(), tensors)
        return params


def _as_batch(images, side, dtype):
    x = np.asarray(images)
    if x.ndim == 2 and x.shape[1] == side * side:
        x = x.reshape(-1, 1, side, side)
    elif x.ndim == 3 and x.shape[1:] == (side, side):
        x = x[:, None, :, :]
    elif x.ndim != 4 or x.shape[1:] != (1, side, side):
        raise ValueError(f"expected {side}x{side} images, got shape {x.shape}")
    return x.astype(dtype)


def train_cnn(params, store, labels, epochs, seed=0, lr=0.01, momentum=0.9, batch_size=BATCH):
    """SGD (lr 0.01, momentum 0.9) on softmax cross entropy.

    Mini-batches reshuffled each epoch from `seed`; epochs=0 leaves the
    parameters untouched.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != len(store):
        raise ValueError(f"{labels.shape[0]} labels for {len(store)} images")
    if epochs <= 0:
        return params

    dtype = params.weighted_layers()[0].W.dtype.type
    opt = nn.SGDMomentum(params.layers, lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)
    n = len(store)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x = _as_batch(decode(store.images[idx]), params.side, dtype)
            logits = nn.forward(params.layers, x)
            loss, grad = nn.softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            nn.backward(params.layers, grad)
            opt.step()
    return params


def classify(params, images, chunk=BATCH):
    """Predicted digit and softmax probabilities per image of `images`,
    pixels as a store holds them.

    Images run in chunks of the training batch. Each chunk is decoded and
    cast on its own, and the forward pass keeps no backward cache, so
    classify holds one chunk's input and activations at a time: never more
    than a training step does. A row's arithmetic does not depend on how
    many rows share its chunk, with one exception: BLAS may take a
    small-matrix path for a chunk of 8 rows or fewer, so a last chunk of
    1-8 images can differ in the last bits of `probs` from the same images
    inside a larger chunk.
    """
    dtype = params.weighted_layers()[0].W.dtype.type
    images = np.asarray(images)
    probs = np.empty((len(images), 10), dtype=np.float64)
    for start in range(0, len(images), chunk):
        x = _as_batch(decode(images[start : start + chunk]), params.side, dtype)
        logits = nn.forward(params.layers, x, cache=False)
        probs[start : start + logits.shape[0]] = nn.softmax(logits)
    return probs.argmax(axis=1), probs


def evaluate(params, test_corpus, test_store):
    """cls_acc and add_acc from a single classify pass over the test store."""
    preds, _ = classify(params, test_store.images)
    return {
        "cls_acc": label_accuracy(preds, test_store),
        "add_acc": _addition_accuracy(preds, test_corpus),
    }


def eval_classification(params, test_store):
    """Fraction of test images whose argmax matches the true label."""
    preds, _ = classify(params, test_store.images)
    return label_accuracy(preds, test_store)


def eval_addition(params, test_corpus, test_store):
    """Fraction of test examples whose predicted digits reproduce the sum."""
    preds, _ = classify(params, test_store.images)
    return _addition_accuracy(preds, test_corpus)


def label_accuracy(labels, store):
    """Fraction of the store's images whose label is their true digit."""
    labels = np.asarray(labels)
    truth = store.evaluation_labels()
    if labels.shape[0] != truth.shape[0]:
        raise ConsistencyError(f"{labels.shape[0]} labels for {truth.shape[0]} images")
    return float((labels == truth).mean())


def _addition_accuracy(preds, test_corpus):
    correct = grid_sums(test_corpus.grids, preds) == test_corpus.sums
    return int(correct.sum()) / len(test_corpus)
