"""CNN classifier trained on the inferred labels, plus evaluation helpers.

Architecture for 28x28 single-channel input, valid convolutions:
conv 32@3x3 -> pool 2x2 -> conv 64@3x3 -> conv 64@3x3 -> pool 2x2
-> dense 100 -> dense 10, ReLU activations, He init, softmax output.
The logits read only the top-left 26x26 pixels of a 28x28 image: the second
pool floors conv3's 9x9 map to 4x4, so conv3's last row and column never
reach the dense layers, nor does anything that feeds only them, back to the
image's rows and columns 26-27. So the network is fed that used square
(`CnnParams.used`, 4 * after_pool2 + 10 for any side) and computes
26 -> 24 -> 12 -> 10 -> 8 -> 4, flattened 1024; neither pool floors. The
logits are the bits the full image gives, except where BLAS takes its
small-matrix path for the shorter product (seen for conv3 at sides 16-17 on
chunks of 4-6 images). A training step's gradients are the same bits too,
except conv dW, which sum over fewer output positions (the dropped ones add
exact zeros) and so round in another order: they differ by at most about
5e-7 (float32) or 1e-15 (float64) of their largest entry.

Where a convolution is pooled, the layers run conv -> pool -> ReLU, so
ReLU touches a quarter of the values. That is the same network as conv ->
ReLU -> pool: ReLU is monotone, so the max of the rectified window is the
rectified max. Backward agrees too: a window whose max is positive routes
its gradient to the same first-maximal element either way, and any other
window passes exact zeros. The weighted layers keep their order, so saved
weights (W0..b4) are unchanged.

The first pool is conv1's own (`nn.Conv2d(..., pool=True)`): conv1 builds
its im2col rows window-major, so the pool is a max over four contiguous
blocks of its GEMM output and the layer list is conv1+pool, ReLU, conv2,
ReLU, conv3, pool, ReLU, Flatten, dense, ReLU, dense. The logits are the
bits of an unpooled conv1 followed by MaxPool2x2. Of a training step's
gradients only conv1's dW and db change, summed in another order: by at
most about 6e-7 (float32) or 1.2e-15 (float64) of their largest entry.
"""

import numpy as np

from . import nn
from .dataset import grid_sums
from .errors import ConsistencyError, InputError

# SGD's learning rate and momentum, and the images per training step and per
# classification chunk. Read at call time; no stage key hashes them, so a
# change to one needs a pipeline.STAGE_FORMAT bump.
LR = 0.01
MOMENTUM = 0.9
BATCH = 32
MIN_SIDE = 14  # the smallest image side whose second pool is not empty


class CnnParams(nn.Network):
    """The network's layers: He-initialized weights (fan-in scaling), zero
    biases; with draw=False the weights are left unset. Its tensor file's
    meta holds seed and side. A side below MIN_SIDE is refused with an
    InputError naming the store, whose images are then too small."""

    def __init__(self, seed=0, dtype=np.float64, side=28, draw=True):
        if side < MIN_SIDE:
            raise InputError("store", f"the CNN needs images of side at least {MIN_SIDE}, got side {side}")
        self.seed = seed
        self.side = side
        self.input_shape = (1, side, side)
        rng = np.random.default_rng(seed) if draw else None
        after_pool1 = (side - 2) // 2
        after_pool2 = (after_pool1 - 2 - 2) // 2
        self.used = 4 * after_pool2 + 10  # the side of the square the logits read
        flat = after_pool2 * after_pool2 * 64
        self.layers = [
            nn.Conv2d(1, 32, (3, 3), rng, dtype=dtype, pool=True),
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

    def inputs(self, pixels):
        """`Network.inputs` cut to its top-left used x used square, the only
        pixels the logits read."""
        return super().inputs(pixels)[:, :, : self.used, : self.used]

    def meta(self):
        return {"seed": self.seed, "side": self.side}

    @classmethod
    def from_meta(cls, meta, dtype):
        return cls(seed=meta["seed"], dtype=dtype, side=meta.get("side", 28), draw=False)


def check_labels(labels, n_images):
    """`labels` as int64, refused with an InputError naming the labels
    unless there is one per image and each is a digit 0..9; the first bad
    image is named."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != n_images:
        raise InputError("labels", f"{labels.shape[0]} labels for {n_images} images")
    bad = np.flatnonzero((labels < 0) | (labels > 9))
    if bad.size:
        raise InputError("labels", f"image {bad[0]} has label {labels[bad[0]]}, outside 0..9")
    return labels


def train_cnn(params, store, labels, epochs, seed=0):
    """SGD (LR, MOMENTUM) on softmax cross entropy.

    Mini-batches of BATCH images reshuffled each epoch from `seed`;
    epochs=0 leaves the parameters untouched, and training on a store of
    no images is an InputError naming it. `labels` must pass `check_labels`.
    """
    labels = check_labels(labels, len(store))
    if epochs <= 0:
        return params
    if not len(store):
        raise InputError("store", "the store holds no images to train on")
    nn.fit(  # the loss is looked up per call, so perfbench's tracer can wrap it
        params.layers, lambda idx: (params.inputs(store.images[idx]), labels[idx]), len(store),
        nn.softmax_cross_entropy, epochs, np.random.default_rng(seed), LR, MOMENTUM, BATCH,
    )
    return params


def classify(params, images):
    """Predicted digit and softmax probabilities per image of `images`,
    pixels as a store holds them.

    Images run in chunks of the training batch, BATCH. Each chunk is
    decoded and cast on its own, and the forward pass keeps no backward
    cache, so classify holds one chunk's input and activations at a time:
    never more than a training step does. A row's arithmetic does not
    depend on how many rows share its chunk, with one exception: BLAS may
    take a small-matrix path for a chunk of 8 rows or fewer, so a last
    chunk of 1-8 images can differ in the last bits of `probs` from the
    same images inside a larger chunk.
    """
    images = np.asarray(images)
    probs = np.empty((len(images), 10), dtype=np.float64)
    for start in range(0, len(images), BATCH):
        logits = nn.forward(params.layers, params.inputs(images[start : start + BATCH]), cache=False)
        probs[start : start + logits.shape[0]] = nn.softmax(logits)
    return probs.argmax(axis=1), probs


def evaluate(params, test_corpus, test_store):
    """cls_acc and add_acc from a single classify pass over the test store.
    A store whose images are not the CNN's side x side is refused with an
    InputError naming the store."""
    if test_store.dim != params.side**2:
        raise InputError("store", f"images of {test_store.dim} pixels; the CNN takes {params.side}x{params.side}")
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
