"""Seeded input generators owned by the benchmark.

Both generators are pure functions of their seed: the same seed writes the
same bytes and builds the same arrays. The program under test only ever
sees what they produce.
"""

import struct
from pathlib import Path

import numpy as np

from sumlearn.clustering import ClusterModel
from sumlearn.dataset import ImageStore, build_corpus

IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def mnist_like_images(rng, n, prototypes, offsets, noise):
    """uint8 images drawn around per-class sub-mode centres.

    Labels are balanced (a shuffled tiling of the classes); each image picks
    one of its class's sub-modes uniformly and adds isotropic pixel noise.
    """
    n_classes, n_modes, dim = offsets.shape
    labels = np.tile(np.arange(n_classes), n // n_classes + 1)[:n]
    labels = labels[rng.permutation(n)]
    modes = rng.integers(0, n_modes, size=n)
    images = np.empty((n, dim), dtype=np.uint8)
    for start in range(0, n, 5000):
        sl = slice(start, start + 5000)
        centres = prototypes[labels[sl]] + offsets[labels[sl], modes[sl]]
        pixels = centres + noise * rng.standard_normal(centres.shape)
        images[sl] = np.clip(np.rint(pixels), 0, 255)
    return images, labels.astype(np.uint8)


def write_idx(images_path, labels_path, images, labels, side):
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, images.shape[0], side, side))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 2049, labels.shape[0]))
        f.write(labels.tobytes())


def write_mnist_idx(out_dir, seed, n_train=60000, n_test=500, side=28,
                    n_classes=10, n_modes=5, pull=0.4, noise=40.0):
    """Write MNIST-shaped IDX files (28x28 uint8, 10 classes) into out_dir.

    Each class is `n_modes` Gaussian sub-modes. A sub-mode sits up to `pull`
    of the way from its class prototype toward another class's prototype,
    inside the principal subspace the embedding keeps, so k-means needs
    several Lloyd iterations to settle; `pull` < 0.5 keeps every sub-mode
    nearer its own class, so purity stays >= 0.99. Returns the input
    properties.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    dim = side * side
    prototypes = rng.uniform(30.0, 225.0, size=(n_classes, dim))
    toward = (np.arange(n_classes)[:, None] + rng.integers(1, n_classes, size=(n_classes, n_modes))) % n_classes
    reach = pull * rng.uniform(0.0, 1.0, size=(n_classes, n_modes, 1))
    offsets = reach * (prototypes[toward] - prototypes[:, None, :])
    written = 0
    for split, n in (("train", n_train), ("test", n_test)):
        images, labels = mnist_like_images(rng, n, prototypes, offsets, noise)
        img_name, lbl_name = IDX_FILES[split]
        write_idx(out_dir / img_name, out_dir / lbl_name, images, labels, side)
        written += (out_dir / img_name).stat().st_size + (out_dir / lbl_name).stat().st_size
    return {"train_images": n_train, "test_images": n_test, "idx_bytes": written}


def planted_clustering(seed, n_images=20000, w=2, h=2, reassigned=0.2, k=10, dim=10):
    """Ground truth, a sum corpus over it, and a ClusterModel of set purity.

    Cluster c stands for digit `digits[c]`, a seeded permutation. A fraction
    `reassigned` of the images is moved to a uniformly drawn cluster (which
    may be its own), so purity is about (1 - reassigned) + reassigned / k.
    Moved images sit farther from their centroid, so the inference radius
    schedule trusts them last.

    Returns (labels, corpus, model, digits).
    """
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(k), n_images // k + 1)[:n_images]
    labels = labels[rng.permutation(n_images)]
    digits = rng.permutation(k)
    assignment = np.argsort(digits)[labels]
    moved = rng.choice(n_images, size=int(round(reassigned * n_images)), replace=False)
    assignment[moved] = rng.integers(0, k, size=moved.size)
    distance = np.abs(rng.standard_normal(n_images))
    distance[moved] += 1.5
    model = ClusterModel(
        k=k,
        centroids=rng.standard_normal((k, dim)),
        assignment=assignment.astype(np.int64),
        distance=distance,
        seed=seed,
    )
    store = ImageStore(np.zeros((n_images, 1)), labels)
    corpus = build_corpus(store, w, h, 1, seed=seed)
    return labels, corpus, model, digits.astype(np.int64)
