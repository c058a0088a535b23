import gzip
import struct

import numpy as np
import pytest

from sumlearn.dataset import Corpus, ImageStore
from sumlearn.clustering import ClusterModel


def write_idx_pair(tmp_path, images, labels, gz=False, image_magic=2051, label_magic=2049):
    """Write a (N, rows, cols) uint8 image array and labels as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    lbl_bytes = struct.pack(">II", label_magic, labels.shape[0]) + labels.tobytes()
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lbl_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as f:
        f.write(img_bytes)
    with opener(lbl_path, "wb") as f:
        f.write(lbl_bytes)
    return img_path, lbl_path


def store_with_labels(labels, dim=4, seed=0):
    """Store whose images are irrelevant but labels are fixed."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return ImageStore(rng.random((labels.shape[0], dim)), labels)


def uint8_store_pair(n, dim, seed=0):
    """The same random pixels as a uint8 store and as the float64 store of
    their decode, u8 / 255.0."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, dim), dtype=np.uint8)
    labels = rng.integers(0, 10, n)
    return ImageStore(pixels, labels), ImageStore(pixels / 255.0, labels)


def identity_model(labels, k=None, distance=None):
    """ClusterModel whose cluster index IS the given per-image label."""
    labels = np.asarray(labels, dtype=np.int64)
    k = k if k is not None else int(labels.max()) + 1
    if distance is None:
        distance = np.zeros(labels.shape[0])
    centroids = np.zeros((k, 2))
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=labels.copy(),
        distance=np.asarray(distance, dtype=np.float64),
    )


def corpus_from_grids(pairs):
    """Corpus from explicit (grid, sum) pairs of one grid shape; no pairs
    make an empty 1 x 1 corpus."""
    if not pairs:
        return Corpus(np.zeros((0, 1, 1), dtype=np.int64), np.zeros(0, dtype=np.int64))
    grids, sums = zip(*pairs)
    return Corpus(np.array(grids, dtype=np.int64), np.array(sums, dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def planted_clustering(seed, n_images, w=2, h=2, reassigned=0.2, oversample_factor=1, k=10):
    """Ground truth, a sum corpus over it, and a ClusterModel of set purity.

    Cluster c stands for digit `digits[c]`, a seeded permutation. A fraction
    `reassigned` of the images moves to a uniformly drawn cluster and sits
    farther from its centroid, so the radius schedule trusts it last.
    Returns (labels, corpus, model, digits).
    """
    from sumlearn.dataset import build_corpus

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
        centroids=np.zeros((k, 2)),
        assignment=assignment.astype(np.int64),
        distance=distance,
    )
    store = store_with_labels(labels, dim=1)
    corpus = build_corpus(store, w, h, oversample_factor, seed=seed)
    return labels, corpus, model, digits.astype(np.int64)
