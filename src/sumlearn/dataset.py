"""MNIST ingestion and sum-supervised corpus construction.

A corpus example is an h x w grid of image ids plus the integer sum of the
h row-numbers the grid spells out (each row read as a w-digit number). All
examples of a corpus share one grid shape, so a Corpus is two arrays, the
(n, h, w) grids and the (n,) sums, and `grid_cells` and `grid_sums` hold
the positional arithmetic every consumer reads them with. Only the sums
are supervision; per-image ground truth stays behind
ImageStore.evaluation_labels() and is never touched by the training path.
"""

import gzip
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, IdxFormatError, InputError, InsufficientDataError
from .tensorfile import atomic_write, load_tensors, save_tensors

IMAGE_MAGIC = 2051  # 0x00000803
LABEL_MAGIC = 2049  # 0x00000801


class ImageStore:
    """Flattened grayscale images plus held-out ground-truth labels.

    The labels ride along for evaluation and for *generating* the sum
    supervision, but training code must obtain them only through
    evaluation_labels(); an audit test enforces that no training-stage
    function references the accessor.

    `images` holds the pixels as loaded: uint8 stays uint8 (an IDX file's
    bytes, an eighth the size of their float64 decode), anything else
    becomes float64. Readers pass a block or batch of them at a time
    through `decode` and never hold a float64 copy of a uint8 store.
    `images` is a read-only view: a sweep shares one store between its
    points, so a stage that wrote into the pixels would corrupt the next
    point. The caller's own array keeps its flags.
    """

    def __init__(self, images, true_labels):
        images = np.asarray(images)
        if images.dtype != np.uint8:
            images = images.astype(np.float64, copy=False)
        true_labels = np.array(true_labels, dtype=np.int64)  # own copy; frozen below
        if images.ndim != 2:
            raise ValueError(f"images must be 2-d (N, D), got shape {images.shape}")
        if images.shape[0] != true_labels.shape[0]:
            raise ConsistencyError(
                f"{images.shape[0]} images but {true_labels.shape[0]} labels"
            )
        self.images = images.view()
        self.images.setflags(write=False)
        self._true_labels = true_labels
        self._true_labels.setflags(write=False)

    def __len__(self):
        return self.images.shape[0]

    @property
    def dim(self):
        return self.images.shape[1]

    def evaluation_labels(self):
        """Ground-truth digits. Evaluation/data-generation use only."""
        return self._true_labels

    def subset(self, indices):
        return ImageStore(self.images[indices], self._true_labels[indices])


def decode(pixels):
    """`pixels` (rows of a store's `images`) as float64 intensities: uint8
    pixels are divided by 255, float64 ones by 1, which is exact."""
    return np.divide(pixels, 255.0 if pixels.dtype == np.uint8 else 1.0, dtype=np.float64)


def _open_maybe_gz(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, size, path, what):
    """`size` bytes of `f`. Fewer, or a gzip stream cut short, raise an
    IdxFormatError saying `what` is truncated."""
    try:
        data = f.read(size)
    except EOFError:  # gzip raises this where a plain file returns short
        data = b""
    if len(data) != size:
        raise IdxFormatError(f"truncated {what} in {path}")
    return data


def _read_be32(f, path):
    return struct.unpack(">I", _read_exact(f, 4, path, "IDX header"))[0]


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair into an ImageStore.

    The store keeps the file's uint8 pixels, which `decode` maps to [0,1];
    images are flattened row-major. Accepts plain or gzip-compressed files.
    """
    with _open_maybe_gz(labels_path) as f:
        magic = _read_be32(f, labels_path)
        if magic != LABEL_MAGIC:
            raise IdxFormatError(f"bad label magic {magic} in {labels_path}")
        n_labels = _read_be32(f, labels_path)
        labels = np.frombuffer(_read_exact(f, n_labels, labels_path, "label data"), dtype=np.uint8)

    with _open_maybe_gz(images_path) as f:
        magic = _read_be32(f, images_path)
        if magic != IMAGE_MAGIC:
            raise IdxFormatError(f"bad image magic {magic} in {images_path}")
        n_images = _read_be32(f, images_path)
        rows = _read_be32(f, images_path)
        cols = _read_be32(f, images_path)
        raw = np.frombuffer(_read_exact(f, n_images * rows * cols, images_path, "image data"), dtype=np.uint8)

    if n_images != n_labels:
        raise ConsistencyError(f"{n_images} images but {n_labels} labels")
    return ImageStore(raw.reshape(n_images, rows * cols), labels.astype(np.int64))


@dataclass
class Corpus:
    """Examples of one grid shape as two arrays: `grids` (n, h, w) int64
    image ids and `sums` (n,) int64, the sum each grid spells out."""

    grids: np.ndarray
    sums: np.ndarray

    def __len__(self):
        return self.grids.shape[0]

    @property
    def h(self):
        return self.grids.shape[1]

    @property
    def w(self):
        return self.grids.shape[2]

    @property
    def examples(self):
        """(grid, sum) named tuples, built on each access, for callers
        outside the package; the package reads the arrays."""
        return [GridSum(grid, int(s)) for grid, s in zip(self.grids, self.sums)]


GridSum = namedtuple("GridSum", "grid sum")


def place_value(w, column):
    """Weight 10^(w-1-column) of the digit in 0-based `column` of a w-digit
    number. Elementwise over integer arrays; exact wherever
    check_grid_shape accepts w."""
    return 10 ** (w - 1 - column)


def grid_cells(corpus):
    """Every cell of the corpus's grids as flat arrays (example index,
    image id, positional weight), row-major within each grid."""
    n, h, w = corpus.grids.shape
    rows = np.repeat(np.arange(n), h * w)
    return rows, corpus.grids.reshape(-1), np.tile(place_value(w, np.arange(w)), n * h)


def check_image_ids(rows, ids, n_images):
    """Refuse grid_cells ids outside 0..n_images-1 (images the cluster model
    does not have), naming the first example that holds one."""
    bad = (ids < 0) | (ids >= n_images)
    if bad.any():
        raise ConsistencyError(f"example {rows[bad.argmax()]} references unclustered image ids")


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def check_grid_shape(w, h):
    """Refuse, with an InputError naming w or h, grid shapes that are not
    positive or whose sums int64 cannot hold exactly.

    The largest sum an h x w grid spells out is h * (10^w - 1), every digit
    a 9; it is computed in Python ints, so it cannot wrap itself.
    """
    w, h = int(w), int(h)
    if w < 1 or h < 1:
        raise InputError("w" if w < 1 else "h", f"grid shape must be positive, got w={w}, h={h}")
    if h * (10**w - 1) > _INT64_MAX:
        raise InputError("w", f"w={w}, h={h}: sums up to {h * (10**w - 1)} overflow int64")


def grid_sums(grids, labels_per_image):
    """Sums spelled out by (n, h, w) grids under per-image digit labels."""
    grids = np.asarray(grids)
    _, h, w = grids.shape
    check_grid_shape(w, h)
    digits = np.asarray(labels_per_image, dtype=np.int64)[grids]
    return (digits * place_value(w, np.arange(w))).sum(axis=(1, 2))


def build_corpus(store, w, h, oversample_factor=1, seed=0):
    """Shuffle image ids, partition into h x w grids, compute exact sums.

    With oversample_factor f > 1, f independent shuffles are concatenated
    before partitioning so every image appears f times across the corpus.
    Leftover ids (count mod w*h) are discarded.
    """
    check_grid_shape(w, h)
    n = len(store)
    cell = w * h
    if cell > n:
        raise InsufficientDataError(f"grid needs {cell} images, store has {n}")

    rng = np.random.default_rng(seed)
    perm = np.concatenate([rng.permutation(n) for _ in range(oversample_factor)])
    n_examples = perm.shape[0] // cell
    grids = perm[: n_examples * cell].reshape(n_examples, h, w).astype(np.int64)
    return Corpus(grids, grid_sums(grids, store.evaluation_labels()))


def generate_synthetic(n_images, n_clusters, separation, dim, seed=0):
    """Isotropic-Gaussian stand-in data for oracle testing.

    Centroids are scaled so the minimum pairwise distance equals
    `separation`; unit noise around them. The true label of a point is the
    index of its generating Gaussian, so n_clusters=3 restricts labels to
    {0,1,2}. Returns the store.
    """
    if n_clusters > 10:
        raise ValueError(f"n_clusters must be <= 10, got {n_clusters}")
    if separation <= 0:
        raise ValueError(f"separation must be positive, got {separation}")

    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(n_clusters, dim))
    if n_clusters > 1:
        diff = centroids[:, None, :] - centroids[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        min_dist = dist[~np.eye(n_clusters, dtype=bool)].min()
        centroids *= separation / min_dist

    labels = np.tile(np.arange(n_clusters), n_images // n_clusters + 1)[:n_images]
    labels = labels[rng.permutation(n_images)]
    points = centroids[labels] + rng.standard_normal((n_images, dim))
    return ImageStore(points, labels)


def normalize_unit(store):
    """Min-max rescale all intensities into [0,1] (single global affine map,
    so cluster geometry is preserved). Used to make synthetic Gaussian
    stores pixel-like before the CNN."""
    images = decode(store.images)
    lo, hi = images.min(), images.max()
    if hi <= lo:
        return store
    images -= lo
    images /= hi - lo
    return ImageStore(images, store.evaluation_labels())


def save_corpus(corpus, path):
    """Line-delimited records: `w h s id_11 ... id_hw` (row-major ids)."""
    n, cells = len(corpus), corpus.h * corpus.w
    table = np.empty((n, 1 + cells), dtype=np.int64)  # sum, then the ids
    table[:, 0] = corpus.sums
    table[:, 1:] = corpus.grids.reshape(n, cells)
    # a grid with no cells keeps the space that would precede its first id
    line = f"{corpus.w} {corpus.h} %d" + " %d" * cells + ("" if cells else " ") + "\n"
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write((line * n) % tuple(table.ravel().tolist()))


def load_corpus(path):
    """Read save_corpus's records. The file comes from outside, so a bad line
    is named in a ConsistencyError: fewer than 3 fields, a field that is not
    an integer, a sum or id outside int64, an id count that does not match
    its `w h`, a shape that differs from the first line's or that
    check_grid_shape refuses. An empty file is an empty 1 x 1 corpus."""
    shape, sums, ids = None, [], []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) < 3:
                    raise ValueError(f"expected w, h and a sum, got {len(parts)} fields")
                w, h, total, *cells = map(int, parts)
                if shape is None:
                    check_grid_shape(w, h)
                    shape = (w, h)
                if (w, h) != shape:
                    raise ValueError(f"grid shape w={w}, h={h} differs from the first "
                                     f"line's w={shape[0]}, h={shape[1]}")
                if len(cells) != w * h:
                    raise ValueError(f"expected {w * h} ids, got {len(cells)}")
                if min(total, *cells) < _INT64_MIN or max(total, *cells) > _INT64_MAX:
                    raise ValueError("sum or id outside int64")
            except ValueError as exc:
                raise ConsistencyError(f"line {lineno}: {exc}") from None
            sums.append(total)
            ids.extend(cells)
    w, h = shape or (1, 1)
    return Corpus(
        np.array(ids, dtype=np.int64).reshape(-1, h, w), np.array(sums, dtype=np.int64)
    )


def save_store(store, path):
    save_tensors(path, {"images": store.images, "true_labels": store.evaluation_labels()})


def load_store(path):
    """save_store's store; the "split" meta field of older files is ignored.
    A tensor file without `images` or `true_labels` is refused with a
    ValueError naming the missing tensor."""
    _, tensors = load_tensors(path)
    for name in ("images", "true_labels"):
        if name not in tensors:
            raise ValueError(f"{path}: no tensor {name!r}, so not a store")
    return ImageStore(tensors["images"], tensors["true_labels"])
