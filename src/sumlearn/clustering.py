"""k-means with k-means++ seeding, purity, and centroid-distance queries.

A Lloyd step holds its squared distances in (k, N) layout, one contiguous
row per centroid, and finds each point's nearest centroid by reductions
along the short axis: the min, then the first centroid that reaches it
(argmin's tie rule). For k >= 2 the product is a matrix product with the
same bits as the (N, k) one; for k = 1 it is a vector-matrix product, whose
distances can differ from the (N, 1) product in the last bits. Seeding keeps
the (N, 1) product for that reason. The step goes through the points in
column blocks of at most NEAREST_BLOCK, with the bits of one block over
all of them. Embeddings with a non-finite or overflowing squared norm are
refused.

`distance_percentiles` gives the quantile of one cluster's member distances
that the label inference step uses for its radius schedule.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, InputError
from .tensorfile import load_tensors, save_int64, save_tensors

# kmeans' restarts and each restart's stopping rule: at most MAX_ITER Lloyd
# iterations, ending early once no centroid moves by TOL or more. Read at
# call time; pipeline's cluster key hashes all three.
N_INIT = 10
MAX_ITER = 300
TOL = 1e-4

# most points per Lloyd distance block: k = 10 rows of 8,192 float64
# distances (640 KB) stay in L2 between the product and its reductions,
# where a (k, N) buffer over 60K points (4.8 MB) leaves it on every pass.
# The blocks change no bit of the model, so no stage key hashes it
NEAREST_BLOCK = 8192


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, d)
    assignment: np.ndarray  # (N,) int64, nearest centroid (ties -> lowest index)
    distance: np.ndarray  # (N,) Euclidean distance to own centroid
    inertia_history: list = field(default_factory=list)
    seed: int = 0

    def __len__(self):
        return self.assignment.shape[0]

    def save(self, path, meta=None):
        """The model as `path` plus its flat cluster_assignment.bin beside it."""
        m = dict(meta or {})
        m.update(k=self.k, seed=self.seed, inertia_history=self.inertia_history)
        save_tensors(
            path,
            {
                "centroids": self.centroids,
                "assignment": self.assignment,
                "distance": self.distance,
            },
            meta=m,
        )
        save_int64(path.with_name("cluster_assignment.bin"), self.assignment)

    @classmethod
    def load(cls, path):
        """The model `save` wrote. A file without one of its tensors or an
        int `k`, or whose tensors do not fit together, is refused with a
        ValueError naming what is wrong: centroids must be a 2-D matrix of
        k rows, assignment and distance 1-D of one length, and each
        assignment an integer in 0..k-1."""
        meta, tensors = load_tensors(path)
        for name in ("centroids", "assignment", "distance"):
            if name not in tensors:
                raise ValueError(f"{path}: no tensor {name!r}, so not a cluster model")
        k = meta.get("k")
        if type(k) is not int:
            raise ValueError(f"{path}: meta key 'k' is {k!r}, not an int, so not a cluster model")
        centroids, assignment, distance = tensors["centroids"], tensors["assignment"], tensors["distance"]
        if centroids.ndim != 2 or centroids.shape[0] != k:
            raise ValueError(f"{path}: tensor 'centroids' has shape {centroids.shape}, not k={k} rows")
        if assignment.ndim != 1 or distance.shape != assignment.shape:
            raise ValueError(
                f"{path}: tensors 'assignment' {assignment.shape} and 'distance' {distance.shape} "
                "are not 1-D of one length"
            )
        if assignment.dtype.kind not in "iu":
            raise ValueError(f"{path}: tensor 'assignment' holds {assignment.dtype}, not integers")
        bad = np.flatnonzero((assignment < 0) | (assignment >= k))
        if bad.size:
            raise ValueError(
                f"{path}: tensor 'assignment' puts image {bad[0]} in cluster {assignment[bad[0]]}, "
                f"outside 0..{k - 1}"
            )
        return cls(
            k=k,
            centroids=centroids,
            assignment=assignment,
            distance=distance,
            inertia_history=list(meta.get("inertia_history", [])),
            seed=meta.get("seed", 0),
        )


def _sq_dists(product, point_norms, centroid_norms):
    """Squared distances from the point-centroid dot products, in place.

    -2 x.c + ||x||^2 + ||c||^2, clipped against tiny negatives: the same
    bits as ||x||^2 - 2 x.c + ||c||^2, since scaling by 2 is exact. The
    caller picks the layout: the norms broadcast along `product`'s axes.
    """
    product *= -2.0
    product += point_norms
    product += centroid_norms
    return np.maximum(product, 0.0, out=product)


def _weighted_draw(weights, total, rng, cdf):
    """rng.choice(len(weights), p=weights / total): the same index, and the
    same generator state after it, without choice's checks of p and second
    sum of it. Like choice, it normalises the cdf of p by its last entry and
    searches it for one uniform draw. `cdf` is a scratch buffer."""
    np.cumsum(np.divide(weights, total, out=cdf), out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _plus_plus_init(points, norms, k, rng):
    # One centroid's distances stay an (N, 1) product: as (1, N) they are a
    # vector-matrix product whose last bits differ, and those bits set the
    # sampling probabilities.
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    closest = np.full(n, np.inf)
    col = np.empty((n, 1))
    cdf = np.empty(n)
    for i in range(k):
        total = closest.sum()
        if i == 0 or total <= 0:
            idx = int(rng.integers(n))  # the first seed, or all points coincide with one
        else:
            idx = _weighted_draw(closest, total, rng, cdf)
        centroids[i] = points[idx]
        c = centroids[i : i + 1]
        _sq_dists(np.matmul(points, c.T, out=col), norms[:, None], (c**2).sum(axis=1))
        np.minimum(closest, col.ravel(), out=closest)
    return centroids


def kmeans(emb, k, seed=0):
    """Best of N_INIT restarts of Lloyd iterations from k-means++ seeds.

    Restarts draw from one seeded generator, so the whole fit is
    deterministic in (emb, k, seed). The restart with the lowest final
    within-cluster sum of squares wins (ties keep the earliest). A k above
    the number of points is an InputError naming kmeans_k.
    """
    points = np.asarray(emb, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise InputError("kmeans_k", f"k={k} exceeds number of points {n}")

    # computed once for all restarts: point norms, one contiguous row per
    # dimension for the products and centroid sums, and the distance buffer.
    # Its width splits the points into the fewest blocks of at most
    # NEAREST_BLOCK, all that wide but the last, which is narrower by less
    # than the number of blocks: never a 1-column tail, whose product numpy
    # hands to gemv instead of gemm, with other bits. k = 1 keeps one block:
    # its (1, N) product is a gemv, whose bits depend on where blocks start
    with np.errstate(over="ignore"):
        norms = (points**2).sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(4.0 * norms))
    if bad.size:
        raise ValueError(
            f"embedding row {bad[0]} has squared norm {norms[bad[0]]}: k-means needs every "
            "4 * ||x||^2 finite"
        )
    columns = np.ascontiguousarray(points.T)
    blocks = 1 if k == 1 else -(-n // NEAREST_BLOCK)
    d2t = np.empty((k, -(-n // blocks)))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(N_INIT):
        model = _kmeans_single(points, norms, columns, d2t, k, rng)
        if best is None or model.inertia_history[-1] < best.inertia_history[-1]:
            best = model
    best.seed = seed
    return best


def _nearest(columns, norms, centroids, d2t):
    """Nearest centroid of every point, ties to the lowest index, and its
    squared distance.

    The points go through `d2t`, a (k, b) scratch buffer, in blocks of its
    b columns. Each block's (k, b) distances reduce along axis 0: the min,
    then the largest weight k - j among the centroids j that reach it,
    which names the first. For k >= 2 a block of two or more columns goes
    to the same gemm as the whole (k, N) product, each distance one dot
    product over the dimensions, so its bits do not depend on where blocks
    start.
    """
    k, block = d2t.shape
    n = columns.shape[1]
    centroid_norms = (centroids**2).sum(axis=1)[:, None]
    weights = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    assign = np.empty(n, dtype=np.int64)
    own = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = d2t[:, : stop - start]
        np.matmul(centroids, columns[:, start:stop], out=d2)
        _sq_dists(d2, norms[start:stop], centroid_norms)
        d2.min(axis=0, out=own[start:stop])
        first = ((d2 == own[start:stop]) * weights).max(axis=0)
        np.subtract(k, first, out=assign[start:stop], dtype=np.int64)
    return assign, own


def _kmeans_single(points, norms, columns, d2t, k, rng):
    """One k-means++ seeding plus at most MAX_ITER Lloyd iterations.

    Stops when the largest centroid shift drops below TOL. Empty clusters
    are reseeded to the point currently farthest from its own centroid.
    `columns` is points.T made contiguous and `d2t` _nearest's scratch buffer.
    """
    centroids = _plus_plus_init(points, norms, k, rng)
    inertia_history = []

    for _ in range(MAX_ITER):
        assign, own = _nearest(columns, norms, centroids, d2t)
        counts = np.bincount(assign, minlength=k)

        if not counts.all():
            _reseed_empty(points, centroids, assign, own, counts)
        inertia_history.append(float(own.sum()))

        # per-dimension sums accumulate in index order, as a member mean does
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        new_centroids = centroids.copy()
        np.divide(sums, counts[:, None], out=new_centroids, where=counts[:, None] > 0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < TOL:
            break

    # final assignment against the final centroids so the nearest-centroid
    # invariant holds exactly
    assign, own = _nearest(columns, norms, centroids, d2t)
    inertia_history.append(float(own.sum()))

    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=assign,
        distance=np.sqrt(own),
        inertia_history=inertia_history,
    )


def _reseed_empty(points, centroids, assign, own, counts):
    """Move the point farthest from its centroid into each empty cluster,
    in index order. A move can empty a later cluster, which is then
    reseeded too. Updates all arguments but `points` in place."""
    for c in range(len(counts)):
        if counts[c] == 0:
            far = int(own.argmax())
            counts[assign[far]] -= 1
            counts[c] += 1
            centroids[c] = points[far]
            assign[far] = c
            own[far] = 0.0


def purity(model, true_labels):
    """Average over clusters of the dominant class count, divided by N."""
    labels = np.asarray(true_labels)
    if labels.shape[0] != len(model):
        raise ConsistencyError(
            f"{labels.shape[0]} labels for {len(model)} clustered images"
        )
    total = 0
    for c in range(model.k):
        members = labels[model.assignment == c]
        if members.size:
            total += int(np.bincount(members).max())
    return total / labels.shape[0]


def distance_percentiles(distances, q):
    """q-quantile (linear interpolation) of one cluster's member distances
    to its centroid."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    if len(distances) == 0:
        raise ValueError("cluster is empty")
    return float(np.quantile(distances, q))
