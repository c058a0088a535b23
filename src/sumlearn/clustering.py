"""k-means with k-means++ seeding, purity, and centroid-distance queries.

The fitted model also answers the distance-quantile queries the label
inference step uses for its radius schedule.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .tensorfile import load_tensors, save_tensors


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

    def members(self, cluster):
        return np.flatnonzero(self.assignment == cluster)

    def save(self, path, meta=None):
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

    @classmethod
    def load(cls, path):
        meta, tensors = load_tensors(path)
        return cls(
            k=meta["k"],
            centroids=tensors["centroids"],
            assignment=tensors["assignment"],
            distance=tensors["distance"],
            inertia_history=list(meta.get("inertia_history", [])),
            seed=meta.get("seed", 0),
        )


def _sq_dists(points, norms, centroids, out):
    """Squared distances to `centroids`, written into `out` (N, k).

    -2 x.c + ||x||^2 + ||c||^2, clipped against tiny negatives: the same
    bits as ||x||^2 - 2 x.c + ||c||^2, since scaling by 2 is exact.
    `norms` holds ||x||^2 per point.
    """
    np.matmul(points, centroids.T, out=out)
    out *= -2.0
    out += norms[:, None]
    out += (centroids**2).sum(axis=1)
    return np.maximum(out, 0.0, out=out)


def _plus_plus_init(points, norms, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest = _sq_dists(points, norms, centroids[:1], np.empty((n, 1))).ravel()
    col = np.empty((n, 1))
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[i] = points[idx]
        _sq_dists(points, norms, centroids[i : i + 1], col)
        np.minimum(closest, col.ravel(), out=closest)
    return centroids


def kmeans(emb, k, seed=0, max_iter=300, tol=1e-4, n_init=10):
    """Best of n_init restarts of Lloyd iterations from k-means++ seeds.

    Restarts draw from one seeded generator, so the whole fit is
    deterministic in (emb, k, seed). The restart with the lowest final
    within-cluster sum of squares wins (ties keep the earliest).
    """
    points = np.asarray(emb, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")

    # computed once for all restarts: point norms, one contiguous row per
    # dimension for the centroid sums, and the distance buffer
    norms = (points**2).sum(axis=1)
    columns = np.ascontiguousarray(points.T)
    d2 = np.empty((n, k))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        model = _kmeans_single(points, norms, columns, d2, k, rng, max_iter, tol)
        if best is None or model.inertia_history[-1] < best.inertia_history[-1]:
            best = model
    best.seed = seed
    return best


def _kmeans_single(points, norms, columns, d2, k, rng, max_iter, tol):
    """One k-means++ seeding plus Lloyd run.

    Stops when the largest centroid shift drops below tol. Empty clusters
    are reseeded to the point currently farthest from its own centroid.
    `columns` is points.T made contiguous and `d2` an (N, k) scratch buffer.
    """
    n = points.shape[0]
    rows = np.arange(n)
    centroids = _plus_plus_init(points, norms, k, rng)
    inertia_history = []

    for _ in range(max_iter):
        _sq_dists(points, norms, centroids, d2)
        assign = d2.argmin(axis=1)
        own = d2[rows, assign]
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
        if shift < tol:
            break

    # final assignment against the final centroids so the nearest-centroid
    # invariant holds exactly
    _sq_dists(points, norms, centroids, d2)
    assign = d2.argmin(axis=1).astype(np.int64)
    own = d2[rows, assign]
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


def distance_percentiles(model, cluster, q):
    """q-quantile (linear interpolation) of member distances to centroid."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    members = model.members(cluster)
    if members.size == 0:
        raise ValueError(f"cluster {cluster} is empty")
    return float(np.quantile(model.distance[members], q))

