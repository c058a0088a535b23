import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlearn import clustering as clu
from sumlearn.clustering import (
    ClusterModel,
    distance_percentiles,
    kmeans,
    purity,
)
from sumlearn.dataset import generate_synthetic
from sumlearn.errors import ConsistencyError
from sumlearn.tensorfile import load_int64, load_tensors, save_int64, save_tensors

from conftest import identity_model


class TestKmeans:
    def test_k_equals_n_exact_fit(self, rng):
        points = rng.random((6, 3))
        model = kmeans(points, k=6, seed=0)
        assert model.inertia_history[-1] == pytest.approx(0.0, abs=1e-12)
        assert sorted(model.assignment) == list(range(6))

    def test_separated_gaussians_purity_one(self):
        store = generate_synthetic(400, 4, separation=80, dim=6, seed=1)
        model = kmeans(store.images, k=4, seed=1)
        assert purity(model, store.evaluation_labels()) == 1.0

    def test_assignment_optimality(self, rng):
        points = rng.random((120, 4))
        model = kmeans(points, k=7, seed=2)
        d2 = ((points[:, None, :] - model.centroids[None]) ** 2).sum(-1)
        assert np.array_equal(model.assignment, d2.argmin(1))
        assert np.allclose(model.distance, np.sqrt(d2.min(1)))

    def test_lloyd_monotone(self, rng, monkeypatch):
        monkeypatch.setattr(clu, "TOL", 0.0)
        monkeypatch.setattr(clu, "MAX_ITER", 40)
        points = rng.random((200, 5))
        model = kmeans(points, k=6, seed=3)
        hist = np.array(model.inertia_history)
        assert (np.diff(hist) <= 1e-9).all()

    def test_seed_determinism(self, rng):
        points = rng.random((80, 3))
        a = kmeans(points, k=5, seed=9)
        b = kmeans(points, k=5, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_larger_than_n(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.random((3, 2)), k=4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, rng, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kmeans(rng.random((3, 2)), k=k)

    def test_no_empty_clusters(self, rng):
        points = rng.random((40, 2))
        model = kmeans(points, k=8, seed=0)
        assert set(model.assignment) == set(range(8))

    def test_degenerate_duplicates_stay_valid(self):
        # fewer distinct points than k: model stays well formed even if a
        # cluster ends empty after the tie-broken final assignment
        points = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 2)
        model = kmeans(points, k=3, seed=0)
        assert model.assignment.min() >= 0 and model.assignment.max() < 3
        assert np.allclose(model.distance, 0.0)


# Reference k-means: norms recomputed per call, a fresh distance array per
# step, per-cluster member means. kmeans must give the same bits.
def _ref_sq_dists(points, centroids):
    # ||x||^2 - 2 x.c + ||c||^2, clipped against tiny negatives
    d2 = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids**2).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _ref_plus_plus_init(points, k, rng):
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest = _ref_sq_dists(points, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[i] = points[idx]
        closest = np.minimum(closest, _ref_sq_dists(points, centroids[i : i + 1]).ravel())
    return centroids


def _ref_reseed_empty(points, centroids, assign, own, k):
    for c in range(k):
        if not (assign == c).any():
            far = int(own.argmax())
            centroids[c] = points[far]
            assign[far] = c
            own[far] = 0.0


def _ref_kmeans_single(points, k, rng, max_iter, tol):
    n = points.shape[0]
    centroids = _ref_plus_plus_init(points, k, rng)
    inertia_history = []
    assign = None

    for _ in range(max_iter):
        d2 = _ref_sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
        own = d2[np.arange(n), assign]
        _ref_reseed_empty(points, centroids, assign, own, k)
        inertia_history.append(float(own.sum()))

        new_centroids = centroids.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centroids[c] = points[members].mean(axis=0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break

    d2 = _ref_sq_dists(points, centroids)
    assign = d2.argmin(axis=1).astype(np.int64)
    distance = np.sqrt(d2[np.arange(n), assign])
    inertia_history.append(float(d2[np.arange(n), assign].sum()))
    return ClusterModel(
        k=k, centroids=centroids, assignment=assign, distance=distance,
        inertia_history=inertia_history,
    )


def set_constants(monkeypatch, kw):
    """Sets the clustering constant each of a case's `kw` names (tol: TOL)
    for the test, as the references take them as arguments."""
    for name, value in kw.items():
        monkeypatch.setattr(clu, name.upper(), value)


def _ref_kmeans(points, k, seed=0, max_iter=300, tol=1e-4, n_init=10):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        model = _ref_kmeans_single(points, k, rng, max_iter, tol)
        if best is None or model.inertia_history[-1] < best.inertia_history[-1]:
            best = model
    best.seed = seed
    return best


def _planted(seed, n=3000, k=10, dim=10):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, dim)) * 3.0
    return centers[rng.integers(k, size=n)] + rng.normal(size=(n, dim))


def _assert_bitwise_equal(a, b):
    for name in ("centroids", "assignment", "distance"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name
    assert a.inertia_history == b.inertia_history
    assert (a.k, a.seed) == (b.k, b.seed)


class TestKmeansMatchesReference:
    """Bitwise the same model as the reference on >= 2-d points (a 1-d
    member mean sums pairwise, bincount in index order)."""

    CASES = [
        ("planted-1", lambda: _planted(1), 10, 1, {}),
        # at this size a matrix product over the points no longer sums in
        # index order, so a centroid sum taken any other way shows
        ("planted-2-12k", lambda: _planted(2, n=12000), 10, 2, {}),
        ("planted-3-12k-tol0", lambda: _planted(3, n=12000), 10, 3, dict(tol=0.0, max_iter=30)),
        ("k-equals-n", lambda: np.random.default_rng(0).random((6, 3)), 6, 0, {}),
        ("random-120", lambda: np.random.default_rng(0).random((120, 4)), 7, 2, {}),
        ("random-200-tol0", lambda: np.random.default_rng(0).random((200, 5)), 6, 3,
         dict(tol=0.0, max_iter=40)),
        ("random-80", lambda: np.random.default_rng(0).random((80, 3)), 5, 9, {}),
        ("random-40", lambda: np.random.default_rng(0).random((40, 2)), 8, 0, {}),
        ("duplicates", lambda: np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 2), 3, 0, {}),
    ]

    @pytest.mark.parametrize("name,points,k,seed,kw", CASES, ids=[c[0] for c in CASES])
    def test_bitwise_equal(self, monkeypatch, name, points, k, seed, kw):
        points = points()
        set_constants(monkeypatch, kw)
        _assert_bitwise_equal(kmeans(points, k=k, seed=seed), _ref_kmeans(points, k, seed, **kw))

    def test_empty_cluster_reseed_runs(self, monkeypatch):
        calls = []
        original = clu._reseed_empty

        def counting(*args):
            calls.append(args[-1].copy())
            return original(*args)

        monkeypatch.setattr(clu, "_reseed_empty", counting)
        points = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 2)
        _assert_bitwise_equal(kmeans(points, k=3, seed=0), _ref_kmeans(points, 3, seed=0))
        assert calls and all((c == 0).any() for c in calls)

    def test_reseed_chain_matches_reference(self):
        # cluster 1 is empty; the farthest point is cluster 2's only member,
        # so moving it empties cluster 2, which is reseeded in turn
        points = np.array([[0.0, 0.0]] * 5 + [[10.0, 0.0]])
        assign = np.array([0, 0, 0, 0, 0, 2])
        own = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 9.0])
        centroids = np.array([[0.0, 0.0], [0.0, 0.0], [13.0, 0.0]])
        ref = [a.copy() for a in (centroids, assign, own)]
        _ref_reseed_empty(points, *ref, k=3)
        counts = np.bincount(assign, minlength=3)
        clu._reseed_empty(points, centroids, assign, own, counts)
        for got, want in zip((centroids, assign, own), ref):
            assert np.array_equal(got, want)
        assert np.array_equal(counts, np.bincount(assign, minlength=3))
        assert assign.tolist() == [2, 0, 0, 0, 0, 1]


# The Lloyd loop in its former (N, k) layout: a tall distance matrix, argmin
# along rows and a gather for each point's own distance. kmeans now works
# in (k, N) and must give the same bits for every k >= 2.
def _nk_sq_dists(points, norms, centroids, out):
    np.matmul(points, centroids.T, out=out)
    out *= -2.0
    out += norms[:, None]
    out += (centroids**2).sum(axis=1)
    return np.maximum(out, 0.0, out=out)


def _nk_kmeans(points, k, seed=0, max_iter=300, tol=1e-4, n_init=10):
    n = points.shape[0]
    rows = np.arange(n)
    norms = (points**2).sum(axis=1)
    columns = np.ascontiguousarray(points.T)
    d2 = np.empty((n, k))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centroids = _ref_plus_plus_init(points, k, rng)
        inertia_history = []
        for _ in range(max_iter):
            _nk_sq_dists(points, norms, centroids, d2)
            assign = d2.argmin(axis=1)
            own = d2[rows, assign]
            _ref_reseed_empty(points, centroids, assign, own, k)
            counts = np.bincount(assign, minlength=k)
            inertia_history.append(float(own.sum()))
            sums = np.stack([np.bincount(assign, weights=c, minlength=k) for c in columns], axis=1)
            new_centroids = centroids.copy()
            np.divide(sums, counts[:, None], out=new_centroids, where=counts[:, None] > 0)
            shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
            centroids = new_centroids
            if shift < tol:
                break
        _nk_sq_dists(points, norms, centroids, d2)
        assign = d2.argmin(axis=1).astype(np.int64)
        own = d2[rows, assign]
        inertia_history.append(float(own.sum()))
        model = ClusterModel(
            k=k, centroids=centroids, assignment=assign, distance=np.sqrt(own),
            inertia_history=inertia_history,
        )
        if best is None or model.inertia_history[-1] < best.inertia_history[-1]:
            best = model
    best.seed = seed
    return best


def _grid_points(seed, n, dim, levels):
    """Points on a small integer grid: many duplicates and exact distance ties."""
    return np.random.default_rng(seed).integers(0, levels, size=(n, dim)).astype(np.float64)


class TestKmeansMatchesNkLayout:
    CASES = [
        ("planted-1", lambda: _planted(1), 10, 1, {}),
        ("planted-4-1d", lambda: _planted(4, n=2000, k=4, dim=1), 4, 4, {}),
        ("random-300-k2", lambda: np.random.default_rng(5).normal(size=(300, 3)), 2, 5, {}),
        ("grid-ties", lambda: _grid_points(6, 400, 2, 3), 5, 6, {}),
        ("grid-ties-1d", lambda: _grid_points(7, 300, 1, 4), 3, 7, dict(tol=0.0, max_iter=20)),
        ("duplicates-reseed", lambda: np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 2), 3, 0, {}),
        # more clusters than distinct points: chained empty-cluster reseeds,
        # and k > 255, where the tie weights need a wider dtype than uint8
        ("k300-grid", lambda: _grid_points(8, 600, 2, 4), 300, 8, dict(n_init=2)),
        ("k300-random", lambda: np.random.default_rng(9).random((600, 3)), 300, 9, dict(n_init=2)),
    ]

    @pytest.mark.parametrize("name,points,k,seed,kw", CASES, ids=[c[0] for c in CASES])
    def test_bitwise_equal(self, monkeypatch, name, points, k, seed, kw):
        points = points()
        set_constants(monkeypatch, kw)
        _assert_bitwise_equal(kmeans(points, k=k, seed=seed), _nk_kmeans(points, k, seed, **kw))

    @pytest.mark.parametrize("seed", range(4))
    def test_single_cluster_within_rounding(self, seed):
        # k = 1 makes the (1, N) product a vector-matrix product, which may
        # round differently in the last bits
        points = np.random.default_rng(seed).normal(size=(500, 1 + seed)) * 10.0**seed
        got, want = kmeans(points, k=1, seed=seed), _nk_kmeans(points, 1, seed)
        assert got.assignment.dtype == want.assignment.dtype == np.int64
        assert np.array_equal(got.assignment, want.assignment)
        assert np.abs(got.distance - want.distance).max() <= 1e-12 * want.distance.max()

    @pytest.mark.parametrize("k,levels", [(3, 2), (12, 3), (300, 3)])
    def test_nearest_ties_to_lowest_index(self, k, levels):
        # integer points and centroids tie exactly and often
        points = _grid_points(k, 500, 2, levels)
        centroids = _grid_points(k + 1, k, 2, levels)
        norms = (points**2).sum(axis=1)
        assign, own = clu._nearest(
            np.ascontiguousarray(points.T), norms, centroids, np.empty((k, len(points)))
        )
        d2 = _nk_sq_dists(points, norms, centroids, np.empty((len(points), k)))
        assert assign.dtype == np.int64
        assert np.array_equal(assign, d2.argmin(axis=1))
        assert own.tobytes() == d2.min(axis=1).tobytes()


class TestNearestBlocks:
    """k-means in NEAREST_BLOCK column blocks against one block over all
    points: the same model, bit for bit, at the sizes where a block
    boundary or a short tail appears."""

    B = clu.NEAREST_BLOCK

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3])
    def test_bitwise_equal_to_one_block(self, monkeypatch, n, k):
        points = _planted(n, n=n)
        monkeypatch.setattr(clu, "N_INIT", 2)
        widths = []
        nearest = clu._nearest

        def spy(columns, norms, centroids, d2t):
            widths.append(d2t.shape)
            return nearest(columns, norms, centroids, d2t)

        monkeypatch.setattr(clu, "_nearest", spy)
        got = kmeans(points, k=k, seed=n)
        # one buffer: for k = 1 one block over all points; for k >= 2 at
        # most NEAREST_BLOCK columns, and a last block of more than one
        (shape,) = set(widths)
        last = (n - 1) % shape[1] + 1
        assert shape == (1, n) if k == 1 else shape[0] == k and shape[1] <= self.B and last > 1
        monkeypatch.setattr(clu, "NEAREST_BLOCK", n)
        _assert_bitwise_equal(got, kmeans(points, k=k, seed=n))


class TestWeightedDraw:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_generator_choice(self, seed):
        # squared distances: many exact zeros (points on a centroid), a
        # spread of magnitudes, zeros at either end of the vector
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2_000))
        weights = rng.random(n) ** 4 * 10.0 ** rng.integers(-6, 6, n)
        weights[rng.random(n) < 0.4] = 0.0
        weights[: seed % 3] = 0.0
        weights[int(rng.integers(n))] = 1.0 + seed  # at least one positive weight
        total = weights.sum()
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(25):
            got = clu._weighted_draw(weights, total, ours, np.empty(n))
            assert got == int(numpy.choice(n, p=weights / total))
            assert weights[got] > 0
        assert ours.random() == numpy.random()


class TestKmeansRefusesNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_names_the_first_bad_row(self, rng, bad):
        points = rng.random((20, 3))
        points[7, 1] = bad
        points[12, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a RuntimeWarning first
            with pytest.raises(ValueError, match="embedding row 7 "):
                kmeans(points, k=3)

    def test_four_times_the_squared_norm_must_be_finite(self):
        big = np.sqrt(np.finfo(np.float64).max)
        points = np.zeros((4, 1))
        points[2] = big / 1.9  # ||x||^2 finite, 4 ||x||^2 not
        with pytest.raises(ValueError, match="embedding row 2 "):
            kmeans(points, k=2)
        points[2] = big / 2.1  # inside the envelope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = kmeans(points, k=2, seed=0)
        assert np.isfinite(model.distance).all()
        assert model.assignment.tolist() in ([0, 0, 1, 0], [1, 1, 0, 1])


class TestPurity:
    def test_perfect(self):
        model = identity_model([0, 1, 2, 1, 0])
        assert purity(model, [0, 1, 2, 1, 0]) == 1.0

    def test_single_cluster_balanced(self):
        labels = np.repeat(np.arange(10), 5)
        model = identity_model(np.zeros(50, dtype=int), k=1)
        assert purity(model, labels) == pytest.approx(0.1)

    def test_length_mismatch(self):
        model = identity_model([0, 1])
        with pytest.raises(ConsistencyError):
            purity(model, [0, 1, 2])

    @given(st.lists(st.integers(0, 9), min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_dominant_class(self, labels):
        labels = np.array(labels)
        model = identity_model(labels % 3, k=3)
        p = purity(model, labels)
        assert 0.0 < p <= 1.0
        # purity upper-bounds any per-cluster relabeling accuracy
        best = max(np.bincount(labels).max() / labels.size, 1 / labels.size)
        assert p >= best - 1e-12 or p >= 1 / labels.size


class TestDistancePercentiles:
    def test_endpoint_is_max(self):
        assert distance_percentiles(np.array([1.0, 5.0, 3.0]), 1.0) == 5.0

    def test_constant_distances(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            assert distance_percentiles(np.full(4, 2.0), q) == 2.0

    def test_median_interpolation(self):
        assert distance_percentiles(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0

    def test_empty_cluster(self):
        with pytest.raises(ValueError):
            distance_percentiles(np.zeros(0), 0.5)


class TestPersistence:
    def test_model_roundtrip(self, tmp_path, rng):
        model = kmeans(rng.random((30, 4)), k=3, seed=0)
        path = tmp_path / "cluster.tf"
        model.save(path, meta={"config_key": "abc"})
        loaded = ClusterModel.load(path)
        assert loaded.k == 3
        assert np.array_equal(loaded.assignment, model.assignment)
        assert np.array_equal(loaded.centroids, model.centroids)
        assert np.array_equal(loaded.distance, model.distance)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta, t: t["assignment"].__setitem__(0, 7), "puts image 0 in cluster 7, outside 0..2"),
            (lambda meta, t: t["assignment"].__setitem__(5, -1), "puts image 5 in cluster -1, outside 0..2"),
            (lambda meta, t: t.update(assignment=t["assignment"].astype(np.float64)),
             "tensor 'assignment' holds float64, not integers"),
            (lambda meta, t: t.update(distance=t["distance"][:-1]),
             "tensors 'assignment' (30,) and 'distance' (29,) are not 1-D of one length"),
            (lambda meta, t: t.update(assignment=t["assignment"].reshape(5, 6), distance=t["distance"].reshape(5, 6)),
             "tensors 'assignment' (5, 6) and 'distance' (5, 6) are not 1-D of one length"),
            (lambda meta, t: t.update(centroids=t["centroids"][:2]), "tensor 'centroids' has shape (2, 4), not k=3 rows"),
            (lambda meta, t: t.update(centroids=t["centroids"].ravel()), "tensor 'centroids' has shape (12,), not k=3 rows"),
            (lambda meta, t: meta.update(k="3"), "meta key 'k' is '3', not an int"),
            (lambda meta, t: meta.pop("k"), "meta key 'k' is None, not an int"),
        ],
        ids=["assignment-above-k", "assignment-negative", "assignment-float", "distance-short", "assignment-2d",
             "centroids-rows", "centroids-1d", "k-str", "k-missing"],
    )
    def test_model_whose_tensors_do_not_fit_refused(self, tmp_path, rng, edit, message):
        path = tmp_path / "cluster.tf"
        kmeans(rng.random((30, 4)), k=3, seed=0).save(path)
        meta, tensors = load_tensors(path)
        edit(meta, tensors)
        save_tensors(path, tensors, meta=meta)
        with pytest.raises(ValueError, match=re.escape(message)):
            ClusterModel.load(path)

    def test_assignment_flat_file(self, tmp_path):
        path = tmp_path / "assign.bin"
        save_int64(path, [3, 1, 4, 1, 5])
        assert np.array_equal(load_int64(path), [3, 1, 4, 1, 5])
        assert path.read_bytes() == np.array([3, 1, 4, 1, 5], dtype="<i8").tobytes()

    def test_flat_file_with_partial_value_refused(self, tmp_path):
        path = tmp_path / "assign.bin"
        path.write_bytes(np.array([3, 1], dtype="<i8").tobytes()[:13])
        with pytest.raises(ValueError, match="13 bytes is not a whole number"):
            load_int64(path)
