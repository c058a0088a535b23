import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlearn.dataset import (
    Corpus,
    ImageStore,
    build_corpus,
    decode,
    generate_synthetic,
    grid_sums,
    load_corpus,
    load_idx,
    load_store,
    normalize_unit,
    save_corpus,
    save_store,
)
from sumlearn.errors import ConsistencyError, IdxFormatError, InsufficientDataError
from sumlearn.tensorfile import save_tensors

from conftest import store_with_labels, write_idx_pair


class TestLoadIdx:
    def test_roundtrip_and_scaling(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        store = load_idx(img, lbl)
        assert store.images.shape == (7, 20)
        assert np.allclose(decode(store.images), images.reshape(7, 20) / 255.0)
        assert np.array_equal(store.evaluation_labels(), labels)

    def test_pixel_255_maps_to_one(self, tmp_path):
        images = np.full((1, 2, 2), 255, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [3])
        store = load_idx(img, lbl)
        assert decode(store.images).max() == 1.0

    def test_gzip_transparent(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2], gz=True)
        store = load_idx(img, lbl)
        assert len(store) == 3

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0], image_magic=123)
        with pytest.raises(IdxFormatError):
            load_idx(img, lbl)
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0], label_magic=99)
        with pytest.raises(IdxFormatError):
            load_idx(img, lbl)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(IdxFormatError):
            load_idx(empty, empty)

    def test_count_mismatch(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, images, [0, 0, 0, 0])
        other = tmp_path / "other"
        other.mkdir()
        _, lbl = write_idx_pair(other, images[:2], [0, 0])
        with pytest.raises(ConsistencyError):
            load_idx(img, lbl)

    def test_truncated_data(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2, 3])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(IdxFormatError):
            load_idx(img, lbl)

    @pytest.mark.parametrize("what", ["image data", "IDX header"])
    def test_truncated_gzip_stream(self, tmp_path, rng, what):
        # gzip raises EOFError where a plain file reads short
        images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2, 3])
        raw = img.read_bytes()
        img.write_bytes(gzip.compress(raw[:-3] if what == "image data" else raw[:10])[:-8])  # no trailer
        with pytest.raises(IdxFormatError, match=f"truncated {what} in"):
            load_idx(img, lbl)


class TestBuildCorpus:
    def test_positional_sum(self):
        store = store_with_labels([1, 2, 3, 4])
        corpus = build_corpus(store, w=2, h=2, seed=0)
        grid = corpus.grids[0]
        # sum must equal the two grid rows read as 2-digit numbers
        expected = sum(
            store.evaluation_labels()[grid[i, j]] * 10 ** (2 - (j + 1))
            for i in range(2)
            for j in range(2)
        )
        assert corpus.sums[0] == expected

    def test_known_grid_value(self):
        labels = np.array([1, 2, 3, 4])
        grids = np.array([[[0, 1], [2, 3]], [[3, 3], [0, 0]]])
        assert np.array_equal(grid_sums(grids, labels), [12 + 34, 44 + 11])

    def test_example_count_and_partition(self):
        store = store_with_labels(np.arange(103) % 10)
        corpus = build_corpus(store, w=5, h=2, seed=7)
        assert len(corpus) == 10  # floor(103/10)
        ids = corpus.grids.ravel()
        assert len(np.unique(ids)) == len(ids)  # factor 1: each id at most once

    def test_oversample_factor(self):
        store = store_with_labels(np.arange(60) % 10)
        corpus = build_corpus(store, w=5, h=2, oversample_factor=3, seed=1)
        assert len(corpus) == 18
        counts = np.bincount(corpus.grids.ravel(), minlength=60)
        assert (counts == 3).all()

    def test_round_trip_sums(self, rng):
        store = store_with_labels(rng.integers(0, 10, 48))
        corpus = build_corpus(store, w=3, h=2, seed=3)
        labels = store.evaluation_labels().tolist()
        for grid, s in zip(corpus.grids.tolist(), corpus.sums):
            assert sum(int("".join(str(labels[i]) for i in row)) for row in grid) == s

    def test_w18_sums_exact(self):
        # h=2, w=18, every digit 9: 2 * (10^18 - 1) still fits int64
        store = store_with_labels(np.full(36, 9))
        corpus = build_corpus(store, w=18, h=2)
        assert corpus.sums.tolist() == [2 * (10**18 - 1)]
        assert grid_sums(corpus.grids, store.evaluation_labels()).tolist() == [2 * (10**18 - 1)]

    @pytest.mark.parametrize("w, h", [(19, 2), (19, 1), (18, 10)])
    def test_int64_overflow_refused(self, w, h):
        # the all-9 sum h * (10^w - 1) exceeds 2^63 - 1; int64 would wrap
        store = store_with_labels(np.full(w * h, 9))
        with pytest.raises(ValueError, match="overflow int64"):
            build_corpus(store, w=w, h=h)
        with pytest.raises(ValueError, match="overflow int64"):
            grid_sums(np.arange(w * h).reshape(1, h, w), store.evaluation_labels())

    def test_determinism_byte_for_byte(self, tmp_path):
        store = store_with_labels(np.arange(40) % 10)
        a = build_corpus(store, 2, 2, seed=11)
        b = build_corpus(store, 2, 2, seed=11)
        save_corpus(a, tmp_path / "a.txt")
        save_corpus(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_insufficient_data(self):
        store = store_with_labels([1, 2, 3])
        with pytest.raises(InsufficientDataError):
            build_corpus(store, w=2, h=2)

    @given(
        n=st.integers(8, 60),
        w=st.integers(1, 4),
        h=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, w, h, seed):
        if w * h > n:
            return
        store = store_with_labels(np.arange(n) % 10)
        corpus = build_corpus(store, w, h, seed=seed)
        ids = corpus.grids.ravel()
        assert len(np.unique(ids)) == len(ids)
        assert n - len(ids) < w * h  # discarded remainder only
        assert len(corpus) == n // (w * h)


class TestGenerateSynthetic:
    def test_labels_restricted_to_clusters(self):
        store = generate_synthetic(90, 3, separation=10, dim=5, seed=0)
        assert set(np.unique(store.evaluation_labels())) <= {0, 1, 2}

    def test_example_count(self):
        store = generate_synthetic(1000, 4, separation=10, dim=5, seed=0)
        assert len(store) == 1000
        assert len(build_corpus(store, w=2, h=2, seed=0)) == 250

    def test_separation_holds(self):
        store = generate_synthetic(200, 4, separation=50, dim=8, seed=5)
        labels = store.evaluation_labels()
        centroids = np.stack([store.images[labels == c].mean(0) for c in range(4)])
        diff = centroids[:, None] - centroids[None]
        dist = np.sqrt((diff**2).sum(-1))
        off = dist[~np.eye(4, dtype=bool)]
        assert off.min() > 40  # empirical centroids close to the >=50-spaced truth

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, 11, 1.0, 4)
        with pytest.raises(ValueError):
            generate_synthetic(10, 2, 0.0, 4)

    @pytest.mark.parametrize("n, clusters, dim", [(90, 3, 5), (1600, 10, 784)])
    def test_noise_added_in_place_keeps_the_bits(self, n, clusters, dim):
        store = generate_synthetic(n, clusters, separation=60.0, dim=dim, seed=7)
        # the draws of generate_synthetic, summed as centroids[labels] + noise
        rng = np.random.default_rng(7)
        centroids = rng.normal(size=(clusters, dim))
        diff = centroids[:, None, :] - centroids[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        centroids *= 60.0 / dist[~np.eye(clusters, dtype=bool)].min()
        labels = np.tile(np.arange(clusters), n // clusters + 1)[:n]
        labels = labels[rng.permutation(n)]
        points = centroids[labels] + rng.standard_normal((n, dim))
        assert np.array_equal(store.evaluation_labels(), labels)
        assert store.images.tobytes() == points.tobytes()


class TestNormalizeUnit:
    def test_uint8_from_min_to_max(self):
        store = generate_synthetic(200, 4, separation=10, dim=6, seed=3)
        pixels = normalize_unit(store).images
        x = store.images
        unit = (x - x.min()) / (x.max() - x.min())
        assert pixels.dtype == np.uint8
        assert pixels.min() == 0 and pixels.max() == 255
        assert pixels[x == x.min()].tolist() == [0] and pixels[x == x.max()].tolist() == [255]
        assert np.array_equal(pixels, np.rint(255 * unit))

    def test_constant_store_maps_to_zeros(self):
        pixels = normalize_unit(ImageStore(np.full((5, 3), 2.5), np.zeros(5))).images
        assert pixels.dtype == np.uint8 and not pixels.any()

    def test_same_seed_same_bytes(self):
        a, b = (normalize_unit(generate_synthetic(300, 10, separation=60, dim=16, seed=11)) for _ in range(2))
        assert a.images.dtype == np.uint8 and a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.evaluation_labels(), b.evaluation_labels())


class TestSerialization:
    def test_corpus_roundtrip(self, tmp_path):
        store = store_with_labels(np.arange(24) % 10)
        corpus = build_corpus(store, w=3, h=2, seed=2)
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert (loaded.w, loaded.h) == (3, 2)
        assert np.array_equal(loaded.grids, corpus.grids)
        assert np.array_equal(loaded.sums, corpus.sums)
        assert loaded.grids.dtype == loaded.sums.dtype == np.int64

    @pytest.mark.parametrize("w", [1, 2, 4, 18])
    def test_corpus_file_round_trip_is_byte_identical(self, tmp_path, rng, w):
        store = store_with_labels(rng.integers(0, 10, 6 * w))
        save_corpus(build_corpus(store, w=w, h=2, oversample_factor=2, seed=w), tmp_path / "a.txt")
        save_corpus(load_corpus(tmp_path / "a.txt"), tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 1 12 0 1\n1 2 3 2 3\n", "line 2: grid shape w=1, h=2 differs"),
            ("2 1 12 0 1\n\n2 1 5 2\n", "line 3: expected 2 ids, got 1"),
            ("19 1 5 " + " ".join(["0"] * 19) + "\n", "line 1: w=19, h=1: sums up to"),
        ],
    )
    def test_load_corpus_refuses_bad_lines(self, tmp_path, text, message):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        with pytest.raises(ConsistencyError, match=message):
            load_corpus(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1 99999999999999999999 0\n", "line 1: sum or id outside int64"),
            ("1 1 5 0\n1 1 -9223372036854775809 0\n", "line 2: sum or id outside int64"),
            ("1 1 5 0\n1 1 5 9223372036854775808\n", "line 2: sum or id outside int64"),
            ("x 1 5 0\n", "line 1: invalid literal"),
            ("1 1 5 0\n1 2.0 5 0 1\n", "line 2: invalid literal"),
            ("1 1 5.5 0\n", "line 1: invalid literal"),
            ("2 1 12 0 1\n2 1 12 0 one\n", "line 2: invalid literal"),
            ("1 1 5 0\n\n1 1\n", "line 3: expected w, h and a sum, got 2 fields"),
            ("7\n", "line 1: expected w, h and a sum, got 1 fields"),
        ],
        ids=["sum-above-int64", "sum-below-int64", "id-above-int64", "w-not-int",
             "h-not-int", "sum-not-int", "id-not-int", "two-fields", "one-field"],
    )
    def test_load_corpus_names_malformed_lines(self, tmp_path, text, message):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        with pytest.raises(ConsistencyError, match=message):
            load_corpus(path)

    def test_corpus_line_format(self, tmp_path):
        store = store_with_labels([1, 2, 3, 4])
        corpus = build_corpus(store, w=2, h=2, seed=0)
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path)
        parts = path.read_text().splitlines()[0].split()
        assert parts[0] == "2" and parts[1] == "2"  # w h s id...
        assert len(parts) == 3 + 4

    def test_corpus_bytes_with_mixed_grid_shapes(self, tmp_path):
        # reference: every id through str(), one line per example, for a
        # corpus of each of several grid shapes, one with no ids
        rng = np.random.default_rng(5)
        path = tmp_path / "corpus.txt"
        for h, w in [(1, 1), (2, 2), (3, 1), (1, 4), (2, 3), (4, 2), (0, 2)]:
            corpus = Corpus(rng.integers(0, 10**7, size=(3, h, w)), rng.integers(0, 10**12, size=3))
            save_corpus(corpus, path)
            expected = "".join(
                f"{w} {h} {s} {' '.join(str(i) for i in grid.ravel())}\n"
                for grid, s in zip(corpus.grids, corpus.sums)
            )
            assert path.read_bytes() == expected.encode("utf-8")

    def test_store_roundtrip(self, tmp_path, rng):
        store = ImageStore(rng.random((5, 6)), rng.integers(0, 10, 5))
        path = tmp_path / "store.tf"
        save_store(store, path)
        loaded = load_store(path)
        assert np.array_equal(loaded.images, store.images)
        assert np.array_equal(loaded.evaluation_labels(), store.evaluation_labels())

    @pytest.mark.parametrize("missing", ["images", "true_labels"])
    def test_load_store_refuses_a_file_without_a_store_tensor(self, tmp_path, rng, missing):
        tensors = {"images": rng.random((5, 6)), "true_labels": rng.integers(0, 10, 5)}
        del tensors[missing]
        path = tmp_path / "store.tf"
        save_tensors(path, tensors)
        with pytest.raises(ValueError, match=f"no tensor '{missing}'"):
            load_store(path)

    def test_store_roundtrip_keeps_uint8(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(6, 2, 3), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2, 3, 4, 5])
        store = load_idx(img, lbl).subset([4, 1, 3])
        path = tmp_path / "store.tf"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.images.dtype == np.uint8
        assert np.array_equal(loaded.images, images.reshape(6, 6)[[4, 1, 3]])
        assert np.array_equal(decode(loaded.images), decode(store.images))


class TestImageStore:
    def test_label_count_mismatch(self, rng):
        with pytest.raises(ConsistencyError):
            ImageStore(rng.random((4, 3)), [1, 2])

    def test_labels_read_only(self, rng):
        store = ImageStore(rng.random((3, 2)), [1, 2, 3])
        with pytest.raises(ValueError):
            store.evaluation_labels()[0] = 5

    def test_images_read_only_view(self, rng):
        pixels = rng.random((3, 2))
        store = ImageStore(pixels, [1, 2, 3])
        with pytest.raises(ValueError):
            store.images[0, 0] = 5.0
        with pytest.raises(ValueError):
            store.images -= 1.0
        pixels[0, 0] = 5.0  # the caller's array keeps its flags
        assert store.images[0, 0] == 5.0
