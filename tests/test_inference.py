import json

import numpy as np
import pytest

from sumlearn import inference as inf
from sumlearn.assignment import DigitAssignment
from sumlearn.clustering import distance_percentiles
from sumlearn.dataset import build_corpus, place_value
from sumlearn.tensorfile import load_int64
from sumlearn.inference import (
    PROV_CLUSTER,
    PROV_INFERRED,
    PROV_RADIUS,
    LabelState,
    images_within_radius,
    infer_correct_labels,
    init_labels,
    run_inference,
    save_labels,
)

from conftest import corpus_from_grids, identity_model, planted_clustering, store_with_labels


def make_state(labels, trusted=()):
    """Labels from the clusters, with the `trusted` images tagged radius."""
    labels = np.asarray(labels, dtype=np.int64)
    provenance = np.full(labels.shape[0], PROV_CLUSTER, dtype=np.int8)
    provenance[list(trusted)] = PROV_RADIUS
    return LabelState(labels=labels, provenance=provenance)


def is_trusted(state):
    return state.provenance != PROV_CLUSTER


class TestInitLabels:
    def test_constant_map(self):
        model = identity_model(np.full(6, 2), k=3)
        digits = np.array([0, 0, 7])
        state = init_labels(model, DigitAssignment(digits=digits, objective=0))
        assert (state.labels == 7).all()
        assert not is_trusted(state).any()
        assert (state.provenance == PROV_CLUSTER).all()

    def test_composition_of_correct_maps(self, rng):
        truth = rng.integers(0, 10, 30)
        model = identity_model(truth, k=10)  # perfect clustering
        digits = np.arange(10)  # correct assignment
        state = init_labels(model, DigitAssignment(digits=digits, objective=0))
        assert np.array_equal(state.labels, truth)

    def test_incomplete_assignment_rejected(self):
        model = identity_model([0, 1, 2], k=3)
        with pytest.raises(ValueError):
            init_labels(model, DigitAssignment(digits=np.array([1, 2]), objective=0))


class TestImagesWithinRadius:
    def test_radius_five_covers_everything(self, rng):
        model = identity_model(rng.integers(0, 3, 40), distance=rng.random(40) * 9)
        assert images_within_radius(model, 5).shape[0] == 40

    def test_nested(self, rng):
        model = identity_model(rng.integers(0, 4, 60), distance=rng.random(60))
        previous = set()
        for radius in (1, 2, 3, 4, 5):
            current = set(images_within_radius(model, radius))
            assert previous <= current
            previous = current

    def test_single_member_cluster_included_at_radius_one(self):
        model = identity_model([0, 0, 1], distance=[0.1, 0.2, 7.5])
        assert 2 in images_within_radius(model, 1)

    def test_matches_per_cluster_loop(self):
        # planted clusters with tied distances, plus one empty cluster
        _, _, model, _ = planted_clustering(3, 2000)
        model.distance = np.round(model.distance, 1)
        model.k, model.centroids = 11, np.zeros((11, 2))
        for radius in (1, 2, 3, 4, 5):
            mask = np.zeros(len(model), dtype=bool)
            for c in range(model.k):
                members = np.flatnonzero(model.assignment == c)
                if members.size:
                    threshold = distance_percentiles(model.distance[members], radius * 20 / 100.0)
                    mask[members[model.distance[members] <= threshold]] = True
            assert np.array_equal(images_within_radius(model, radius), np.flatnonzero(mask))

    def test_runs_built_once_match_per_call_grouping(self, monkeypatch):
        # tied distances and one empty cluster, as in test_matches_per_cluster_loop
        _, corpus, model, digits = planted_clustering(4, 2000)
        model.distance = np.round(model.distance, 1)
        model.k, model.centroids = 11, np.zeros((11, 2))
        runs = inf._distance_runs(model)
        assert runs[10].size == 0
        for radius in (1, 2, 3, 4, 5):
            assert np.array_equal(images_within_radius(model, radius, runs), images_within_radius(model, radius))
        built = []
        monkeypatch.setattr(inf, "_distance_runs", lambda m: built.append(m) or runs)
        run_inference(init_labels(model, DigitAssignment(np.append(digits, 0), 0)), corpus, model)
        assert built == [model]

    def test_bad_radius(self):
        model = identity_model([0])
        with pytest.raises(ValueError):
            images_within_radius(model, 0)


class TestResolveImageLabel:
    def test_tens_place(self):
        corpus = corpus_from_grids([(np.array([[0, 1]]), 25)])
        state = make_state([0, 5], trusted=[1])
        assert resolve_image_label(state, corpus, 0, 0) == 2

    def test_pair_sum(self):
        corpus = corpus_from_grids([(np.array([[0], [1]]), 9)])  # w=1, h=2
        state = make_state([4, 0], trusted=[0])
        assert resolve_image_label(state, corpus, 0, 1) == 5

    def test_non_integer_quotient_is_inconsistent(self):
        corpus = corpus_from_grids([(np.array([[0, 1]]), 1)] * 4 + [(np.array([[0, 1]]), 25)])
        state = make_state([0, 6], trusted=[1])
        assert resolve_image_label(state, corpus, 4, 0) is None
        assert state.inconsistent_examples == {4}

    def test_out_of_range_is_inconsistent(self):
        corpus = corpus_from_grids([(np.array([[0], [1]]), 3)])
        state = make_state([9, 0], trusted=[0])  # 3 - 9 < 0
        assert resolve_image_label(state, corpus, 0, 1) is None
        assert 0 in state.inconsistent_examples

    def test_duplicated_image_resolves_via_weight_sum(self):
        # image 0 fills both cells: d * 11 = 88
        corpus = corpus_from_grids([(np.array([[0, 0]]), 88)])
        state = make_state([0], trusted=[])
        assert resolve_image_label(state, corpus, 0, 0) == 8

    def test_precondition_violation(self):
        corpus = corpus_from_grids([(np.array([[0, 1]]), 25)])
        state = make_state([0, 5])  # nothing trusted: two unresolved
        with pytest.raises(ValueError):
            resolve_image_label(state, corpus, 0, 0)


class TestInferCorrectLabels:
    def test_everything_correct_means_unchanged(self):
        corpus = corpus_from_grids([(np.array([[0, 1]]), 25)])
        state = make_state([2, 5], trusted=[0, 1])
        assert infer_correct_labels(state, corpus) is False

    def test_two_unresolved_untouched(self):
        corpus = corpus_from_grids([(np.array([[0, 1]]), 25)])
        state = make_state([1, 1])
        assert infer_correct_labels(state, corpus) is False
        assert np.array_equal(state.labels, [1, 1])

    def test_cascade_within_one_pass(self):
        # A=(0,1) resolves image 1; B=(1,2) then has a single unresolved
        # image and resolves in the same pass
        corpus = corpus_from_grids(
            [(np.array([[0], [1]]), 7), (np.array([[1], [2]]), 9)]
        )
        state = make_state([3, 0, 0], trusted=[0])
        assert infer_correct_labels(state, corpus) is True
        assert state.labels[1] == 4  # 7 - 3
        assert state.labels[2] == 5  # 9 - 4
        assert is_trusted(state)[1] and is_trusted(state)[2]
        assert state.provenance[1] == state.provenance[2] == PROV_INFERRED

    def test_inconsistent_example_does_not_enter_correct(self):
        corpus = corpus_from_grids([(np.array([[0, 1]]), 25)])
        state = make_state([0, 6], trusted=[1])
        assert infer_correct_labels(state, corpus) is False
        assert not is_trusted(state)[0]
        assert state.inconsistent_examples == {0}


class TestRunInference:
    def test_empty_corpus_gains_only_radius_sets(self, rng):
        model = identity_model(rng.integers(0, 3, 12), distance=rng.random(12))
        state = init_labels(model, DigitAssignment(digits=np.arange(3), objective=0))
        before = state.labels.copy()
        out = run_inference(state, corpus_from_grids([]), model)
        assert np.array_equal(out.labels, before)
        assert is_trusted(out).all()  # radius 5 pulled everyone in
        assert (out.provenance == PROV_RADIUS).all()

    def test_constructed_corpus_restored_to_full_accuracy(self, rng):
        # each example pairs one trusted image (tiny distance, true label)
        # with one perturbed image (large distance, wrong label)
        n = 60
        truth = rng.integers(0, 10, n)
        labels = truth.copy()
        distance = np.full(n, 0.05)
        perturbed = rng.choice(n, size=n // 2, replace=False)
        labels[perturbed] = (truth[perturbed] + 1 + rng.integers(0, 9, n // 2)) % 10
        distance[perturbed] = 12.0
        clean = np.setdiff1d(np.arange(n), perturbed)
        model = identity_model(np.zeros(n, dtype=int), k=1, distance=distance)
        grids = [
            (np.array([[c], [p]]), int(truth[c] + truth[p]))
            for c, p in zip(clean, perturbed)
        ]
        corpus = corpus_from_grids(grids)
        state = make_state(labels)
        out = run_inference(state, corpus, model)
        assert np.array_equal(out.labels, truth)
        assert infer_correct_labels(out, corpus) is False  # fixpoint
        assert not out.inconsistent_examples

    def test_correct_set_monotone(self, rng, monkeypatch):
        n = 30
        truth = rng.integers(0, 10, n)
        model = identity_model(
            np.zeros(n, dtype=int), k=1, distance=rng.random(n)
        )
        store = store_with_labels(truth)
        corpus = build_corpus(store, w=1, h=2, seed=0)
        state = make_state(truth.copy())
        sizes = []
        for radius in (1, 2, 3, 4, 5):
            monkeypatch.setattr(inf, "RADII", (radius,))
            run_inference(state, corpus, model)
            sizes.append(int(is_trusted(state).sum()))
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_inferred_labels_never_overwritten_by_radius(self):
        # image 1 resolved at radius 1; radius 5 later includes it but must
        # keep the inferred label and provenance
        corpus = corpus_from_grids([(np.array([[0], [1]]), 9)])
        model = identity_model([0, 0], k=1, distance=[0.0, 50.0])
        state = make_state([4, 2])
        out = run_inference(state, corpus, model)
        assert out.labels[1] == 5
        assert out.provenance[1] == PROV_INFERRED


class TestPersistence:
    def test_labels_roundtrip(self, tmp_path):
        state = make_state([3, 1, 4], trusted=[0])
        state.provenance[0] = PROV_INFERRED
        bin_path, json_path = tmp_path / "labels.bin", tmp_path / "labels.json"
        save_labels((state.labels, state.counts()), json_path)
        assert np.array_equal(load_int64(bin_path), [3, 1, 4])
        assert bin_path.read_bytes() == np.array([3, 1, 4], dtype="<i8").tobytes()
        summary = json.loads(json_path.read_text())
        assert summary["inferred"] == 1
        assert summary["correct"] == 1

    @pytest.mark.parametrize("reassigned", [0.1, 0.3, 0.5])
    def test_correct_counts_the_trusted_images(self, tmp_path, monkeypatch, reassigned):
        # after every radius of 20 planted instances: "correct" is the
        # radius and inferred images, and labels.json keeps its keys
        keys = {"cluster", "radius", "inferred", "correct", "inconsistent_examples", "inference_radii"}
        json_path = tmp_path / "labels.json"
        for seed in range(20):
            _, corpus, model, digits = planted_clustering(seed, 600, reassigned=reassigned)
            state = init_labels(model, DigitAssignment(digits=digits, objective=0))
            for radius in (1, 2, 3, 4, 5):
                monkeypatch.setattr(inf, "RADII", (radius,))
                counts = run_inference(state, corpus, model).counts()
                assert counts["correct"] == counts["radius"] + counts["inferred"]
                assert counts["cluster"] + counts["correct"] == len(model)
                save_labels((state.labels, counts), json_path)
                assert set(json.loads(json_path.read_text())) == keys


def resolve_image_label(state, corpus, e, img):
    """Digit forced on `img` by example e's sum, or None on inconsistency.

    All other images of the example must already be trusted. If the image
    occupies several cells (duplicated ids), the divisor is the sum of its
    positional weights. Non-integer or out-of-range results are recorded in
    state.inconsistent_examples instead of being clamped.
    """
    ids = corpus.grids[e].ravel()
    unresolved = np.unique(ids[~is_trusted(state)[ids]])
    if unresolved.size != 1 or unresolved[0] != img:
        raise ValueError(f"image {img} is not the sole unresolved image")

    weights = place_value(corpus.w, np.arange(ids.size) % corpus.w)
    own = ids == img
    rest = int((state.labels[ids[~own]] * weights[~own]).sum())
    digit, remainder = divmod(int(corpus.sums[e]) - rest, int(weights[own].sum()))
    if remainder or not 0 <= digit <= 9:
        state.inconsistent_examples.add(e)
        return None
    return digit


def reference_pass(state, corpus):
    """The sequential pass: every example in index order, resolutions
    applied at once."""
    changed = False
    for idx, grid in enumerate(corpus.grids):
        ids = grid.ravel()
        unresolved = np.unique(ids[~is_trusted(state)[ids]])
        if unresolved.size != 1:
            continue
        img = int(unresolved[0])
        digit = resolve_image_label(state, corpus, idx, img)
        if digit is None:
            continue
        state.labels[img] = digit
        state.provenance[img] = PROV_INFERRED
        changed = True
    return changed


def reference_inference(state, corpus, model, radii):
    """Sequential passes to fixpoint per radius; returns the pass count."""
    passes = 0
    for radius in radii:
        ids = images_within_radius(model, radius)
        fresh = ids[~is_trusted(state)[ids]]
        state.provenance[fresh] = PROV_RADIUS
        passes += 1
        while reference_pass(state, corpus):
            passes += 1
    return passes


def noisy_instance(seed, n, shape, replace, n_examples, partition=False):
    """A corpus of (h, w) grids over n images, with or without repeated ids
    inside a grid, a one-cluster model at random distances, and initial
    labels wrong on 30% of the images. With `partition` the grids split a
    permutation of the images instead: each image is one cell of one
    example, as in a corpus of oversample factor 1."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 10, n)
    h, w = shape
    if partition:
        grids = list(rng.permutation(n).reshape(-1, h, w))
    else:
        grids = [rng.choice(n, size=(h, w), replace=replace) for _ in range(n_examples)]
    place = 10 ** np.arange(w - 1, -1, -1)
    corpus = corpus_from_grids([(grid, int((truth[grid] * place).sum())) for grid in grids])
    distance = rng.random(n)
    labels = truth.copy()
    wrong = rng.random(n) < 0.3
    labels[wrong] = (truth[wrong] + rng.integers(1, 10, int(wrong.sum()))) % 10
    model = identity_model(np.zeros(n, dtype=int), k=1, distance=distance)
    return corpus, model, labels


class TestMatchesSequentialReference:
    """Event-driven propagation against the sequential pass loop it replaced:
    the same LabelState and the same number of passes."""

    @staticmethod
    def compare(monkeypatch, corpus, model, labels, radii=inf.RADII):
        want = make_state(np.copy(labels))
        want_passes = reference_inference(want, corpus, model, radii)
        calls = []
        one_pass = inf.infer_correct_labels
        monkeypatch.setattr(
            inf, "infer_correct_labels", lambda *a, **kw: calls.append(1) or one_pass(*a, **kw)
        )
        monkeypatch.setattr(inf, "RADII", radii)
        got = run_inference(make_state(np.copy(labels)), corpus, model)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.provenance, want.provenance)
        assert got.inconsistent_examples == want.inconsistent_examples
        assert len(calls) == want_passes
        assert sum(r["passes"] for r in got.radii) == want_passes
        return got

    @pytest.mark.parametrize("reassigned", [0.0, 0.2, 0.35])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_planted(self, monkeypatch, reassigned, factor):
        _, corpus, model, digits = planted_clustering(
            11, 1200, w=1, h=2, reassigned=reassigned, oversample_factor=factor
        )
        labels = init_labels(model, DigitAssignment(digits=digits, objective=0)).labels
        got = self.compare(monkeypatch, corpus, model, labels)
        if reassigned:
            assert (got.provenance == PROV_INFERRED).any()

    def test_repeated_ids(self, monkeypatch):
        corpus, model, labels = noisy_instance(1, 150, (2, 2), True, 150)
        assert any(np.unique(grid).size < grid.size for grid in corpus.grids)
        self.compare(monkeypatch, corpus, model, labels)

    def test_mixed_shapes(self, monkeypatch):
        inconsistent = 0
        for shape in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]:
            corpus, model, labels = noisy_instance(2, 300, shape, False, 250)
            got = self.compare(monkeypatch, corpus, model, labels)
            inconsistent += len(got.inconsistent_examples)
        assert inconsistent

    def test_lower_index_waits_for_next_pass(self, monkeypatch):
        # example 1 resolves image 1, which leaves example 0 with one
        # untrusted image; example 0 comes earlier, so it resolves in pass 2
        corpus = corpus_from_grids([(np.array([[1], [2]]), 9), (np.array([[0], [1]]), 7)])
        model = identity_model([0, 0, 0], k=1, distance=[0.0, 50.0, 50.0])
        got = self.compare(monkeypatch, corpus, model, [3, 0, 0], radii=(1,))
        assert got.labels.tolist() == [3, 4, 5]
        assert got.radii == [
            {"radius": 1, "trusted": 1, "inferred": 2, "inconsistent_examples": 0, "passes": 3}
        ]

    def test_factor_one_with_inconsistent_single_holders(self, monkeypatch):
        # every image has one holder, so every resolution is a bulk one; a
        # sum off by one makes its example inconsistent when the untrusted
        # image is in the tens column
        corpus, model, labels = noisy_instance(3, 600, (2, 2), False, None, partition=True)
        assert np.unique(corpus.grids).size == corpus.grids.size
        corpus.sums[::5] += 1
        got = self.compare(monkeypatch, corpus, model, labels)
        assert got.inconsistent_examples
        assert (got.provenance == PROV_INFERRED).any()

    def test_single_holder_queued_mid_pass(self, monkeypatch):
        # example 0 resolves image 1, which example 1 shares; that leaves
        # example 1 one untrusted image, 2, which only it holds. Example 1
        # comes later, so the sequential loop resolves it in the same pass
        corpus = corpus_from_grids([(np.array([[0], [1]]), 7), (np.array([[1], [2]]), 9)])
        model = identity_model([0, 0, 0], k=1, distance=[0.0, 50.0, 50.0])
        got = self.compare(monkeypatch, corpus, model, [3, 0, 0], radii=(1,))
        assert got.labels.tolist() == [3, 4, 5]
        assert got.radii == [
            {"radius": 1, "trusted": 1, "inferred": 2, "inconsistent_examples": 0, "passes": 2}
        ]

    def test_sums_past_2_to_the_53(self, monkeypatch):
        # w = 16, h = 2: sums and trusted partial sums pass 2^53, where a
        # float64 sum would round. 85% of the images sit on the centroid
        # with their true label, so radius 1 trusts them and leaves some
        # examples one untrusted image
        rng = np.random.default_rng(4)
        n, h, w = 200, 2, 16
        truth = rng.integers(0, 10, n)
        place = 10 ** np.arange(w - 1, -1, -1)
        grids = [rng.choice(n, size=(h, w), replace=False) for _ in range(400)]
        corpus = corpus_from_grids([(grid, int((truth[grid] * place).sum())) for grid in grids])
        on_centroid = rng.random(n) < 0.85
        distance = np.where(on_centroid, 0.0, 1.0 + rng.random(n))
        model = identity_model(np.zeros(n, dtype=int), k=1, distance=distance)
        assert corpus.sums.max() > 2**53
        got = self.compare(monkeypatch, corpus, model, np.where(on_centroid, truth, (truth + 1) % 10))
        assert (got.provenance == PROV_INFERRED).sum() > 5

    def test_queued_example_emptied_before_its_pass(self, monkeypatch):
        # example 1 resolves image 1 and queues example 0 for pass 2; example
        # 2 then resolves image 2, example 0's last untrusted image. Pass 2
        # finds example 0 with none left, and its id sum 0 must not be read
        # as image 0, which only example 3 holds
        corpus = corpus_from_grids([
            (np.array([[1], [2]]), 5), (np.array([[1], [3]]), 6),
            (np.array([[2], [3]]), 7), (np.array([[0], [4]]), 6),
        ])
        model = identity_model([0] * 5, k=1, distance=[50.0, 50.0, 50.0, 0.0, 50.0])
        got = self.compare(monkeypatch, corpus, model, [0, 0, 0, 4, 0], radii=(1,))
        assert got.labels.tolist() == [0, 2, 3, 4, 0]
        assert got.radii[0]["passes"] == 2
