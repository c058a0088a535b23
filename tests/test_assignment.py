import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlearn.assignment import (
    BatchSystem,
    DigitAssignment,
    _Bounds,
    _rank_mod_p,
    build_batch_system,
    count_satisfied,
    dual_multipliers,
    residuals,
    solve_batch,
    solve_corpus,
)
from sumlearn.dataset import Example, build_corpus
from sumlearn.errors import ConsistencyError

from conftest import corpus_from_grids, identity_model, store_with_labels


def brute_force(system):
    """Exhaustive 10^k enumeration: (best objective, lexicographic argmin)."""
    k = system.n_clusters
    best_val, best_digits = None, None
    for combo in itertools.product(range(10), repeat=k):
        digits = np.array(combo, dtype=np.int64)
        val = int(residuals(system, digits).sum())
        if best_val is None or val < best_val:
            best_val, best_digits = val, digits  # first hit is lex-smallest
    return best_val, best_digits


def random_system(rng, k=None, n_rows=None, w_max=3, h_max=2):
    """Random corpus-shaped system: rows sum to h * (10^w - 1) / 9."""
    k = k or int(rng.integers(1, 5))
    n_rows = n_rows or int(rng.integers(1, 51))
    w = int(rng.integers(1, w_max + 1))
    h = int(rng.integers(1, h_max + 1))
    return grid_system(rng, k, n_rows, w, h)


def grid_system(rng, k, n_rows, w, h):
    """Random system of n_rows h x w grids over k clusters."""
    weights = 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
    coeffs = np.zeros((n_rows, k), dtype=np.int64)
    for e in range(n_rows):
        clusters = rng.integers(0, k, size=h * w)
        np.add.at(coeffs[e], clusters, np.tile(weights, h))
    # targets from a hidden truth plus occasional corruption
    truth = rng.integers(0, 10, size=k)
    targets = coeffs @ truth
    noise = rng.integers(0, 3, size=n_rows) == 0
    targets = targets + noise * rng.integers(-5, 6, size=n_rows)
    targets = np.maximum(targets, 0)
    return BatchSystem(coeffs=coeffs, targets=targets)


class TestBuildBatchSystem:
    def test_two_cells_same_cluster(self):
        model = identity_model([3, 3], k=5)
        corpus = corpus_from_grids([(np.array([[0, 1]]), 33)])
        system = build_batch_system(corpus.examples, model)
        row = np.zeros(5, dtype=np.int64)
        row[3] = 11  # 10 + 1
        assert np.array_equal(system.coeffs[0], row)

    def test_single_cell_equation(self):
        model = identity_model([7], k=10)
        corpus = corpus_from_grids([(np.array([[0]]), 4)])
        system = build_batch_system(corpus.examples, model)
        assert system.coeffs[0, 7] == 1
        assert system.targets[0] == 4

    def test_row_sum_invariant(self, rng):
        # every row must sum to h * sum_j 10^(w-j); here w=2, h=3 -> 33
        labels = rng.integers(0, 10, 30)
        model = identity_model(labels, k=10)
        store = store_with_labels(labels)
        corpus = build_corpus(store, w=2, h=3, seed=0)
        system = build_batch_system(corpus.examples, model)
        assert (system.coeffs.sum(axis=1) == 33).all()

    def test_unclustered_id_rejected(self):
        model = identity_model([1, 2], k=3)
        corpus = corpus_from_grids([(np.array([[0, 5]]), 12)])
        with pytest.raises(ConsistencyError):
            build_batch_system(corpus.examples, model)

    def test_error_names_first_bad_example(self):
        model = identity_model([1, 2, 0], k=3)
        grids = [(np.array([[0, 1]]), 3), (np.array([[2], [-1]]), 1), (np.array([[7]]), 2)]
        with pytest.raises(ConsistencyError, match="example 1 "):
            build_batch_system(corpus_from_grids(grids).examples, model)

    def test_mixed_shapes_match_per_example_reference(self, rng):
        model = identity_model(rng.integers(0, 6, size=50), k=6)
        examples = [
            Example(grid=rng.integers(0, 50, size=tuple(rng.integers(1, 5, size=2))), sum=int(s))
            for s in rng.integers(0, 10000, size=40)
        ]
        want = np.zeros((40, 6), dtype=np.int64)
        for e, ex in enumerate(examples):
            weights = 10 ** np.arange(ex.w - 1, -1, -1, dtype=np.int64)
            np.add.at(want[e], model.assignment[ex.grid].ravel(), np.tile(weights, ex.h))
        system = build_batch_system(examples, model)
        assert system.coeffs.dtype == np.int64 and system.targets.dtype == np.int64
        assert np.array_equal(system.coeffs, want)
        assert np.array_equal(system.targets, [ex.sum for ex in examples])

    def test_empty_list(self):
        system = build_batch_system([], identity_model([0, 1], k=4))
        assert system.coeffs.shape == (0, 4)
        assert system.targets.shape == (0,)


def fraction_rank(a):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(int(x)) for x in row] for row in a]
    rank = 0
    for j in range(a.shape[1]):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRankModP:
    def test_matches_fraction_rank(self, rng):
        for _ in range(400):
            n_rows, n_cols = (int(x) for x in rng.integers(1, 7, size=2))
            a = rng.integers(-3, 4, size=(n_rows, n_cols))
            if rng.random() < 0.3:
                a[:, rng.integers(n_cols)] = 0  # zero column
            if n_cols > 1 and rng.random() < 0.3:
                a[:, 0] = a[:, -1]  # duplicate column
            if rng.random() < 0.3:
                a *= rng.integers(0, 2, size=(n_rows, 1))  # zero rows
            assert _rank_mod_p(a) == fraction_rank(a)

    def test_wide_and_large_entries(self):
        assert _rank_mod_p(np.array([[1, 2, 3], [2, 4, 7]])) == 2  # more columns than rows
        assert _rank_mod_p(np.zeros((0, 3), dtype=np.int64)) == 0
        big = np.array([[10**13, 1], [2 * 10**13, 2]])  # dependent, entries above p
        assert _rank_mod_p(big) == fraction_rank(big) == 1


class TestCompletionBound:
    def test_admissible_on_random_instances(self, rng):
        # the interval bound _Bounds.children gives each digit of the next
        # column never exceeds the true best completion cost, computed by
        # enumeration
        for _ in range(25):
            system = random_system(rng, k=3, n_rows=8)
            coeffs, targets = system.coeffs, system.targets
            dual_n, _ = dual_multipliers(coeffs, targets, np.zeros(3, dtype=np.int64))
            bounds = _Bounds(coeffs, targets, dual_n)
            n_fixed = int(rng.integers(0, 3))
            fixed_digits = rng.integers(0, 10, size=n_fixed)
            fixed = coeffs[:, :n_fixed] @ fixed_digits if n_fixed else np.zeros(
                8, dtype=np.int64
            )
            interval, _, _, _ = bounds.children(n_fixed, fixed, bounds.root_fixed(fixed))
            for d in range(10):
                head = fixed + coeffs[:, n_fixed] * d
                best = min(
                    int(np.abs(head + coeffs[:, n_fixed + 1 :] @ np.array(c) - targets).sum())
                    for c in itertools.product(range(10), repeat=2 - n_fixed)
                )
                assert interval[d] <= best

    def test_lagrangian_bounds_admissible(self, rng):
        # both the static multiplier bound and the per-node ascent bound
        # must never exceed the true best completion cost
        for _ in range(25):
            system = random_system(rng, k=3, n_rows=8)
            coeffs, targets = system.coeffs, system.targets
            dual_n, lam = dual_multipliers(coeffs, targets, np.zeros(3, dtype=np.int64))
            bounds = _Bounds(coeffs, targets, dual_n)

            n_fixed = int(rng.integers(0, 3))
            fixed_digits = rng.integers(0, 10, size=n_fixed)
            fixed = coeffs[:, :n_fixed] @ fixed_digits if n_fixed else np.zeros(
                8, dtype=np.int64
            )
            best = min(
                int(np.abs(fixed + coeffs[:, n_fixed:] @ np.array(c) - targets).sum())
                for c in itertools.product(range(10), repeat=3 - n_fixed)
            )
            node_bound, _ = bounds.ascent_bound(n_fixed, fixed, lam)
            assert node_bound <= best


class TestSolveBatch:
    def test_forced_single_variable(self):
        model = identity_model([7], k=10)
        corpus = corpus_from_grids([(np.array([[0]]), 4)])
        system = build_batch_system(corpus.examples, model)
        result = solve_batch(system)
        assert result.digits[7] == 4
        assert result.objective == 0
        assert (np.delete(result.digits, 7) == 0).all()  # lex-min elsewhere

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            system = random_system(rng)
            got = solve_batch(system)
            want_val, want_digits = brute_force(system)
            assert got.objective == want_val
            assert residuals(system, got.digits).sum() == got.objective
            assert np.array_equal(got.digits, want_digits)

    def test_matches_brute_force_heavy_corruption(self, rng):
        # plateau-heavy instances: most targets far from any consistent
        # assignment, so near-ties abound and bounds are stressed
        for _ in range(30):
            system = random_system(rng, k=4, n_rows=30)
            noise = rng.integers(-200, 201, size=30)
            system = BatchSystem(system.coeffs, np.maximum(system.targets + noise, 0))
            got = solve_batch(system)
            want_val, want_digits = brute_force(system)
            assert got.objective == want_val
            assert residuals(system, got.digits).sum() == got.objective
            assert np.array_equal(got.digits, want_digits)

    def test_recovers_truth_with_perfect_clustering(self, rng):
        truth = rng.integers(0, 10, size=4)
        labels = rng.integers(0, 4, size=120)
        model = identity_model(labels, k=4)
        store = store_with_labels(truth[labels])
        corpus = build_corpus(store, w=2, h=1, seed=1)
        system = build_batch_system(corpus.examples, model)
        result = solve_batch(system)
        assert result.objective == 0
        assert np.array_equal(result.digits, truth)

    def test_warm_start_changes_nothing(self, rng):
        for _ in range(15):
            system = random_system(rng, k=3)
            cold = solve_batch(system)
            warm = solve_batch(system, initial_digits=rng.integers(0, 10, 3))
            assert cold.objective == warm.objective
            assert np.array_equal(cold.digits, warm.digits)

    def test_warm_optimum_lowered_to_lex_smallest(self):
        # the warm start (9, 0) is optimal; phase 2 must lower it to (0, 9)
        # and carry the completion it found to the later cluster
        system = BatchSystem(np.array([[1, 1]], dtype=np.int64), np.array([9], dtype=np.int64))
        got = solve_batch(system, initial_digits=np.array([9, 0]))
        assert got.objective == 0
        assert np.array_equal(got.digits, [0, 9])

    def test_certified_warm_start_zeroes_absent_clusters(self, monkeypatch):
        # clusters 0 and 1 have independent columns and the warm start
        # satisfies every row; cluster 2 is absent, so its warm digit 7
        # must come back as 0, without any search
        system = BatchSystem(
            np.array([[10, 1, 0], [1, 10, 0], [11, 0, 0]], dtype=np.int64),
            np.array([34, 43, 33], dtype=np.int64),
        )

        def no_search(*args, **kwargs):
            raise AssertionError("certified batch must not search")

        monkeypatch.setattr("sumlearn.assignment.dual_multipliers", no_search)
        got = solve_batch(system, initial_digits=np.array([3, 4, 7]))
        assert got.objective == 0
        assert np.array_equal(got.digits, [3, 4, 0])

    def test_exactness_envelope(self, rng):
        # h=2, k=3, 100 rows: w=14 fits int64 and stays exact; wider grids
        # are rejected instead of returning wrapped-around bounds
        for _ in range(20):
            system = grid_system(rng, 3, 100, 14, 2)
            got = solve_batch(system)
            want_val, want_digits = brute_force(system)
            assert got.objective == want_val
            assert np.array_equal(got.digits, want_digits)
        for w in (15, 17):
            with pytest.raises(ValueError, match="int64"):
                solve_batch(grid_system(rng, 3, 100, w, 2))
        # one row, one cluster: the largest magnitude formed is 256 * 9 * a
        a = int(np.iinfo(np.int64).max) // (256 * 9)
        got = solve_batch(BatchSystem(np.array([[a]]), np.array([9 * a - 1])))
        assert (got.digits.tolist(), got.objective) == ([9], 1)
        with pytest.raises(ValueError, match="int64"):
            solve_batch(BatchSystem(np.array([[a + 1]]), np.array([9 * a + 8])))

    def test_permutation_invariance(self, rng):
        system = random_system(rng, k=4, n_rows=20)
        base = solve_batch(system)
        for _ in range(5):
            perm = rng.permutation(20)
            shuffled = BatchSystem(system.coeffs[perm], system.targets[perm])
            got = solve_batch(shuffled)
            assert got.objective == base.objective
            assert np.array_equal(got.digits, base.digits)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_property(self, seed):
        rng = np.random.default_rng(seed)
        system = random_system(rng, k=int(rng.integers(1, 4)), n_rows=int(rng.integers(1, 12)))
        got = solve_batch(system)
        want_val, want_digits = brute_force(system)
        assert got.objective == want_val
        assert residuals(system, got.digits).sum() == got.objective
        assert np.array_equal(got.digits, want_digits)


class TestCountSatisfied:
    def test_clean_corpus_fully_satisfied(self, rng):
        truth = rng.integers(0, 10, size=3)
        labels = rng.integers(0, 3, size=40)
        model = identity_model(labels, k=3)
        store = store_with_labels(truth[labels])
        corpus = build_corpus(store, w=2, h=2, seed=0)
        assignment = DigitAssignment(digits=truth, objective=0)
        assert count_satisfied(assignment, corpus, model) == len(corpus)

    def test_zero_digits_miss_positive_sums(self):
        model = identity_model([1, 2], k=3)
        corpus = corpus_from_grids([(np.array([[0, 1]]), 12)])
        assignment = DigitAssignment(digits=np.zeros(3, dtype=np.int64), objective=0)
        assert count_satisfied(assignment, corpus, model) == 0

    def test_monotone_vote(self):
        # adding an example satisfied by X and violated by Y never narrows
        # X's satisfied margin over Y
        model = identity_model([0, 1], k=2)
        x = DigitAssignment(digits=np.array([3, 4]), objective=0)
        y = DigitAssignment(digits=np.array([4, 3]), objective=0)
        base = [(np.array([[0, 1]]), 34)]
        corpus_small = corpus_from_grids(base)
        corpus_big = corpus_from_grids(base + [(np.array([[1, 0]]), 43)])
        margin_small = count_satisfied(x, corpus_small, model) - count_satisfied(
            y, corpus_small, model
        )
        margin_big = count_satisfied(x, corpus_big, model) - count_satisfied(
            y, corpus_big, model
        )
        assert margin_big >= margin_small


class TestSolveCorpus:
    def test_single_batch_winner(self, rng):
        truth = rng.integers(0, 10, size=3)
        labels = rng.integers(0, 3, size=24)
        model = identity_model(labels, k=3)
        store = store_with_labels(truth[labels])
        corpus = build_corpus(store, w=2, h=1, seed=0)
        whole = solve_corpus(corpus, model, batch_size=1000)
        assert whole.batch_index == 0
        assert np.array_equal(whole.digits, truth)
        assert whole.satisfied_count == len(corpus)

    def test_clean_batch_outvotes_poisoned(self, rng):
        truth = np.array([2, 7, 5])
        labels = rng.integers(0, 3, size=80)
        model = identity_model(labels, k=3)
        store = store_with_labels(truth[labels])
        corpus = build_corpus(store, w=1, h=2, seed=0)
        # poison the sums of the first batch only
        for ex in corpus.examples[:20]:
            ex.sum += int(rng.integers(1, 4))
        winner = solve_corpus(corpus, model, batch_size=20)
        assert winner.batch_index > 0
        assert np.array_equal(winner.digits, truth)
        assert winner.satisfied_count == len(corpus) - sum(
            1
            for ex in corpus.examples[:20]
            if residuals(build_batch_system([ex], model), truth)[0] != 0
        )

    def test_batch_size_100_default_shape(self, rng):
        labels = rng.integers(0, 4, size=300)
        truth = np.array([1, 0, 9, 5])
        model = identity_model(labels, k=4)
        store = store_with_labels(truth[labels])
        corpus = build_corpus(store, w=1, h=1, seed=0)
        winner = solve_corpus(corpus, model, batch_size=100)
        assert winner.objective == 0
        assert np.array_equal(winner.digits, truth)

    def test_vote_tie_keeps_lowest_batch(self):
        # batches 0-1 give (3, 0), batches 2-3 give (0, 3): a tie on
        # satisfied count and residual, broken toward batch 0 even though
        # (0, 3) sorts first among the distinct candidates
        model = identity_model([0, 1], k=2)
        grids = [(np.array([[0]]), 3)] * 2 + [(np.array([[1]]), 3)] * 2
        winner = solve_corpus(corpus_from_grids(grids), model, batch_size=1)
        assert np.array_equal(winner.digits, [3, 0])
        assert (winner.batch_index, winner.satisfied_count) == (0, 2)
        # one more (0, 3) example: the later distinct candidate wins outright
        winner = solve_corpus(corpus_from_grids(grids + grids[-1:]), model, batch_size=1)
        assert np.array_equal(winner.digits, [0, 3])
        assert (winner.batch_index, winner.satisfied_count) == (2, 3)

    def test_empty_corpus_rejected(self):
        model = identity_model([0], k=1)
        with pytest.raises(ValueError):
            solve_corpus(corpus_from_grids([]), model)

    def test_json_roundtrip(self, tmp_path):
        assignment = DigitAssignment(
            digits=np.arange(10, dtype=np.int64), objective=3, satisfied_count=9, batch_index=2
        )
        path = tmp_path / "assignment.json"
        assignment.save(path)
        loaded = DigitAssignment.load(path)
        assert np.array_equal(loaded.digits, assignment.digits)
        assert (loaded.objective, loaded.satisfied_count, loaded.batch_index) == (3, 9, 2)
        # exact external interface keys
        import json

        obj = json.loads(path.read_text())
        assert set(obj) == {"digits", "objective", "satisfied", "batch_index"}
