import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlearn import assignment as asg
from sumlearn.assignment import (
    BatchSystem,
    DigitAssignment,
    _Bounds,
    _independent_batches,
    _PRIME,
    _rank_mod_p,
    build_batch_system,
    dual_multipliers,
    residuals,
    solve_batch,
    solve_corpus,
)
from sumlearn.dataset import Corpus, build_corpus
from sumlearn.errors import ConsistencyError

from conftest import corpus_from_grids, identity_model, planted_clustering, store_with_labels


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


def chunked_brute_force(system, chunk=20_000):
    """Exhaustive 10^k enumeration in float64 GEMMs of `chunk` digit vectors:
    (best objective, first argmin). Vectors are taken in code order, which
    is lexicographic order, so the first argmin is the lexicographic one.
    Exact while |A v - s| summed over the rows stays below 2^53."""
    k = system.n_clusters
    coeffs = system.coeffs.astype(np.float64)
    targets = system.targets.astype(np.float64)
    place = 10 ** np.arange(k - 1, -1, -1)
    best_val, best_digits = None, None
    for start in range(0, 10**k, chunk):
        codes = np.arange(start, min(start + chunk, 10**k))
        digits = codes[:, None] // place % 10
        vals = np.abs(digits.astype(np.float64) @ coeffs.T - targets).sum(axis=1)
        i = int(np.argmin(vals))
        if best_val is None or vals[i] < best_val:
            best_val, best_digits = vals[i], digits[i]
    return int(best_val), best_digits


def planted_batch(seed, k, reassigned):
    """The first 100-example batch of a w=2 h=2 planted corpus over k clusters."""
    _, corpus, model, _ = planted_clustering(seed, 400, reassigned=reassigned, k=k)
    return build_batch_system(Corpus(corpus.grids[:100], corpus.sums[:100]), model)


def milp_lexicographic(system):
    """(f*, lexicographically smallest optimum) by scipy's MILP solver:
    min sum t subject to -t <= A v - s <= t, v integer in 0..9, then, for
    each cluster in index order, the smallest digit that keeps the
    objective at f* with the earlier digits fixed."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    b, k = system.coeffs.shape
    a = system.coeffs.astype(np.float64)
    s = system.targets.astype(np.float64)
    eye = np.eye(b)
    rows = [
        LinearConstraint(np.hstack([a, -eye]), -np.inf, s),  # A v - t <= s
        LinearConstraint(np.hstack([-a, -eye]), -np.inf, -s),  # -A v - t <= -s
    ]
    integrality = np.r_[np.ones(k), np.zeros(b)]
    lower, upper = np.zeros(k + b), np.r_[np.full(k, 9.0), np.full(b, np.inf)]

    def solve(cost, extra, lower, upper):
        res = milp(cost, constraints=rows + extra, integrality=integrality,
                   bounds=Bounds(lower, upper))
        assert res.success, res.message
        return res.x

    objective = np.r_[np.zeros(k), np.ones(b)]
    f_star = round(solve(objective, [], lower, upper)[k:].sum())
    keep_optimal = [LinearConstraint(objective[None, :], -np.inf, f_star + 0.5)]
    for c in range(k):
        cost = np.zeros(k + b)
        cost[c] = 1.0
        digit = round(solve(cost, keep_optimal, lower, upper)[c])
        lower, upper = lower.copy(), upper.copy()
        lower[c] = upper[c] = digit
    return f_star, lower[:k].astype(np.int64)


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


def twin_system(rng, k, n_rows, scale):
    """A grid system with tied optima that mass order visits against index
    order: the last cluster's column is `scale` times the first's, so moving
    one unit from the last digit to `scale` units on the first keeps every
    residual, and with scale 2 the last column is the heavier one."""
    w, h = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    coeffs = grid_system(rng, k, n_rows, w, h).coeffs
    coeffs[:, -1] = scale * coeffs[:, 0]
    targets = coeffs @ rng.integers(0, 10, size=k)
    noise = rng.integers(0, 3, size=n_rows) == 0
    targets = np.maximum(targets + noise * rng.integers(-5, 6, size=n_rows), 0)
    return BatchSystem(coeffs=coeffs, targets=targets)


def larger_twin(digits, scale):
    """The tied, lexicographically larger digit vector, or None."""
    if digits[-1] < 1 or digits[0] + scale > 9:
        return None
    twin = digits.copy()
    twin[0] += scale
    twin[-1] -= 1
    return twin


class TestBuildBatchSystem:
    def test_two_cells_same_cluster(self):
        model = identity_model([3, 3], k=5)
        corpus = corpus_from_grids([(np.array([[0, 1]]), 33)])
        system = build_batch_system(corpus, model)
        row = np.zeros(5, dtype=np.int64)
        row[3] = 11  # 10 + 1
        assert np.array_equal(system.coeffs[0], row)

    def test_single_cell_equation(self):
        model = identity_model([7], k=10)
        corpus = corpus_from_grids([(np.array([[0]]), 4)])
        system = build_batch_system(corpus, model)
        assert system.coeffs[0, 7] == 1
        assert system.targets[0] == 4

    def test_row_sum_invariant(self, rng):
        # every row must sum to h * sum_j 10^(w-j); here w=2, h=3 -> 33
        labels = rng.integers(0, 10, 30)
        model = identity_model(labels, k=10)
        store = store_with_labels(labels)
        corpus = build_corpus(store, w=2, h=3, seed=0)
        system = build_batch_system(corpus, model)
        assert (system.coeffs.sum(axis=1) == 33).all()

    def test_unclustered_id_rejected(self):
        model = identity_model([1, 2], k=3)
        corpus = corpus_from_grids([(np.array([[0, 5]]), 12)])
        with pytest.raises(ConsistencyError):
            build_batch_system(corpus, model)

    def test_error_names_first_bad_example(self):
        model = identity_model([1, 2, 0], k=3)
        grids = [(np.array([[0, 1]]), 3), (np.array([[2, -1]]), 1), (np.array([[7, 0]]), 2)]
        with pytest.raises(ConsistencyError, match="example 1 "):
            build_batch_system(corpus_from_grids(grids), model)

    def test_mixed_shapes_match_per_example_reference(self, rng):
        # every shape up to 4 x 4, each its own corpus; ids repeat within
        # and across grids
        model = identity_model(rng.integers(0, 6, size=50), k=6)
        for h, w in itertools.product(range(1, 5), repeat=2):
            corpus = Corpus(rng.integers(0, 50, size=(10, h, w)), rng.integers(0, 10000, size=10))
            want = np.zeros((10, 6), dtype=np.int64)
            weights = 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
            for e, grid in enumerate(corpus.grids):
                np.add.at(want[e], model.assignment[grid].ravel(), np.tile(weights, h))
            system = build_batch_system(corpus, model)
            assert system.coeffs.dtype == np.int64 and system.targets.dtype == np.int64
            assert np.array_equal(system.coeffs, want)
            assert np.array_equal(system.targets, corpus.sums)

    def test_empty_list(self):
        system = build_batch_system(corpus_from_grids([]), identity_model([0, 1], k=4))
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


class TestStackedRankModP:
    """The stacked certificate: one elimination for every matrix of a stack
    gives each matrix's own rank, and a batch's certificate reads only its
    active columns."""

    @staticmethod
    def random_stack(rng):
        n_stack, n_rows, n_cols = (int(x) for x in rng.integers(1, 7, size=3))
        a = rng.integers(-3, 4, size=(n_stack, n_rows, n_cols))
        for m in a:
            if rng.random() < 0.3:
                m[:, rng.integers(n_cols)] = 0  # zero column
            if n_cols > 1 and rng.random() < 0.3:
                m[:, 0] = m[:, -1]  # duplicate column
            if rng.random() < 0.3:
                m[rng.integers(n_rows):] = 0  # padding rows at the end
            if rng.random() < 0.2:
                m *= 10**13  # entries above p
        return a

    def test_each_rank_matches_fraction_rank(self, rng):
        for _ in range(200):
            a = self.random_stack(rng)
            ranks = _rank_mod_p(a)
            assert ranks.shape == a.shape[:1]
            for m, r in zip(a, ranks):
                assert r == fraction_rank(m)

    def test_never_above_rank_over_q(self):
        # a column that is a multiple of p reads as zero: the rank mod p
        # falls short, which only sends a batch to the search
        a = np.array([[[_PRIME, 0], [0, 1]], [[1, 0], [0, 1]]])
        assert _rank_mod_p(a).tolist() == [1, 2]
        assert [fraction_rank(m) for m in a] == [2, 2]

    def test_entries_above_p_not_multiples(self, rng):
        for _ in range(100):
            a = rng.integers(-3, 4, size=(4, 5, 3)) * 10**13 + rng.integers(-3, 4, size=(4, 5, 3))
            for m, r in zip(a, _rank_mod_p(a)):
                assert r == fraction_rank(m)

    def test_stack_of_stacks(self, rng):
        a = rng.integers(-2, 3, size=(3, 2, 4, 3))
        ranks = _rank_mod_p(a)
        assert ranks.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            assert ranks[idx] == fraction_rank(a[idx])

    @pytest.mark.parametrize("batch_size", [1, 3, 4, 7, 40])
    def test_independent_batches_read_active_columns(self, rng, batch_size):
        # negative entries let a nonzero column have mass <= 0: it is not
        # active, and a certificate over every column would count its rank
        for _ in range(30):
            n_rows, k = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            coeffs = rng.integers(-3, 4, size=(n_rows, k))
            coeffs[:, rng.integers(k)] = 0
            got = _independent_batches(coeffs, batch_size)
            want = []
            for start in range(0, n_rows, batch_size):
                batch = coeffs[start : start + batch_size]
                active = batch.sum(axis=0) > 0
                want.append(fraction_rank(batch[:, active]) == active.sum())
            assert got.tolist() == want

    def test_inactive_nonzero_column_not_counted(self):
        # columns 0 and 1 are equal and active; column 2 is nonzero with
        # mass 0. Over all three columns the rank is 2, the number of active
        # columns, so a certificate that kept column 2 would pass
        dependent = np.array([[1, 1, 1], [1, 1, -1]])
        assert _independent_batches(dependent, 2).tolist() == [False]
        # and column 2's rank must not make an independent batch fail
        assert _independent_batches(np.array([[1, 1], [1, -1]]), 2).tolist() == [True]

    @staticmethod
    def all_rows_certificate(coeffs, batch_size):
        """The certificate ranked on every row of every batch."""
        flags = []
        for start in range(0, len(coeffs), batch_size):
            batch = coeffs[start : start + batch_size]
            active = batch.sum(axis=0) > 0
            flags.append(int(_rank_mod_p(batch * active)) == active.sum())
        return flags

    def test_prefix_certificate_matches_all_rows(self, rng, monkeypatch):
        # k = 10 and batches of 100 rows: the prefix is each batch's first 20
        k, rows = 10, 100
        full = rng.integers(0, 4, size=(rows, k))
        late = full.copy()
        late[: 2 * k, 5:] = 0  # columns 5.. appear only past the prefix
        twins = full.copy()
        twins[: 2 * k, 1] = twins[: 2 * k, 0]  # equal in the prefix only
        dependent = full.copy()
        dependent[:, 1] = dependent[:, 0]  # equal in every row
        sparse = np.zeros((rows, k), dtype=np.int64)
        sparse[rows - k :] = np.eye(k, dtype=np.int64)  # independent, prefix all zero
        short = dependent[: k + 3]  # a last batch shorter than the prefix
        coeffs = np.vstack([full, late, twins, dependent, sparse, short])
        ranked = []
        rank = asg._rank_mod_p
        monkeypatch.setattr(asg, "_rank_mod_p", lambda a: ranked.append(a.shape) or rank(a))
        got = _independent_batches(coeffs, rows)
        assert got.tolist() == self.all_rows_certificate(coeffs, rows)
        assert got.tolist() == [True, True, True, False, True, False]
        # the prefix decides the first batch; the rest, which it cannot
        # prove, are ranked on all their rows
        assert ranked == [(6, 2 * k, k), (5, rows, k)]

    def test_solve_corpus_candidates_match_standalone(self, monkeypatch):
        # each batch solve_corpus solves with its stacked certificate gives
        # the candidate solve_batch finds alone. Cluster c is digit c. The
        # middle batch pairs clusters 1 and 2: the warm digits (0, 1, 2) fit
        # it, but its columns are dependent, so the search must find the
        # lexicographically smaller (0, 0, 3)
        diagonal = [([[c], [c]], 2 * c) for c in (0, 1, 2, 0, 1)]
        pairs = diagonal + [([[1], [2]], 3)] * 5 + diagonal
        original, handed = asg.solve_batch, []

        def checked(system, initial_digits=None, independent=None):
            got = original(system, initial_digits, independent=independent)
            alone = original(system, initial_digits)
            assert got.digits.tolist() == alone.digits.tolist()
            assert got.objective == alone.objective
            handed.append((independent, got.digits.tolist()))
            return got

        monkeypatch.setattr(asg, "solve_batch", checked)
        solve_corpus(corpus_from_grids(pairs), identity_model(np.arange(3)), batch_size=5)
        assert handed == [(True, [0, 1, 2]), (False, [0, 0, 3]), (True, [0, 1, 2])]

    def test_solve_batch_certificate_matches_its_own(self, rng):
        # solve_corpus hands each batch its stacked certificate; solve_batch
        # without one searches, and both give the same candidate
        for _ in range(20):
            system = random_system(rng, k=4, n_rows=6)
            digits = rng.integers(0, 10, size=4)
            system.targets = system.coeffs @ digits
            cert = bool(_independent_batches(system.coeffs, 6)[0])
            a = solve_batch(system, initial_digits=digits)
            b = solve_batch(system, initial_digits=digits, independent=cert)
            assert a.digits.tolist() == b.digits.tolist() and a.objective == b.objective


class TestCompletionBound:
    def test_admissible_on_random_instances(self, rng):
        # the interval bound _Bounds.children gives each digit of the next
        # column never exceeds the true best completion cost, computed by
        # enumeration
        for _ in range(25):
            system = random_system(rng, k=3, n_rows=8)
            coeffs, targets = system.coeffs, system.targets
            bounds = _Bounds(coeffs, targets)
            n_fixed = int(rng.integers(0, 3))
            fixed_digits = rng.integers(0, 10, size=n_fixed)
            fixed = coeffs[:, :n_fixed] @ fixed_digits if n_fixed else np.zeros(
                8, dtype=np.int64
            )
            interval, _ = bounds.children(n_fixed, fixed)
            for d in range(10):
                head = fixed + coeffs[:, n_fixed] * d
                best = min(
                    int(np.abs(head + coeffs[:, n_fixed + 1 :] @ np.array(c) - targets).sum())
                    for c in itertools.product(range(10), repeat=2 - n_fixed)
                )
                assert interval[d] <= best

    def test_node_bound_admissible(self, rng):
        # the node bound never exceeds the true best completion cost; at
        # k=5 the ascent runs at every depth 0..2 drawn here
        for _ in range(25):
            system = random_system(rng, k=5, n_rows=8)
            coeffs, targets = system.coeffs, system.targets
            lam = dual_multipliers(coeffs, targets, np.zeros(5, dtype=np.int64))
            bounds = _Bounds(coeffs, targets)
            n_fixed = int(rng.integers(0, 3))
            fixed = coeffs[:, :n_fixed] @ rng.integers(0, 10, size=n_fixed)
            free = np.array(list(itertools.product(range(10), repeat=5 - n_fixed)))
            completions = fixed[:, None] + coeffs[:, n_fixed:] @ free.T
            best = int(np.abs(completions - targets[:, None]).sum(axis=0).min())
            node_bound, _ = bounds.node_bound(n_fixed, fixed, lam)
            assert node_bound <= best

    @pytest.mark.parametrize("k, gated", [(12, range(9, 12)), (6, range(4, 6))])
    def test_node_bound_gate(self, rng, k, gated):
        # the ascent runs at depth <= ASCENT_MAX_DEPTH with at least
        # ASCENT_MIN_FREE free columns; k=12 reaches the depth gate first,
        # k=6 the free-column gate. Elsewhere the bound is 0 and the
        # multipliers pass through unchanged.
        system = grid_system(rng, k, 8, 2, 2)
        coeffs, targets = system.coeffs, system.targets
        lam = dual_multipliers(coeffs, targets, np.zeros(k, dtype=np.int64))
        bounds = _Bounds(coeffs, targets)
        digits = rng.integers(0, 10, size=k)
        for j in range(k):
            fixed = coeffs[:, :j] @ digits[:j]
            got, got_lam = bounds.node_bound(j, fixed, lam)
            if j in gated:
                assert got == 0 and got_lam is lam
                continue
            # the ascent's multipliers, quantized to n/256, and the exact
            # rational value of their Lagrangian, rounded up
            free = coeffs[:, j:].astype(float)
            want_lam = asg._ascend(free, (fixed - targets).astype(float), lam,
                                   _Bounds.ASCENT_ITERS, 0.6, 0.6)
            quantized = np.clip(np.rint(want_lam * 256), -256, 256)
            mult = [Fraction(int(n), 256) for n in quantized]
            value = sum(m * int(f - s) for m, f, s in zip(mult, fixed, targets))
            for col in coeffs[:, j:].T:
                value += min(0, 9 * sum(m * int(a) for m, a in zip(mult, col)))
            assert np.array_equal(got_lam, want_lam)
            assert got == math.ceil(value)


class TestSolveBatch:
    def test_forced_single_variable(self):
        model = identity_model([7], k=10)
        corpus = corpus_from_grids([(np.array([[0]]), 4)])
        system = build_batch_system(corpus, model)
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
        system = build_batch_system(corpus, model)
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
        # the warm start (9, 0) is optimal, but its key ranks above (0, 9),
        # so the search must beat the warm key on rank alone, at equal
        # residual, down to (0, 9)
        system = BatchSystem(np.array([[1, 1]], dtype=np.int64), np.array([9], dtype=np.int64))
        got = solve_batch(system, initial_digits=np.array([9, 0]))
        assert got.objective == 0
        assert np.array_equal(got.digits, [0, 9])

    @pytest.mark.parametrize("scale", [1, 2])
    def test_tied_twin_columns_match_brute_force(self, rng, scale):
        # a warm start at the larger of two tied optima must be lowered to
        # the smaller, also when the search fixes the heavier, later
        # cluster's digit first
        warmed = 0
        for _ in range(20):
            system = twin_system(rng, int(rng.integers(2, 5)), int(rng.integers(1, 31)), scale)
            want_val, want_digits = brute_force(system)
            twin = larger_twin(want_digits, scale)
            warmed += twin is not None
            got = solve_batch(system, initial_digits=twin)
            assert got.objective == want_val
            assert np.array_equal(got.digits, want_digits)
        assert warmed >= 5

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
        got = solve_batch(system, initial_digits=np.array([3, 4, 7]), independent=True)
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


class TestOracleAtBatchShape:
    """The solver against exhaustive and MILP oracles on 100-row batches."""

    def test_chunked_brute_force_matches_brute_force(self, rng):
        for _ in range(4):
            system = random_system(rng, k=4, n_rows=int(rng.integers(1, 40)))
            got = chunked_brute_force(system, chunk=3_000)
            want_val, want_digits = brute_force(system)
            assert got[0] == want_val
            assert np.array_equal(got[1], want_digits)

    @pytest.mark.parametrize("source", ["grid", "planted-0.2", "planted-0.35"])
    def test_k6_matches_chunked_brute_force(self, source):
        if source == "grid":
            system = grid_system(np.random.default_rng(6), 6, 100, 2, 2)
        else:
            system = planted_batch(6, 6, float(source.split("-")[1]))
        assert system.coeffs.shape == (100, 6)
        got = solve_batch(system)
        want_val, want_digits = chunked_brute_force(system)
        assert want_val > 0  # the search ran: no zero-residual certificate
        assert got.objective == want_val
        assert np.array_equal(got.digits, want_digits)

    @pytest.mark.parametrize("scale", [1, 2])
    def test_k6_tied_twins_match_chunked_brute_force(self, scale):
        rng = np.random.default_rng(60 + scale)
        system = twin_system(rng, 6, 100, scale)
        want_val, want_digits = chunked_brute_force(system)
        twin = larger_twin(want_digits, scale)
        assert twin is not None
        got = solve_batch(system, initial_digits=twin)
        assert got.objective == want_val
        assert np.array_equal(got.digits, want_digits)

    @pytest.mark.parametrize("reassigned", [0.2, 0.35])
    def test_k10_matches_milp(self, reassigned):
        pytest.importorskip("scipy")
        system = planted_batch(10, 10, reassigned)
        assert system.coeffs.shape == (100, 10)
        got = solve_batch(system)
        f_star, digits = milp_lexicographic(system)
        assert int(residuals(system, digits).sum()) == f_star
        assert got.objective == f_star
        assert int(residuals(system, got.digits).sum()) == f_star
        assert np.array_equal(got.digits, digits)


def count_satisfied(assignment, corpus, model):
    """Corpus examples the assignment's digits satisfy exactly, as the vote counts them."""
    system = build_batch_system(corpus, model)
    return int((residuals(system, assignment.digits) == 0).sum())


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
        corpus.sums[:20] += rng.integers(1, 4, size=20)
        winner = solve_corpus(corpus, model, batch_size=20)
        assert winner.batch_index > 0
        assert np.array_equal(winner.digits, truth)
        unsatisfied = residuals(build_batch_system(corpus, model), truth)[:20] != 0
        assert winner.satisfied_count == len(corpus) - int(unsatisfied.sum())

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
            solve_corpus(corpus_from_grids([]), model, batch_size=100)

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
