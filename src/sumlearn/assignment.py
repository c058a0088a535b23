"""Exact cluster-to-digit assignment via branch and bound.

Each example contributes one linear equation: summing positional weights
10^(w-j) over grid cells, grouped by the cell image's cluster, gives an
integer row A[e] with Sum_c A[e][c] * v_c = s_e when the digit vector v is
right. A batch is solved to *global* optimality under the L1 residual
objective by depth-first branch and bound over the 10 bounded integer
variables, pruned by interval and Lagrangian bounds. One search serves
both phases: the first finds the optimum and a witness digit vector that
reaches it, the second lowers that witness, digit by digit, to the
lexicographically smallest optimum, which is the tie-break.

Most batches of a clean corpus need no search: when the warm start (the
previous batch's digits) leaves zero residual and the active columns of A
are linearly independent, A v = s has exactly one solution, so the warm
digits are the unique, hence lexicographically smallest, optimum. The rank
is decided exactly by elimination modulo a prime; a rank deficiency there
only sends the batch to the search. The search's integer bounds are exact
only while they fit int64; `solve_batch` rejects larger systems.

Batch candidates then vote: the one satisfying the most examples
corpus-wide wins.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError

_DIGITS = np.arange(10, dtype=np.int64)


@dataclass
class BatchSystem:
    coeffs: np.ndarray  # (B, k) int64, aggregated positional weights
    targets: np.ndarray  # (B,) int64 sums

    @property
    def n_examples(self):
        return self.coeffs.shape[0]

    @property
    def n_clusters(self):
        return self.coeffs.shape[1]


@dataclass
class DigitAssignment:
    digits: np.ndarray  # (k,) int64, each in [0, 9]
    objective: int  # L1 residual on the batch it was solved on
    satisfied_count: int = 0
    batch_index: int = 0

    def to_json(self):
        return {
            "digits": [int(d) for d in self.digits],
            "objective": int(self.objective),
            "satisfied": int(self.satisfied_count),
            "batch_index": int(self.batch_index),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            digits=np.asarray(obj["digits"], dtype=np.int64),
            objective=int(obj["objective"]),
            satisfied_count=int(obj["satisfied"]),
            batch_index=int(obj["batch_index"]),
        )

    def save(self, path, extra=None):
        obj = self.to_json()
        if extra:
            obj.update(extra)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


def build_batch_system(examples, model):
    """Aggregate positional weights per (example, cluster). Exact integers.

    One int64 scatter over the cells of all grids: the cell in column i of
    a width-w grid adds 10^(w-1-i) at (its example, its image's cluster).
    """
    k = model.k
    coeffs = np.zeros((len(examples), k), dtype=np.int64)
    targets = np.array([ex.sum for ex in examples], dtype=np.int64)
    if not examples:
        return BatchSystem(coeffs=coeffs, targets=targets)
    ids = np.concatenate([ex.grid.ravel() for ex in examples])
    sizes = np.array([ex.grid.size for ex in examples])
    row = np.repeat(np.arange(len(examples)), sizes)
    bad = (ids < 0) | (ids >= len(model))
    if bad.any():
        raise ConsistencyError(f"example {row[bad.argmax()]} references unclustered image ids")
    width = np.repeat([ex.w for ex in examples], sizes)
    cell = np.arange(ids.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    weights = 10 ** (width - 1 - cell % width)
    np.add.at(coeffs.ravel(), row * k + model.assignment[ids], weights)
    return BatchSystem(coeffs=coeffs, targets=targets)


def residuals(system, digits):
    """Per-example |A v - s|, exact int64."""
    digits = np.asarray(digits, dtype=np.int64)
    return np.abs(system.coeffs @ digits - system.targets)


_DUAL_SCALE = 256  # multipliers quantized to n/256 for exact integer bounds
_INT64_MAX = int(np.iinfo(np.int64).max)
_PRIME = 2_147_483_647  # 2^31 - 1: a product of two residues stays below 2^62


def _check_envelope(coeffs, targets):
    """Raise ValueError unless the search's int64 arithmetic is exact.

    With multipliers |n_e| <= 256, every integer the search forms is a
    partial sum of n_e * 9 * A_ej or a Lagrangian value n . (A x - s) at
    digits x in [0, 9], so its magnitude is at most
    256 * max(9 * Sum|A|, Sum_e max_x |(A x - s)_e|). A cheap bound,
    256 * (9 * max|A| * size(A) + max|s| * size(s)), settles small systems;
    wider ones are measured exactly in Python integers.
    """
    a, s = np.abs(coeffs), np.abs(targets)
    quick = 9 * int(a.max(initial=0)) * a.size + int(s.max(initial=0)) * s.size
    if _DUAL_SCALE * quick <= _INT64_MAX:
        return
    a, s = coeffs.astype(object), targets.astype(object)
    hi = abs(9 * np.maximum(a, 0).sum(axis=1) - s)
    lo = abs(9 * np.minimum(a, 0).sum(axis=1) - s)
    worst = _DUAL_SCALE * max(9 * np.abs(a).sum(), np.maximum(hi, lo).sum())
    if worst > _INT64_MAX:
        raise ValueError(
            f"batch too large for exact int64 bounds: magnitudes reach {worst} > 2^63 - 1; "
            "use fewer rows or a narrower grid"
        )


def _rank_mod_p(a):
    """Rank of an integer matrix modulo the prime 2^31 - 1, exactly.

    Gaussian elimination on the columns in int64. A rank mod p is never
    above the rank over Q, so full column rank mod p proves it over Q.
    """
    cols = np.asarray(a, dtype=np.int64).T % _PRIME
    rank = 0
    for j in range(cols.shape[0]):
        pivots = np.flatnonzero(cols[j])
        if pivots.size == 0:
            continue
        i = pivots[0]
        rank += 1
        scale = cols[j + 1 :, i] * pow(int(cols[j, i]), _PRIME - 2, _PRIME) % _PRIME
        cols[j + 1 :] -= np.outer(scale, cols[j])
        cols[j + 1 :] %= _PRIME
    return rank


def _ascend(free, fdiff, lam, evals, rate, power):
    """Projected supergradient ascent on the Lagrangian dual of min |A x + f|.

    Maximizes g(lam) = sum(min(0, 9 * free.T @ lam)) + lam @ fdiff over
    lam in [-1,1]^B, with free digits in [0, 9] relaxed independently.
    Evaluates at most `evals` points with step rate / (1+t)^power and
    returns the best one.
    """
    best_lam, best_val = lam, -np.inf
    for t in range(evals):
        u = free.T @ lam
        val = np.minimum(0.0, 9.0 * u).sum() + lam @ fdiff
        if val > best_val:
            best_val, best_lam = val, lam
        if t == evals - 1:
            break
        grad = free @ np.where(u < 0, 9.0, 0.0) + fdiff
        norm = np.abs(grad).max()
        if norm == 0:
            break
        lam = np.clip(lam + rate / (1 + t) ** power * grad / norm, -1.0, 1.0)
    return best_lam


def _quantize(lam):
    n = np.clip(np.rint(lam * _DUAL_SCALE), -_DUAL_SCALE, _DUAL_SCALE)
    return n.astype(np.int64)


def dual_multipliers(coeffs, targets, warm_digits, iters=60):
    """Quantized Lagrangian multipliers n with lambda = n/256 in [-1,1]^B.

    Since |x| >= lambda*x for any lambda in [-1,1], every such vector yields
    an admissible bound; projected supergradient ascent only improves its
    quality. Returns int64 numerators and the float multipliers.
    """
    if targets.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    a = coeffs.astype(np.float64)
    s = targets.astype(np.float64)
    lam = np.sign(a @ warm_digits - s)  # subgradient of |.| at the incumbent
    best_lam = _ascend(a, -s, lam, iters + 1, 0.5, 0.7)
    return _quantize(best_lam), best_lam


class _Bounds:
    """Search context over mass-ordered columns: admissible lower bounds.

    Per child (digit choice) the cheap bound is the max of the per-example
    interval distance (free digits relaxed independently) and a static
    Lagrangian bound from quantized root multipliers. At shallow nodes a
    short warm-started multiplier ascent produces a much tighter bound; any
    prune decision is taken only on the exact integer evaluation of the
    quantized multipliers, never on float values.
    """

    ASCENT_MAX_DEPTH = 8
    ASCENT_MIN_FREE = 3
    ASCENT_ITERS = 16

    def __init__(self, coeffs, targets, dual_n):
        self.coeffs = coeffs
        self.targets = targets
        self.n_cols = coeffs.shape[1]
        m = self.n_cols
        # slack9[j] = 9 * coeffs[:, j:].sum(1)
        self.slack9 = np.zeros((m + 1, coeffs.shape[0]), dtype=np.int64)
        for j in range(m - 1, -1, -1):
            self.slack9[j] = self.slack9[j + 1] + 9 * coeffs[:, j]
        self.u256 = coeffs.T @ dual_n  # exact int64
        self.dual_n = dual_n
        self.const256 = -int(dual_n @ targets)
        self.suffmin256 = np.zeros(m + 1, dtype=np.int64)
        for j in range(m - 1, -1, -1):
            self.suffmin256[j] = self.suffmin256[j + 1] + min(0, 9 * int(self.u256[j]))
        self.coeffs_f = coeffs.astype(np.float64)
        self.targets_f = targets.astype(np.float64)

    def root_fixed(self, fixed):
        return int(self.dual_n @ fixed)

    def children(self, j, fixed, nfx256):
        """Cheap bounds and state for the 10 digit choices of column j.

        `interval` is each target's distance to [fixed, fixed + slack9],
        the range every completion of columns j+1.. can reach.
        """
        col = self.coeffs[:, j]
        fx = fixed[:, None] + np.outer(col, _DIGITS)
        lo = fx - self.targets[:, None]
        hi = self.targets[:, None] - (fx + self.slack9[j + 1][:, None])
        interval = np.maximum(0, np.maximum(lo, hi)).sum(axis=0)

        nfx_children = nfx256 + _DIGITS * int(self.u256[j])
        lag256 = nfx_children + self.suffmin256[j + 1] + self.const256
        lagrangian = -((-lag256) // _DUAL_SCALE)  # ceil division, admissible
        return interval, np.maximum(interval, lagrangian), fx, nfx_children

    def use_ascent(self, j):
        return j <= self.ASCENT_MAX_DEPTH and self.n_cols - j >= self.ASCENT_MIN_FREE

    def ascent_bound(self, j, fixed, lam):
        """Node bound via short multiplier ascent on the free suffix.

        Returns (exact integer bound, improved multipliers). The float
        ascent only steers the search for good multipliers; the returned
        bound is evaluated exactly from their quantization.
        """
        free = self.coeffs_f[:, j:]
        best_lam = _ascend(free, fixed - self.targets_f, lam, self.ASCENT_ITERS, 0.6, 0.6)
        n = _quantize(best_lam)
        u256 = self.coeffs[:, j:].T @ n
        b256 = int(n @ fixed) + int(np.minimum(0, 9 * u256).sum()) - int(n @ self.targets)
        return -((-b256) // _DUAL_SCALE), best_lam


def _search(bounds, fixed, lam, best, stop=-1):
    """Depth-first branch and bound over the free columns.

    Returns the best L1 residual below `best` and the per-column digits
    reaching it (None if no completion beats `best`). Stops at the first
    leaf whose residual is at or under `stop`.
    """
    m = bounds.n_cols
    path = np.zeros(m, dtype=np.int64)
    found = None

    def rec(j, fx, nfx, lam):
        nonlocal best, found
        if j == m:
            val = int(np.abs(fx - bounds.targets).sum())
            if val < best:
                best, found = val, path.copy()
            return best <= stop
        if bounds.use_ascent(j):
            node_bound, lam = bounds.ascent_bound(j, fx, lam)
            if node_bound >= best:
                return False
        order_key, child, fxs, nfxs = bounds.children(j, fx, nfx)
        for d in np.argsort(order_key, kind="stable"):
            if order_key[d] >= best:
                break  # ascending order: remaining digits prune too
            if child[d] >= best:
                continue
            path[j] = d
            if rec(j + 1, fxs[:, d], int(nfxs[d]), lam):
                return True
        return False

    rec(0, fixed, bounds.root_fixed(fixed), lam)
    return best, found


def solve_batch(system, initial_digits=None):
    """Globally optimal digit vector for one batch.

    If the warm start leaves zero residual and the active columns of A
    (clusters present in the batch) are linearly independent, A v = s has
    exactly one solution: the warm digits are the unique optimum and are
    returned on the active clusters without any search.

    Otherwise phase 1 finds the optimal objective f* by depth-first branch
    and bound: columns in descending mass order, children explored
    best-bound-first, nodes pruned when their bound reaches the incumbent.
    It also returns a witness, an optimal digit vector: the warm (or
    all-zero) start unless a leaf beat it. Phase 2 lowers the witness to
    the lexicographically smallest optimum: cluster by cluster, in index
    order, it searches only digits below the witness's for one that still
    completes to f*. The first that does is kept and its completion becomes
    the witness; otherwise the witness's digit stands.

    Clusters absent from the batch get digit 0. Raises ValueError if the
    system is too large for the search's exact int64 bounds.
    """
    coeffs, targets = system.coeffs, system.targets
    _check_envelope(coeffs, targets)
    k = system.n_clusters
    mass = coeffs.sum(axis=0)
    active = [int(c) for c in np.argsort(-mass, kind="stable") if mass[c] > 0]

    warm = np.zeros(k, dtype=np.int64)  # all-zero digits, always achievable
    incumbent = int(np.abs(targets).sum())
    if initial_digits is not None:
        warm_obj = int(residuals(system, initial_digits).sum())
        if warm_obj < incumbent:
            warm = np.asarray(initial_digits, dtype=np.int64)
            incumbent = warm_obj
    if incumbent == 0 and _rank_mod_p(coeffs[:, active]) == len(active):
        digits = np.zeros(k, dtype=np.int64)
        digits[active] = warm[active]
        return DigitAssignment(digits=digits, objective=0)
    dual_n, lam = dual_multipliers(coeffs, targets, warm)

    zero = np.zeros_like(targets)
    bounds = _Bounds(coeffs[:, active], targets, dual_n)
    f_star, cols = _search(bounds, zero, lam, incumbent)
    witness = warm.copy()
    if cols is not None:
        witness[active] = cols

    digits = np.zeros(k, dtype=np.int64)
    fixed = zero
    undecided = list(active)
    for c in sorted(active):
        undecided.remove(c)
        if witness[c]:
            rest = _Bounds(coeffs[:, undecided], targets, dual_n)
        for d in range(witness[c]):
            fx = fixed + coeffs[:, c] * d
            _, cols = _search(rest, fx, lam, f_star + 1, stop=f_star)
            if cols is not None:
                witness[c] = d
                witness[undecided] = cols
                break
        digits[c] = witness[c]
        fixed = fixed + coeffs[:, c] * digits[c]

    return DigitAssignment(digits=digits, objective=f_star)


def count_satisfied(assignment, corpus, model):
    """Number of corpus examples whose residual is exactly zero."""
    system = build_batch_system(corpus.examples, model)
    return int((residuals(system, assignment.digits) == 0).sum())


def solve_corpus(corpus, model, batch_size=100):
    """Solve contiguous batches independently, then vote corpus-wide.

    The winner is the batch candidate satisfying the most examples over
    the whole corpus; ties break toward lower corpus L1 residual, then
    lower batch index.
    """
    if not corpus.examples:
        raise ValueError("corpus is empty")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    full = build_batch_system(corpus.examples, model)
    candidates = []
    warm = None
    for start in range(0, full.n_examples, batch_size):
        sub = BatchSystem(
            coeffs=full.coeffs[start : start + batch_size],
            targets=full.targets[start : start + batch_size],
        )
        cand = solve_batch(sub, initial_digits=warm)
        cand.batch_index = len(candidates)
        candidates.append(cand)
        warm = cand.digits

    # equal digits score equally, so score each distinct vector once, at
    # its first (lowest) batch index
    stacked = np.stack([c.digits for c in candidates])  # (nb, k)
    distinct, first = np.unique(stacked, axis=0, return_index=True)
    res = np.abs(full.coeffs @ distinct.T - full.targets[:, None])
    satisfied = (res == 0).sum(axis=0)
    total_residual = res.sum(axis=0)
    best = np.lexsort((first, total_residual, -satisfied))[0]
    winner = candidates[int(first[best])]
    winner.satisfied_count = int(satisfied[best])
    return winner
