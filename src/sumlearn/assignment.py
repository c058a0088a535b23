"""Exact cluster-to-digit assignment via branch and bound.

Each example contributes one linear equation: summing positional weights
10^(w-j) over grid cells, grouped by the cell image's cluster, gives an
integer row A[e] with Sum_c A[e][c] * v_c = s_e when the digit vector v is
right. A batch is solved to *global* optimality under the L1 residual
objective, ties broken toward the lexicographically smallest digit vector,
by one depth-first branch and bound over the 10 bounded integer variables.
It minimizes the integer key residual * 10^m + rank, where rank reads the
m active clusters' digits, in cluster index order, as one decimal number.
A node is pruned when a bound on its residual, times 10^m, plus the rank
of its fixed digits reaches the best key: an interval bound on each child,
and a Lagrangian bound on each shallow node.

Most batches of a clean corpus need no search: when the warm start (the
previous batch's digits) leaves zero residual and the active columns of A
are linearly independent, A v = s has exactly one solution, so the warm
digits are the unique, hence lexicographically smallest, optimum. The rank
is decided exactly by elimination modulo a prime that scales rows by the
pivot instead of dividing; a rank deficiency there only sends the batch to
the search. `solve_corpus` decides it for every batch of the corpus in one
stacked elimination over each batch's first 2k rows (the short last batch
padded with zero rows, inactive columns zeroed) and a second over all the
rows of the batches the first does not prove, and hands each batch its
answer; `solve_batch` takes the certificate only from its caller. The
search's root multipliers are the warm start's subgradient, and its
integer bounds are exact only while they fit int64; `solve_batch` rejects
larger systems.

Batch candidates then vote: the one satisfying the most examples
corpus-wide wins.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dataset import _INT64_MAX, check_image_ids, grid_cells
from .tensorfile import json_int, save_json

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
        """The assignment `to_json` wrote. A missing key, or a value of the
        wrong type, is refused with a ValueError naming it."""
        if not isinstance(obj, dict) or "digits" not in obj:
            raise ValueError("not an assignment: no key 'digits'")
        digits = obj["digits"]
        if not isinstance(digits, list):
            raise ValueError(f"digits must be a list, got {digits!r}")
        for cluster, digit in enumerate(digits):
            if isinstance(digit, bool) or not isinstance(digit, int) or not 0 <= digit <= 9:
                raise ValueError(f"cluster {cluster} has digit {digit!r}, not an int in 0..9")
        return cls(
            digits=np.asarray(digits, dtype=np.int64),
            objective=json_int(obj, "objective"),
            satisfied_count=json_int(obj, "satisfied"),
            batch_index=json_int(obj, "batch_index"),
        )

    def save(self, path, extra=None):
        save_json(path, {**self.to_json(), **(extra or {})})

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(json.load(f))


def build_batch_system(corpus, model):
    """Aggregate positional weights per (example, cluster). Exact integers.

    One int64 scatter over the cells of all grids: the cell in column i of
    a width-w grid adds 10^(w-1-i) at (its example, its image's cluster).
    The targets are the corpus's sums.
    """
    k = model.k
    coeffs = np.zeros((len(corpus), k), dtype=np.int64)
    row, ids, weights = grid_cells(corpus)
    check_image_ids(row, ids, len(model))
    np.add.at(coeffs.ravel(), row * k + model.assignment[ids], weights)
    return BatchSystem(coeffs=coeffs, targets=corpus.sums)


def residuals(system, digits):
    """Per-example |A v - s|, exact int64."""
    digits = np.asarray(digits, dtype=np.int64)
    return np.abs(system.coeffs @ digits - system.targets)


_DUAL_SCALE = 256  # multipliers quantized to n/256 for exact integer bounds
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
    """Ranks of a stack (..., B, m) of integer matrices modulo the prime
    2^31 - 1, exactly; a 2-D matrix is a stack of one.

    Gaussian elimination on the columns in int64, every matrix of the stack
    at once, without division: a column's pivot is its first nonzero entry,
    and each later column is scaled by it before the pivot column's multiple
    is subtracted (a zero column changes nothing). A rank mod p is never
    above the rank over Q, so full column rank mod p proves it over Q.
    """
    cols = np.swapaxes(np.asarray(a, dtype=np.int64), -1, -2) % _PRIME  # (..., m, B)
    rank = np.zeros(cols.shape[:-2], dtype=np.int64)
    if cols.shape[-1] == 0:
        return rank
    for j in range(cols.shape[-2]):
        col, rest = cols[..., j, :], cols[..., j + 1 :, :]
        at = (col != 0).argmax(axis=-1)[..., None]
        pivot = np.take_along_axis(col, at, axis=-1)  # (..., 1)
        rank += pivot[..., 0] != 0
        scale = np.take_along_axis(rest, at[..., None], axis=-1)  # (..., m-j-1, 1)
        rest *= np.maximum(pivot, 1)[..., None]
        rest -= scale * col[..., None, :]
        rest %= _PRIME
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


def dual_multipliers(coeffs, targets, warm_digits):
    """Root Lagrangian multipliers, floats: sign(A warm - s), the subgradient
    of |A x - s| at the warm start. Any lambda in [-1,1]^B gives an admissible
    bound, since |x| >= lambda*x; the root node's ascent starts from these.
    """
    return np.sign(coeffs @ warm_digits - targets).astype(np.float64)


class _Bounds:
    """Search context over mass-ordered columns: admissible lower bounds on
    the residual, one per search level.

    Each child (digit choice) gets the interval bound: free digits relaxed
    independently, per example. Each shallow node gets a Lagrangian bound
    from a short warm-started multiplier ascent; its prune decision is
    taken only on the exact integer evaluation of the quantized
    multipliers, never on float values.
    """

    ASCENT_MAX_DEPTH = 8
    ASCENT_MIN_FREE = 3
    ASCENT_ITERS = 16

    def __init__(self, coeffs, targets):
        self.coeffs = coeffs
        self.targets = targets
        self.n_cols = coeffs.shape[1]
        m = self.n_cols
        # slack9[j] = 9 * coeffs[:, j:].sum(1); row m is the empty suffix
        self.slack9 = np.zeros((m + 1, coeffs.shape[0]), dtype=np.int64)
        self.slack9[:m] = np.cumsum(9 * coeffs.T[::-1], axis=0)[::-1]
        self.coeffs_f = coeffs.astype(np.float64)
        self.targets_f = targets.astype(np.float64)

    def children(self, j, fixed):
        """Interval bounds and partial sums for the 10 digit choices of column j.

        A child's bound sums each target's distance to [fixed, fixed +
        slack9], the range every completion of columns j+1.. can reach.
        """
        col = self.coeffs[:, j]
        fx = fixed[:, None] + np.outer(col, _DIGITS)
        lo = fx - self.targets[:, None]
        hi = self.targets[:, None] - (fx + self.slack9[j + 1][:, None])
        return np.maximum(0, np.maximum(lo, hi)).sum(axis=0), fx

    def node_bound(self, j, fixed, lam):
        """Bound on the node whose columns before j sum to `fixed`, and the
        multipliers its children start from.

        Above depth ASCENT_MAX_DEPTH or with fewer than ASCENT_MIN_FREE free
        columns it is (0, lam). Elsewhere a short multiplier ascent on the
        free suffix steers the search for good multipliers, and the
        returned bound is evaluated exactly from their quantization.
        """
        if j > self.ASCENT_MAX_DEPTH or self.n_cols - j < self.ASCENT_MIN_FREE:
            return 0, lam
        free = self.coeffs_f[:, j:]
        best_lam = _ascend(free, fixed - self.targets_f, lam, self.ASCENT_ITERS, 0.6, 0.6)
        n = _quantize(best_lam)
        u = self.coeffs[:, j:].T @ n
        scaled = int(n @ fixed) + int(np.minimum(0, 9 * u).sum()) - int(n @ self.targets)
        return -((-scaled) // _DUAL_SCALE), best_lam  # ceil division, admissible


def _search(bounds, place, lam, best_key):
    """Depth-first branch and bound for the smallest key below `best_key`.

    A leaf's key is residual * 10^m + Sum_j path[j] * place[j], in Python
    integers; free digits add rank >= 0, so a node's fixed rank bounds its
    leaves'. Returns the best key and the per-column digits reaching it
    (None if no leaf beats `best_key`).
    """
    m = bounds.n_cols
    scale = 10**m
    path = np.zeros(m, dtype=np.int64)
    found = None

    def rec(j, fx, rank, lam):
        nonlocal best_key, found
        if j == m:
            key = int(np.abs(fx - bounds.targets).sum()) * scale + rank
            if key < best_key:
                best_key, found = key, path.copy()
            return
        node, lam = bounds.node_bound(j, fx, lam)
        if node * scale + rank >= best_key:
            return
        child, fxs = bounds.children(j, fx)
        bound = child.tolist()
        for d in np.argsort(child, kind="stable").tolist():
            if bound[d] * scale + rank >= best_key:
                break  # ascending order: remaining digits prune too
            child_rank = rank + d * place[j]
            if bound[d] * scale + child_rank >= best_key:
                continue
            path[j] = d
            rec(j + 1, fxs[:, d], child_rank, lam)

    rec(0, np.zeros_like(bounds.targets), 0, lam)
    return best_key, found


def solve_batch(system, initial_digits=None, independent=False):
    """Globally optimal, lexicographically smallest digit vector for one batch.

    If the warm start leaves zero residual and the active columns of A
    (clusters present in the batch) are linearly independent, A v = s has
    exactly one solution: the warm digits are the unique optimum and are
    returned on the active clusters without any search. `independent` is
    that certificate, from the caller (`solve_corpus` takes every batch's
    at once); without it the search proves the same optimum.

    Otherwise one search for the smallest key residual * 10^m + rank over
    the m active clusters starts from the warm (or all-zero) start's key,
    with its subgradient as the root multipliers. It fixes columns in
    descending mass order, children best-bound first.

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
    digits = np.zeros(k, dtype=np.int64)
    if incumbent == 0 and independent:
        digits[active] = warm[active]
        return DigitAssignment(digits=digits, objective=0)
    lam = dual_multipliers(coeffs, targets, warm)

    m = len(active)
    place = [10 ** sum(a > c for a in active) for c in active]  # 10^(later active clusters)
    warm_rank = sum(int(warm[c]) * p for c, p in zip(active, place))
    bounds = _Bounds(coeffs[:, active], targets)
    best_key, cols = _search(bounds, place, lam, incumbent * 10**m + warm_rank)
    digits[active] = warm[active] if cols is None else cols
    return DigitAssignment(digits=digits, objective=best_key // 10**m)


def _independent_batches(coeffs, batch_size):
    """Per contiguous batch of rows: are its active columns (mass > 0)
    linearly independent? One stacked rank certificate for all batches.

    The short last batch is padded with zero rows, which add no rank, and
    each batch's inactive columns are zeroed, so its rank is its active
    columns' rank. Each batch's first 2k rows are ranked first: since
    rank(prefix) <= rank(batch) <= active, a prefix whose rank mod p is the
    active count proves the batch independent. Only the batches it does not
    prove are ranked on all their rows, so every answer is the all-rows one.
    """
    n, k = coeffs.shape
    rows = min(batch_size, n)
    n_batches = -(-n // rows)
    stack = np.zeros((n_batches * rows, k), dtype=np.int64)
    stack[:n] = coeffs
    stack = stack.reshape(n_batches, rows, k)
    active = stack.sum(axis=1) > 0  # (n_batches, k)
    stack *= active[:, None, :]
    n_active = active.sum(axis=1)
    independent = _rank_mod_p(stack[:, : 2 * k]) == n_active
    if rows > 2 * k:
        rest = np.flatnonzero(~independent)
        independent[rest] = _rank_mod_p(stack[rest]) == n_active[rest]
    return independent


def solve_corpus(corpus, model, batch_size):
    """Solve contiguous batches of `batch_size` examples independently,
    then vote corpus-wide.

    The winner is the batch candidate satisfying the most examples over
    the whole corpus; ties break toward lower corpus L1 residual, then
    lower batch index.
    """
    if not len(corpus):
        raise ValueError("corpus is empty")

    full = build_batch_system(corpus, model)
    independent = _independent_batches(full.coeffs, batch_size)
    candidates = []
    warm = None
    for batch, start in enumerate(range(0, full.n_examples, batch_size)):
        sub = BatchSystem(
            coeffs=full.coeffs[start : start + batch_size],
            targets=full.targets[start : start + batch_size],
        )
        cand = solve_batch(sub, initial_digits=warm, independent=bool(independent[batch]))
        cand.batch_index = batch
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
