"""Label repair by constraint propagation over the sum equations.

Starting from the cluster-derived labels, images close to their centroid
are trusted (radius schedule over per-cluster distance quantiles); any
example left with exactly one untrusted image has that image's digit
forced by its equation. Resolutions take effect immediately, so one pass
can cascade, and passes repeat to a fixpoint before the radius grows.

Propagation is event-driven. `run_inference` indexes the corpus once: each
(example, distinct image) pair with the summed positional weight of the
image's cells, in example order for exact int64 per-example sums and by
image, so the examples holding an image are one slice. Per example it
keeps the number of distinct untrusted images, their total weight, the sum
of their ids (the sole one's id when one is left) and the trusted partial
sum of weight * label; trusted labels never change, so the partial sum
stays valid. A pass visits only the examples queued for it, in index
order: after a radius step, every example with one untrusted image; after
a resolution, each example whose count drops to 1, queued in the current
pass if its index is above the resolving example's and in the next pass
otherwise. That is the order in which a sequential pass over all examples
would meet them, so labels, the inconsistent set and the number of passes
are the same, while the work is proportional to the resolutions and the
pairs they touch instead of examples times passes.

A pass first resolves, with array operations, its queued examples whose
one untrusted image no other example holds. Such an example's counters
change only when that image resolves, and resolving it changes no other
example's counters, so doing it first commutes with the sequential loop
that visits the rest. In a corpus of oversample factor 1 every image has
one holder, and that loop has nothing left to visit.
"""

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .clustering import distance_percentiles
from .dataset import check_image_ids, grid_cells
from .tensorfile import json_int, load_int64, save_int64, save_json

PROV_CLUSTER = 0  # the cluster's digit, untrusted; every other tag is trusted
PROV_RADIUS = 1
PROV_INFERRED = 2

PROVENANCES = ("cluster", "radius", "inferred")  # indexed by tag

# radius r trusts each cluster's (20 r)-percentile; read at call time, and
# pipeline's infer key hashes it
RADII = (1, 2, 3, 4, 5)


@dataclass
class LabelState:
    labels: np.ndarray  # (N,) int64 digits
    provenance: np.ndarray  # (N,) int8, PROV_* tags; trusted unless PROV_CLUSTER
    inconsistent_examples: set = field(default_factory=set)
    radii: list = field(default_factory=list)  # one record per radius run_inference ran

    def counts(self):
        out = {name: int((self.provenance == tag).sum()) for tag, name in enumerate(PROVENANCES)}
        out["correct"] = len(self.provenance) - out["cluster"]  # the trusted images
        out["inconsistent_examples"] = len(self.inconsistent_examples)
        out["inference_radii"] = list(self.radii)
        return out


def init_labels(model, assignment):
    """label(img) = digits[cluster(img)]; nothing trusted yet."""
    digits = np.asarray(assignment.digits, dtype=np.int64)
    if digits.shape[0] < model.k:
        raise ValueError(
            f"assignment covers {digits.shape[0]} clusters, model has {model.k}"
        )
    return LabelState(
        labels=digits[model.assignment],
        provenance=np.full(len(model), PROV_CLUSTER, dtype=np.int8),
    )


def _distance_runs(model):
    """Each cluster's member distances to its centroid, one array per
    cluster (empty for an empty cluster). One stable argsort (a radix sort
    for k < 65,536 on the narrowed assignment) makes each cluster's
    distances one run, in index order."""
    order = np.argsort(model.assignment.astype(np.min_scalar_type(model.k)), kind="stable")
    counts = np.bincount(model.assignment, minlength=model.k)
    return np.split(model.distance[order], np.cumsum(counts)[:-1])


def images_within_radius(model, radius, runs=None):
    """Ids of images within the (radius*20)-percentile of their own
    cluster's centroid-distance distribution. radius=5 covers everything.

    `runs` is `_distance_runs(model)`, built here when not given; a caller
    that asks for several radii builds it once."""
    if radius not in RADII:
        raise ValueError(f"radius must be in 1..5, got {radius}")
    q = radius * 20 / 100.0
    if runs is None:
        runs = _distance_runs(model)
    # empty clusters have no member to compare
    thresholds = np.array([distance_percentiles(run, q) if run.size else 0.0 for run in runs])
    return np.flatnonzero(model.distance <= thresholds[model.assignment])


def _forced_digit(numerator, weight):
    """The digit d with d * weight == numerator, or None when no integer
    in 0..9 satisfies it (Python ints)."""
    digit, remainder = divmod(numerator, weight)
    return digit if remainder == 0 and 0 <= digit <= 9 else None


class _Propagation:
    """The corpus index, the per-example counters and the pass queue."""

    def __init__(self, corpus, n_images):
        self.targets = corpus.sums
        self.sums = corpus.sums.tolist()
        ex_ids, img_ids, weights = grid_cells(corpus)
        check_image_ids(ex_ids, img_ids, n_images)
        # one entry per (example, distinct image) pair, in example order;
        # grid_cells lists the cells by example, so the stable sort has
        # little to do
        key = ex_ids * n_images + img_ids
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        self.pair_ex, self.pair_img = ex_ids[order][starts], img_ids[order][starts]
        self.pair_weight = np.add.reduceat(weights[order], starts)
        # every example holds an image, so each is one nonempty segment
        self.example_starts = np.flatnonzero(np.diff(self.pair_ex, prepend=-1))
        # the same pairs by image: the examples holding an image are a slice
        by_image = np.argsort(self.pair_img * len(self.sums) + self.pair_ex)
        self.holders = self.pair_ex[by_image].tolist()
        self.holder_weights = self.pair_weight[by_image].tolist()
        start = np.searchsorted(self.pair_img[by_image], np.arange(n_images + 1))
        self.start = start.tolist()
        self.single = np.diff(start) == 1  # images held by one example only

    def restart(self, state):
        """Count every example afresh from state; the next pass visits every
        example with exactly one untrusted image."""
        untrusted = state.provenance[self.pair_img] == PROV_CLUSTER

        def per_example(values):
            # exact int64 segment sums; float bincount weights would round
            # past 2^53, which partial sums reach for w >= 16
            return np.add.reduceat(values, self.example_starts)

        count = np.bincount(self.pair_ex[untrusted], minlength=len(self.sums))
        self.count = count.tolist()
        self.weight = per_example(np.where(untrusted, self.pair_weight, 0)).tolist()
        self.id_sum = per_example(np.where(untrusted, self.pair_img, 0)).tolist()
        self.partial = per_example(np.where(untrusted, 0, self.pair_weight * state.labels[self.pair_img])).tolist()
        self.queue = np.flatnonzero(count == 1).tolist()

    def resolve_single_holders(self, state):
        """Resolve the queued examples whose one untrusted image no other
        example holds, with array operations, and leave the rest queued;
        returns whether anything resolved."""
        queue = self.queue

        def gather(values):
            return np.fromiter(map(values.__getitem__, queue), np.int64, len(queue))

        imgs = gather(self.id_sum)
        bulk = (gather(self.count) == 1) & self.single[imgs]
        if not bulk.any():
            return False
        examples, imgs, weights = np.array(queue)[bulk], imgs[bulk], gather(self.weight)[bulk]
        digits, remainders = np.divmod(self.targets[examples] - gather(self.partial)[bulk], weights)
        forced = (remainders == 0) & (digits >= 0) & (digits <= 9)  # as _forced_digit
        state.inconsistent_examples.update(examples[~forced].tolist())
        state.labels[imgs[forced]] = digits[forced]
        state.provenance[imgs[forced]] = PROV_INFERRED
        for e, w, digit in zip(examples[forced].tolist(), weights[forced].tolist(), digits[forced].tolist()):
            self.count[e], self.weight[e], self.id_sum[e] = 0, 0, 0
            self.partial[e] += w * digit
        self.queue = [e for e, resolved in zip(queue, bulk.tolist()) if not resolved]
        return bool(forced.any())

    def run_pass(self, state):
        """Resolve this pass's single-holder examples in bulk, then visit
        the rest of its queue in index order; returns whether anything
        resolved."""
        changed = self.resolve_single_holders(state)
        queue, later = self.queue, []
        count, weight, id_sum, partial = self.count, self.weight, self.id_sum, self.partial
        while queue:
            e = heapq.heappop(queue)
            if count[e] != 1:
                continue
            digit = _forced_digit(self.sums[e] - partial[e], weight[e])
            if digit is None:
                state.inconsistent_examples.add(e)
                continue
            img = id_sum[e]
            state.labels[img] = digit
            state.provenance[img] = PROV_INFERRED
            changed = True
            for k in range(self.start[img], self.start[img + 1]):
                other, w = self.holders[k], self.holder_weights[k]
                count[other] -= 1
                weight[other] -= w
                id_sum[other] -= img
                partial[other] += w * digit
                if count[other] == 1:
                    if other > e:
                        heapq.heappush(queue, other)
                    else:
                        later.append(other)
        self.queue = sorted(later)
        return changed


def infer_correct_labels(state, corpus, propagation=None):
    """One pass over the corpus in order; returns whether anything resolved.

    Resolutions apply immediately, so an image trusted early in the pass
    can unlock later examples within the same pass. `run_inference` passes
    the `propagation` that carries the index, counters and queue from pass
    to pass; without one, the corpus is indexed and counted from `state`,
    and the pass visits every example that has one untrusted image.
    """
    if propagation is None:
        propagation = _Propagation(corpus, state.labels.shape[0])
        propagation.restart(state)
    return propagation.run_pass(state)


def run_inference(state, corpus, model):
    """The RADII schedule around repeated propagation to fixpoint.

    Images pulled in by a radius keep their current labels; inferred
    labels are never overwritten by later radii. Each radius appends to
    state.radii the images it trusted, the images inferred after it, the
    examples newly found inconsistent and the passes it took. A corpus
    image id the model does not have is a ConsistencyError that names the
    example.
    """
    propagation = _Propagation(corpus, state.labels.shape[0])
    runs = _distance_runs(model)
    for radius in RADII:
        ids = images_within_radius(model, radius, runs)
        fresh = ids[state.provenance[ids] == PROV_CLUSTER]
        state.provenance[fresh] = PROV_RADIUS
        inferred = int((state.provenance == PROV_INFERRED).sum())
        inconsistent = len(state.inconsistent_examples)
        propagation.restart(state)
        passes = 1
        while infer_correct_labels(state, corpus, propagation):
            passes += 1
        state.radii.append({
            "radius": int(radius),
            "trusted": int(fresh.size),
            "inferred": int((state.provenance == PROV_INFERRED).sum()) - inferred,
            "inconsistent_examples": len(state.inconsistent_examples) - inconsistent,
            "passes": passes,
        })
    return state


def save_labels(value, path, meta=None):
    """`value`, (labels, LabelState.counts()), as the JSON summary `path`
    with `meta` merged in, and labels.bin, a flat int64 file, beside it."""
    labels, summary = value
    save_int64(path.with_name("labels.bin"), labels)
    save_json(path, {**summary, **(meta or {})})


def load_labels(path):
    """save_labels' (labels, summary) from the summary `path` and the
    labels.bin beside it; a file that does not fit is a ValueError."""
    summary = json.loads(path.read_text(encoding="utf-8"))
    if "inference_radii" not in summary:  # the report reads it; STAGE_FORMAT keys out older files
        raise ValueError("labels.json has no inference_radii")
    json_int(summary, "inconsistent_examples")  # the report reads it
    labels = load_int64(path.with_name("labels.bin"))
    # a truncated labels.bin keeps its key; resume only one label per image
    n_images = sum(json_int(summary, name) for name in PROVENANCES)
    if labels.shape[0] != n_images:
        raise ValueError(f"{labels.shape[0]} labels for {n_images} images")
    return labels, summary
