"""Label repair by constraint propagation over the sum equations.

Starting from the cluster-derived labels, images close to their centroid
are trusted (radius schedule over per-cluster distance quantiles); any
example left with exactly one untrusted image has that image's digit
forced by its equation. Resolutions take effect immediately, so one pass
can cascade, and passes repeat to a fixpoint before the radius grows.
"""

from dataclasses import dataclass, field

import numpy as np

from .clustering import distance_percentiles
from .dataset import place_value
from .tensorfile import save_json

PROV_CLUSTER = 0
PROV_RADIUS = 1
PROV_INFERRED = 2

_PROV_NAMES = {PROV_CLUSTER: "cluster", PROV_RADIUS: "radius", PROV_INFERRED: "inferred"}


@dataclass
class LabelState:
    labels: np.ndarray  # (N,) int64 digits
    correct: np.ndarray  # (N,) bool, the trusted set
    provenance: np.ndarray  # (N,) int8, PROV_* tags
    inconsistent_examples: set = field(default_factory=set)

    def counts(self):
        out = {name: int((self.provenance == tag).sum()) for tag, name in _PROV_NAMES.items()}
        out["correct"] = int(self.correct.sum())
        out["inconsistent_examples"] = len(self.inconsistent_examples)
        return out


def init_labels(model, assignment):
    """label(img) = digits[cluster(img)]; nothing trusted yet."""
    digits = np.asarray(assignment.digits, dtype=np.int64)
    if digits.shape[0] < model.k:
        raise ValueError(
            f"assignment covers {digits.shape[0]} clusters, model has {model.k}"
        )
    n = len(model)
    return LabelState(
        labels=digits[model.assignment],
        correct=np.zeros(n, dtype=bool),
        provenance=np.full(n, PROV_CLUSTER, dtype=np.int8),
    )


def images_within_radius(model, radius):
    """Ids of images within the (radius*20)-percentile of their own
    cluster's centroid-distance distribution. radius=5 covers everything."""
    if radius not in (1, 2, 3, 4, 5):
        raise ValueError(f"radius must be in 1..5, got {radius}")
    q = radius * 20 / 100.0
    mask = np.zeros(len(model), dtype=bool)
    for c in range(model.k):
        members = model.members(c)
        if members.size == 0:
            continue
        threshold = distance_percentiles(model, c, q)
        mask[members[model.distance[members] <= threshold]] = True
    return np.flatnonzero(mask)


def resolve_image_label(state, ex, img, ex_index=None):
    """Digit forced on `img` by the example's sum, or None on inconsistency.

    All other images of the example must already be trusted. If the image
    occupies several cells (duplicated ids), the divisor is the sum of its
    positional weights. Non-integer or out-of-range results are recorded in
    state.inconsistent_examples instead of being clamped.
    """
    ids = ex.grid.ravel()
    unresolved = np.unique(ids[~state.correct[ids]])
    if unresolved.size != 1 or unresolved[0] != img:
        raise ValueError(f"image {img} is not the sole unresolved image")

    weights = place_value(ex.w, np.arange(ids.size) % ex.w)
    own = ids == img
    own_weight = int(weights[own].sum())
    rest = int((state.labels[ids[~own]] * weights[~own]).sum())
    numerator = ex.sum - rest
    if numerator % own_weight == 0 and 0 <= numerator // own_weight <= 9:
        return numerator // own_weight
    if ex_index is not None:
        state.inconsistent_examples.add(ex_index)
    return None


def infer_correct_labels(state, corpus):
    """One pass over the corpus in order; returns whether anything resolved.

    Resolutions apply immediately, so an image trusted early in the pass
    can unlock later examples within the same pass.
    """
    changed = False
    for idx, ex in enumerate(corpus.examples):
        ids = ex.grid.ravel()
        unresolved = np.unique(ids[~state.correct[ids]])
        if unresolved.size != 1:
            continue
        img = int(unresolved[0])
        digit = resolve_image_label(state, ex, img, ex_index=idx)
        if digit is None:
            continue
        state.labels[img] = digit
        state.correct[img] = True
        state.provenance[img] = PROV_INFERRED
        changed = True
    return changed


def run_inference(state, corpus, model, radii=(1, 2, 3, 4, 5)):
    """Radius schedule around repeated propagation to fixpoint.

    Images pulled in by a radius keep their current labels; inferred
    labels are never overwritten by later radii.
    """
    for radius in radii:
        ids = images_within_radius(model, radius)
        fresh = ids[~state.correct[ids]]
        state.provenance[fresh] = PROV_RADIUS
        state.correct[fresh] = True
        while infer_correct_labels(state, corpus):
            pass
    return state


def save_labels(labels, summary, bin_path, json_path):
    """Flat int64 label file plus a JSON summary (LabelState.counts())."""
    np.asarray(labels, dtype="<i8").tofile(bin_path)
    save_json(json_path, summary)


def load_labels(bin_path):
    return np.fromfile(bin_path, dtype="<i8")
