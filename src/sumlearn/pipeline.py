"""End-to-end orchestration: configuration, staged artifacts, reports, sweeps.

`run_pipeline` is the method's chain read top to bottom: data, embed,
cluster, assign, infer, train, evaluate, each a timed block binding plain
locals; only evaluate reads ground truth. Every stage persists its artifact
tagged with a hash of exactly the config fields it depends on and of
STAGE_FORMAT (a hash chain), and a rerun resumes it only when that hash
matches (`cached`).
The embedding hash does not involve w or h, so a sweep over grid shapes
trains the autoencoder once; the reported total covers the four pipeline
steps, with embedding timed separately. The CLI's stage subcommands call
the same functions (`load_stores`, `write_corpus`, `embed_store`,
`new_classifier`, and the stage modules' `kmeans`, `solve_corpus`,
`run_inference` and `train_cnn`) without a key, so they never resume.
"""

import csv
import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import assignment as asg
from . import classifier as clf
from . import clustering as clu
from . import dataset as ds
from . import embedding as emb
from . import inference as inf
from .errors import InputError
from .tensorfile import atomic_write, peek_meta, save_json

SWEEP_COLUMNS = [
    "w", "h", "factor", "seed", "purity", "label_acc_pre", "label_acc_post",
    "cls_acc", "add_acc", "t_cluster", "t_assign", "t_infer", "t_train", "t_total",
]

TOTAL_TIME_STAGES = ("cluster", "assign", "infer", "train")

# Part of every stage key. It goes up whenever a stage's output changes for
# the same config, so an artifact an older version wrote is recomputed, not
# resumed. 1: keys before the field existed; 2: PCA on a uint8 store takes
# its components from the exact integer scatter.
STAGE_FORMAT = 2


# The synthetic Gaussian stand-in's class count and centroid separation.
# store_key hashes both; the separation stays the float 60.0, since the int
# 60 would hash differently and no synthetic artifact on disk would resume.
SYNTHETIC_CLUSTERS = 10
SYNTHETIC_SEPARATION = 60.0

# Each numeric RunConfig field's minimum: `validate` refuses a value below
# it, and each CLI flag that sets the field is a click.IntRange from it.
# The grid shape is check_grid_shape's.
BOUNDS = {
    **dict.fromkeys(("autoencoder_epochs", "classifier_epochs"), 0),
    **dict.fromkeys(("oversample_factor", "batch_size", "embed_dim", "kmeans_k",
                     "synthetic_images", "synthetic_test_images", "synthetic_dim"), 1),
}


@dataclass
class RunConfig:
    w: int = 2
    h: int = 2
    oversample_factor: int = 1
    seed: int = 0
    batch_size: int = 100
    backend: str = "autoencoder"  # or "pca"
    autoencoder_epochs: int = 300
    embed_dim: int = 10
    kmeans_k: int = 10
    classifier_epochs: int = 10
    synthetic: bool = False
    synthetic_images: int = 1200
    synthetic_test_images: int = 400
    synthetic_dim: int = 784
    data_dir: str | None = None
    artifacts_dir: str = "artifacts"
    reports_dir: str = "reports"

    def validate(self):
        ds.check_grid_shape(self.w, self.h)
        for name, minimum in BOUNDS.items():
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        if self.backend not in ("autoencoder", "pca"):
            raise ValueError(f"unknown embedding backend {self.backend!r}")
        if not self.synthetic:
            if self.data_dir is None:
                raise ValueError("either pass data_dir or select synthetic mode")
            return
        if self.backend == "pca" and self.embed_dim > self.synthetic_dim:
            raise ValueError(f"embed_dim must be <= synthetic_dim {self.synthetic_dim} for PCA, "
                             f"got {self.embed_dim}")
        grid = self.w * self.h
        if min(self.synthetic_images, self.synthetic_test_images) < grid:
            raise ValueError(
                f"a synthetic store needs one {self.w}x{self.h} grid ({grid} images), got "
                f"{self.synthetic_images} train and {self.synthetic_test_images} test images"
            )

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        fields = cls.__dataclass_fields__
        unknown = sorted(set(obj) - set(fields))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in obj.items():
            kind = fields[key].type
            if not _fits(value, kind):
                raise ValueError(f"config key {key!r} must be {getattr(kind, '__name__', kind)}, got {value!r}")
        return cls(**obj)

    # -- stage hash chain ---------------------------------------------------

    def store_key(self):
        if self.synthetic:
            return _digest({
                "synthetic": True,
                "n": self.synthetic_images,
                "n_test": self.synthetic_test_images,
                "clusters": SYNTHETIC_CLUSTERS,
                "separation": SYNTHETIC_SEPARATION,
                "dim": self.synthetic_dim,
                "seed": self.seed,
                "pixels": "uint8",  # normalize_unit's encoding; float stores are not resumed
            })
        return _digest({"synthetic": False, "data_dir": str(self.data_dir)})

    def corpus_key(self):
        return _digest({
            "store": self.store_key(),
            "w": self.w,
            "h": self.h,
            "factor": self.oversample_factor,
            "seed": self.seed,
        })

    def embed_key(self):
        return _digest({
            "store": self.store_key(),
            "backend": self.backend,
            "epochs": self.autoencoder_epochs if self.backend == "autoencoder" else None,
            "dim": self.embed_dim,
            "seed": self.seed,
        })

    def cluster_key(self):
        return _digest({
            "embed": self.embed_key(),
            "k": self.kmeans_k,
            "max_iter": clu.MAX_ITER,
            "tol": clu.TOL,
            "n_init": clu.N_INIT,
            "seed": self.seed,
        })

    def assign_key(self):
        return _digest({
            "corpus": self.corpus_key(),
            "cluster": self.cluster_key(),
            "batch_size": self.batch_size,
        })

    def infer_key(self):
        return _digest({
            "assign": self.assign_key(),
            "radii": list(inf.RADII),
        })

    def train_key(self):
        return _digest({
            "infer": self.infer_key(),
            "epochs": self.classifier_epochs,
            "seed": self.seed,
        })


def _fits(value, kind):
    """Whether a JSON value fits a RunConfig field of type `kind`: a bool
    is no int."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, kind)


def _digest(obj):
    obj = {**obj, "format": STAGE_FORMAT}
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class RunReport:
    config: dict
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    failure: dict | None = None

    def to_json(self):
        return asdict(self)

    def csv_row(self):
        """SWEEP_COLUMNS' values, read from the config, metrics and timings."""
        values = {**self.config, "factor": self.config["oversample_factor"],
                  **self.metrics, **self.timings}
        def fmt(value):
            return "" if value is None else repr(value) if isinstance(value, float) else str(value)
        return [fmt(values.get(name)) for name in SWEEP_COLUMNS]


# -- data resolution ---------------------------------------------------------

_IDX_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def find_idx_files(data_dir, roles=tuple(_IDX_NAMES)):
    """Locate MNIST IDX files (optionally .gz) in a directory: the four of
    them, or only the `roles` named. A missing one is a FileNotFoundError."""
    found = {}
    for role in roles:
        candidates = (Path(data_dir) / (stem + gz) for stem in _IDX_NAMES[role] for gz in ("", ".gz"))
        found[role] = next((path for path in candidates if path.exists()), None)
        if found[role] is None:
            raise FileNotFoundError(f"no {role} IDX file under {data_dir}")
    return found


def idx_store(data_dir, split):
    """The "train" or "test" (t10k) IDX pair under data_dir as an ImageStore;
    the other split's files are neither needed nor read."""
    roles = (f"{split}_images", f"{split}_labels")
    return ds.load_idx(*find_idx_files(data_dir, roles).values())


def load_stores(config):
    """The train and test stores: the train and t10k IDX files under
    data_dir, or one generated synthetic set, quantized to uint8 pixels,
    then split into two row ranges that are views of one array."""
    if not config.synthetic:
        return idx_store(config.data_dir, "train"), idx_store(config.data_dir, "test")
    n_train = config.synthetic_images
    full = ds.generate_synthetic(
        n_train + config.synthetic_test_images,
        SYNTHETIC_CLUSTERS,
        SYNTHETIC_SEPARATION,
        config.synthetic_dim,
        seed=config.seed,
    )
    full = ds.normalize_unit(full)  # uint8 pixels, as the CNN and PCA take them
    return full.subset(slice(0, n_train)), full.subset(slice(n_train, len(full)))


def write_corpus(config, store, out_dir):
    """Build the training corpus and write corpus.txt."""
    corpus = ds.build_corpus(
        store, config.w, config.h, config.oversample_factor, seed=config.seed
    )
    ds.save_corpus(corpus, out_dir / "corpus.txt")
    return corpus


# -- resume ----------------------------------------------------------------

def cached(path, key, load, compute, save):
    """A stage's value: resumed from `path` or computed and saved there.

    The artifact at `path` records the config_key it was made under, in its
    tensor-file meta or as a JSON field. It is resumed, as `load(path)`,
    only when that key equals `key`; `load` raises ValueError for an
    artifact that does not fit. Otherwise `compute()` makes the value and
    `save(value, path, {"config_key": key})` writes it. A `key` of None
    never resumes.
    """
    try:
        if key is not None and _recorded_key(path) == key:
            return load(path)
    except (OSError, KeyError, ValueError):
        pass  # missing, unreadable or truncated: recompute
    value = compute()
    save(value, path, {"config_key": key})
    return value


def _recorded_key(path):
    if path.suffix == ".tf":
        return peek_meta(path).get("config_key")
    record = json.loads(path.read_text(encoding="utf-8"))
    return record.get("config_key") if isinstance(record, dict) else None


# -- training stages (audited: these never touch evaluation_labels) ----------

def embed_store(config, store, path, key=None):
    """The store's embedding, saved to `path`; the autoencoder backend
    saves its weights beside it as autoencoder.tf. Each file is resumed
    when it records `key`."""
    params = None
    if config.backend == "autoencoder":
        widths = (store.dim, *emb.ENCODER_WIDTHS[1:-1], config.embed_dim)
        params = cached(
            path.with_name("autoencoder.tf"), key, emb.AutoencoderParams.load,
            lambda: emb.train_autoencoder(
                emb.AutoencoderParams(widths=widths, seed=config.seed, dtype=np.float32),
                store, config.autoencoder_epochs, seed=config.seed,
            ),
            emb.AutoencoderParams.save,
        )
    return cached(
        path, key, emb.load_embedding,
        lambda: emb.encode(params, store) if params else emb.pca_embed(store, dim=config.embed_dim),
        emb.save_embedding,
    )


def new_classifier(store, seed):
    """A fresh float32 CNN for the store's images. Images that are not
    square, or are smaller than the CNN takes, are refused with an
    InputError naming the store."""
    side = round(store.dim**0.5)
    if side * side != store.dim:
        raise InputError("store", f"classifier needs square images, store dim is {store.dim}")
    return clf.CnnParams(seed=seed, side=side, dtype=np.float32)


# -- the run ----------------------------------------------------------------

def _evaluate(store, test_store, test_corpus, model, assignment, initial_labels, labels, summary, cnn):
    """The report's metrics: the one stage that reads ground truth."""
    return {
        "purity": clu.purity(model, store.evaluation_labels()),
        "label_acc_pre": clf.label_accuracy(initial_labels, store),
        "label_acc_post": clf.label_accuracy(labels, store),
        "objective": int(assignment.objective),
        "satisfied": int(assignment.satisfied_count),
        "batch_index": int(assignment.batch_index),
        "inconsistent_examples": int(summary["inconsistent_examples"]),
        "provenance_counts": {name: int(summary[name]) for name in inf.PROVENANCES},
        "inference_radii": summary["inference_radii"],
        **clf.evaluate(cnn, test_corpus, test_store),
    }


def _failure(stage, exc):
    """The report's failure marker: the stage, the exception, and the
    `<file>:<line> in <function>` of the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return {
        "stage": stage,
        "error": f"{type(exc).__name__}: {exc}",
        "where": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}",
    }


def run_pipeline(config, stores=None):
    """The stages in order, each a timed block resumed from its artifact
    when it can be. The first stage that raises ends the run, named in the
    report's failure marker. `stores` maps a `store_key()` to its loaded
    (train, test) stores; the data stage reuses this config's entry or
    replaces the map's contents with a fresh load, never holding two.
    """
    config.validate()
    artifacts_dir, reports_dir = Path(config.artifacts_dir), Path(config.reports_dir)
    stores = {} if stores is None else stores
    timings, metrics, failure, stage = {}, {}, None, None

    @contextmanager
    def timed(name):
        nonlocal stage
        stage, started = name, time.perf_counter()
        yield
        timings[f"t_{name}"] = time.perf_counter() - started

    try:
        with timed("data"):
            key = config.store_key()
            if key not in stores:
                stores.clear()  # drop the previous store before loading the next
                stores[key] = load_stores(config)
            store, test_store = stores[key]
            corpus = write_corpus(config, store, artifacts_dir)
            test_corpus = ds.build_corpus(test_store, config.w, config.h, 1, seed=config.seed)
        with timed("embed"):
            embedding = embed_store(config, store, artifacts_dir / "embedding.tf", config.embed_key())
        with timed("cluster"):
            model = cached(
                artifacts_dir / "cluster.tf", config.cluster_key(), clu.ClusterModel.load,
                lambda: clu.kmeans(embedding, config.kmeans_k, seed=config.seed), clu.ClusterModel.save,
            )
        with timed("assign"):
            assignment = cached(
                artifacts_dir / "assignment.json", config.assign_key(), asg.DigitAssignment.load,
                lambda: asg.solve_corpus(corpus, model, batch_size=config.batch_size),
                asg.DigitAssignment.save,
            )
        with timed("infer"):
            state = inf.init_labels(model, assignment)
            initial_labels = state.labels.copy()

            def propagate():
                done = inf.run_inference(state, corpus, model)
                return done.labels, done.counts()

            labels, label_summary = cached(
                artifacts_dir / "labels.json", config.infer_key(), inf.load_labels, propagate, inf.save_labels
            )
        with timed("train"):
            cnn = cached(
                artifacts_dir / "cnn.tf", config.train_key(), clf.CnnParams.load,
                lambda: clf.train_cnn(new_classifier(store, config.seed), store, labels, config.classifier_epochs,
                                      seed=config.seed),
                clf.CnnParams.save,
            )
        with timed("evaluate"):
            metrics = _evaluate(store, test_store, test_corpus, model, assignment,
                                initial_labels, labels, label_summary, cnn)
    except Exception as exc:  # noqa: BLE001 - the failing stage becomes the report's marker
        failure = _failure(stage, exc)

    timings["t_total"] = sum(timings.get(f"t_{name}", 0.0) for name in TOTAL_TIME_STAGES)
    report = RunReport(config=config.to_json(), metrics=metrics, timings=timings, failure=failure)
    save_json(reports_dir / "report.json", report.to_json(), indent=2)
    return report


def sweep(configs, csv_path):
    """One report row per config; individual failures do not abort.

    Configs sharing data and embedding settings reuse the persisted
    autoencoder/embedding artifacts automatically, so the encoder is
    trained once for a whole w x h grid. Consecutive configs with the same
    `store_key()` share one loaded store; a new key replaces it.
    """
    reports = []
    stores = {}
    for config in configs:
        try:
            reports.append(run_pipeline(config, stores))
        except Exception as exc:  # noqa: BLE001 - config-level failures become rows
            reports.append(
                RunReport(
                    config=config.to_json(),
                    failure=_failure("config", exc),
                )
            )
    with atomic_write(csv_path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([SWEEP_COLUMNS] + [report.csv_row() for report in reports])
    return reports
