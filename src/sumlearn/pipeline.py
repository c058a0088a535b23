"""End-to-end orchestration: configuration, staged artifacts, reports, sweeps.

Every stage persists its artifact tagged with a hash of exactly the config
fields it depends on (a hash chain). Rerunning loads an artifact only when
its recorded hash matches; anything else is recomputed and overwritten.
Because the embedding hash does not involve w or h, a sweep over grid
shapes trains the autoencoder once and reuses it, and the reported total
time covers the four pipeline steps, with embedding timed separately.
"""

import csv
import hashlib
import json
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import assignment as asg
from . import classifier as clf
from . import clustering as clu
from . import dataset as ds
from . import embedding as emb
from . import inference as inf
from .errors import ConsistencyError
from .tensorfile import peek_meta

SWEEP_COLUMNS = [
    "w", "h", "factor", "seed", "purity", "label_acc_pre", "label_acc_post",
    "cls_acc", "add_acc", "t_cluster", "t_assign", "t_infer", "t_train", "t_total",
]

TOTAL_TIME_STAGES = ("cluster", "assign", "infer", "train")


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
    kmeans_max_iter: int = 300
    kmeans_tol: float = 1e-4
    kmeans_n_init: int = 10
    radius_schedule: tuple = (1, 2, 3, 4, 5)
    classifier_epochs: int = 10
    synthetic: bool = False
    synthetic_images: int = 1200
    synthetic_test_images: int = 400
    synthetic_clusters: int = 10
    synthetic_separation: float = 60.0
    synthetic_dim: int = 784
    data_dir: str | None = None
    artifacts_dir: str = "artifacts"
    reports_dir: str = "reports"

    def validate(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"grid shape must be positive, got w={self.w}, h={self.h}")
        if not (self.w <= 10 and self.h <= 6):
            warnings.warn(
                f"w={self.w}, h={self.h} is outside the tested envelope "
                "(w <= 10, h <= 6); proceeding anyway",
                stacklevel=2,
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.oversample_factor < 1:
            raise ValueError(
                f"oversample_factor must be >= 1, got {self.oversample_factor}"
            )
        if self.backend not in ("autoencoder", "pca"):
            raise ValueError(f"unknown embedding backend {self.backend!r}")
        if not self.synthetic and self.data_dir is None:
            raise ValueError("either pass data_dir or select synthetic mode")

    def to_json(self):
        out = asdict(self)
        out["radius_schedule"] = list(self.radius_schedule)
        return out

    @classmethod
    def from_json(cls, obj):
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in obj.items() if k in known}
        if "radius_schedule" in kwargs:
            kwargs["radius_schedule"] = tuple(kwargs["radius_schedule"])
        return cls(**kwargs)

    # -- stage hash chain ---------------------------------------------------

    def store_key(self):
        if self.synthetic:
            return _digest({
                "synthetic": True,
                "n": self.synthetic_images,
                "n_test": self.synthetic_test_images,
                "clusters": self.synthetic_clusters,
                "separation": self.synthetic_separation,
                "dim": self.synthetic_dim,
                "seed": self.seed,
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
            "max_iter": self.kmeans_max_iter,
            "tol": self.kmeans_tol,
            "n_init": self.kmeans_n_init,
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
            "radii": list(self.radius_schedule),
        })

    def train_key(self):
        return _digest({
            "infer": self.infer_key(),
            "epochs": self.classifier_epochs,
            "seed": self.seed,
        })


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class RunReport:
    config: dict
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    failure: dict | None = None

    def to_json(self):
        return {
            "config": self.config,
            "metrics": self.metrics,
            "timings": self.timings,
            "failure": self.failure,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, sort_keys=True, indent=2)
            f.write("\n")

    def csv_row(self):
        cfg, m, t = self.config, self.metrics, self.timings
        def fmt(value):
            return "" if value is None else repr(value) if isinstance(value, float) else str(value)
        return [
            str(cfg["w"]), str(cfg["h"]), str(cfg["oversample_factor"]), str(cfg["seed"]),
            fmt(m.get("purity")), fmt(m.get("label_acc_pre")), fmt(m.get("label_acc_post")),
            fmt(m.get("cls_acc")), fmt(m.get("add_acc")),
            fmt(t.get("t_cluster")), fmt(t.get("t_assign")), fmt(t.get("t_infer")),
            fmt(t.get("t_train")), fmt(t.get("t_total")),
        ]


def label_accuracy(labels, store):
    """Fraction of images whose assigned label matches the true digit."""
    labels = np.asarray(labels)
    truth = store.evaluation_labels()
    if labels.shape[0] != truth.shape[0]:
        raise ConsistencyError(f"{labels.shape[0]} labels for {truth.shape[0]} images")
    return float((labels == truth).mean())


# -- data resolution ---------------------------------------------------------

_IDX_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def find_idx_files(data_dir):
    """Locate the four MNIST IDX files (optionally .gz) in a directory."""
    data_dir = Path(data_dir)
    found = {}
    for role, stems in _IDX_NAMES.items():
        for stem in stems:
            for name in (stem, stem + ".gz"):
                candidate = data_dir / name
                if candidate.exists():
                    found[role] = candidate
                    break
            if role in found:
                break
        if role not in found:
            raise FileNotFoundError(f"no {role} IDX file under {data_dir}")
    return found


def _stage_data(config, ctx):
    if config.synthetic:
        n_total = config.synthetic_images + config.synthetic_test_images
        full, _ = ds.generate_synthetic(
            n_total,
            config.synthetic_clusters,
            config.synthetic_separation,
            config.synthetic_dim,
            config.w,
            config.h,
            seed=config.seed,
        )
        full = ds.normalize_unit(full)  # pixel-like inputs for the CNN
        store = full.subset(np.arange(config.synthetic_images), split="train")
        test_store = full.subset(
            np.arange(config.synthetic_images, len(full)), split="test"
        )
    else:
        paths = find_idx_files(config.data_dir)
        store = ds.load_idx(paths["train_images"], paths["train_labels"], split="train")
        test_store = ds.load_idx(paths["test_images"], paths["test_labels"], split="test")

    corpus = ds.build_corpus(
        store, config.w, config.h, config.oversample_factor, seed=config.seed
    )
    test_corpus = ds.build_corpus(test_store, config.w, config.h, 1, seed=config.seed)

    art = ctx["artifacts_dir"]
    ds.save_corpus(corpus, art / "corpus.txt")
    with open(art / "corpus.json", "w", encoding="utf-8") as f:
        json.dump({"config_key": config.corpus_key(), "examples": len(corpus)}, f)
        f.write("\n")

    ctx.update(store=store, test_store=test_store, corpus=corpus, test_corpus=test_corpus)


# -- training stages (audited: these never touch evaluation_labels) ----------

def _stage_embed(config, ctx):
    art = ctx["artifacts_dir"]
    path = art / "embedding.tf"
    key = config.embed_key()
    if path.exists():
        try:
            if peek_meta(path).get("config_key") == key:
                _, matrix = emb.load_embedding(path)
                ctx["embedding"] = matrix
                return
        except ValueError:
            pass
    store = ctx["store"]
    if config.backend == "pca":
        matrix = emb.pca_embed(store, dim=config.embed_dim)
    else:
        ae_path = art / "autoencoder.tf"
        params = None
        if ae_path.exists():
            try:
                if peek_meta(ae_path).get("config_key") == key:
                    params = emb.AutoencoderParams.load(ae_path)
            except ValueError:
                params = None
        if params is None:
            widths = (store.dim, 500, 500, 2000, config.embed_dim)
            params = emb.train_autoencoder(
                store, config.autoencoder_epochs, seed=config.seed, widths=widths
            )
            params.save(ae_path, meta={"config_key": key})
        matrix = emb.encode(params, store)
    emb.save_embedding(path, matrix, meta={"config_key": key})
    ctx["embedding"] = matrix


def _stage_cluster(config, ctx):
    art = ctx["artifacts_dir"]
    path = art / "cluster.tf"
    key = config.cluster_key()
    if path.exists():
        try:
            if peek_meta(path).get("config_key") == key:
                ctx["model"] = clu.ClusterModel.load(path)
                return
        except ValueError:
            pass
    model = clu.kmeans(
        ctx["embedding"],
        config.kmeans_k,
        seed=config.seed,
        max_iter=config.kmeans_max_iter,
        tol=config.kmeans_tol,
        n_init=config.kmeans_n_init,
    )
    model.save(path, meta={"config_key": key})
    clu.save_assignment(art / "cluster_assignment.bin", model.assignment)
    ctx["model"] = model


def _stage_assign(config, ctx):
    art = ctx["artifacts_dir"]
    path = art / "assignment.json"
    key = config.assign_key()
    if path.exists():
        try:
            with open(path, "r", encoding="utf-8") as f:
                obj = json.load(f)
            if obj.get("config_key") == key:
                ctx["digit_assignment"] = asg.DigitAssignment.from_json(obj)
                return
        except (ValueError, KeyError):
            pass
    result = asg.solve_corpus(ctx["corpus"], ctx["model"], batch_size=config.batch_size)
    result.save(path, extra={"config_key": key})
    ctx["digit_assignment"] = result


def _stage_infer(config, ctx):
    art = ctx["artifacts_dir"]
    bin_path = art / "labels.bin"
    json_path = art / "labels.json"
    key = config.infer_key()
    state = inf.init_labels(ctx["model"], ctx["digit_assignment"])
    ctx["initial_labels"] = state.labels.copy()
    if bin_path.exists() and json_path.exists():
        try:
            with open(json_path, "r", encoding="utf-8") as f:
                summary = json.load(f)
            labels = inf.load_labels(bin_path)
            # a truncated file keeps its key; resume only one label per image
            if summary.get("config_key") == key and labels.shape[0] == len(ctx["store"]):
                ctx["labels"] = labels
                ctx["label_summary"] = summary
                return
        except (ValueError, KeyError):
            pass
    state = inf.run_inference(state, ctx["corpus"], ctx["model"], radii=config.radius_schedule)
    np.asarray(state.labels, dtype="<i8").tofile(bin_path)
    summary = state.counts()
    summary["config_key"] = key
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True)
        f.write("\n")
    ctx["labels"] = inf.final_labels(state)
    ctx["label_summary"] = summary


def _stage_train(config, ctx):
    art = ctx["artifacts_dir"]
    path = art / "cnn.tf"
    key = config.train_key()
    store = ctx["store"]
    side = round(store.dim**0.5)
    if side * side != store.dim:
        raise ValueError(f"classifier needs square images, store dim is {store.dim}")
    if path.exists():
        try:
            if peek_meta(path).get("config_key") == key:
                ctx["cnn"] = clf.CnnParams.load(path)
                return
        except ValueError:
            pass
    params = clf.CnnParams(seed=config.seed, side=side, dtype=np.float32)
    params = clf.train_cnn(
        params, store, ctx["labels"], config.classifier_epochs, seed=config.seed
    )
    params.save(path, meta={"config_key": key})
    ctx["cnn"] = params


# -- evaluation (the one place ground truth is read) --------------------------

def _stage_evaluate(config, ctx):
    store, test_store = ctx["store"], ctx["test_store"]
    metrics = ctx["metrics"]
    metrics["purity"] = clu.purity(ctx["model"], store.evaluation_labels())
    metrics["label_acc_pre"] = label_accuracy(ctx["initial_labels"], store)
    metrics["label_acc_post"] = label_accuracy(ctx["labels"], store)
    metrics["objective"] = int(ctx["digit_assignment"].objective)
    metrics["satisfied"] = int(ctx["digit_assignment"].satisfied_count)
    metrics["batch_index"] = int(ctx["digit_assignment"].batch_index)
    summary = ctx["label_summary"]
    metrics["inconsistent_examples"] = int(summary["inconsistent_examples"])
    metrics["provenance_counts"] = {
        name: int(summary[name]) for name in ("cluster", "radius", "inferred")
    }
    metrics.update(clf.evaluate(ctx["cnn"], ctx["test_corpus"], test_store))


_STAGES = [
    ("data", _stage_data),
    ("embed", _stage_embed),
    ("cluster", _stage_cluster),
    ("assign", _stage_assign),
    ("infer", _stage_infer),
    ("train", _stage_train),
    ("evaluate", _stage_evaluate),
]


def run_pipeline(config):
    """Execute the four pipeline steps in order; resumable per stage.

    On stage failure the report carries partial results plus a failure
    marker and downstream stages are skipped.
    """
    config.validate()
    artifacts_dir = Path(config.artifacts_dir)
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    reports_dir = Path(config.reports_dir)
    reports_dir.mkdir(parents=True, exist_ok=True)

    ctx = {"artifacts_dir": artifacts_dir, "metrics": {}}
    timings = {}
    failure = None
    for name, fn in _STAGES:
        started = time.perf_counter()
        try:
            fn(config, ctx)
        except Exception as exc:  # noqa: BLE001 - failures become report markers
            failure = {"stage": name, "error": f"{type(exc).__name__}: {exc}"}
            break
        timings[f"t_{name}"] = time.perf_counter() - started

    timings["t_total"] = sum(
        timings.get(f"t_{stage}", 0.0) for stage in TOTAL_TIME_STAGES
    )
    report = RunReport(
        config=config.to_json(),
        metrics=ctx["metrics"],
        timings=timings,
        failure=failure,
    )
    report.save(reports_dir / "report.json")
    return report


def sweep(configs, csv_path):
    """One report row per config; individual failures do not abort.

    Configs sharing data and embedding settings reuse the persisted
    autoencoder/embedding artifacts automatically, so the encoder is
    trained once for a whole w x h grid.
    """
    reports = []
    for config in configs:
        try:
            reports.append(run_pipeline(config))
        except Exception as exc:  # noqa: BLE001 - config-level failures become rows
            reports.append(
                RunReport(
                    config=config.to_json(),
                    failure={"stage": "config", "error": f"{type(exc).__name__}: {exc}"},
                )
            )
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())
    return reports
