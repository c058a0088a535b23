"""Command-line interface for the pipeline and its individual stages."""

import json
import os
from pathlib import Path

import click
import numpy as np

from . import assignment as asg
from . import classifier as clf
from . import clustering as clu
from . import dataset as ds
from . import embedding as emb
from . import inference as inf
from .pipeline import RunConfig, find_idx_files, run_pipeline, sweep

DATA_DIR_ENV = "SUMLEARN_DATA_DIR"


def _default_data_dir():
    return os.environ.get(DATA_DIR_ENV)


def _out_path(path):
    """An output file's path, its parent directory created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_train_store(data_dir):
    paths = find_idx_files(data_dir)
    return ds.load_idx(paths["train_images"], paths["train_labels"], split="train")


@click.group()
def main():
    """Weakly supervised digit classification from grid-sum supervision."""


def _config_options(fn):
    # defaults live in RunConfig; None here means "not passed on the line",
    # so config-file values survive unless a flag overrides them
    opts = [
        click.option("--w", type=int, default=None, help="digits per number [default: 2]"),
        click.option("--h", type=int, default=None, help="numbers per example [default: 2]"),
        click.option("--factor", type=int, default=None, help="oversample factor [default: 1]"),
        click.option("--seed", type=int, default=None, help="[default: 0]"),
        click.option("--batch-size", type=int, default=None, help="[default: 100]"),
        click.option("--backend", type=click.Choice(["autoencoder", "pca"]), default=None, help="[default: autoencoder]"),
        click.option("--autoencoder-epochs", type=int, default=None, help="[default: 300]"),
        click.option("--classifier-epochs", type=int, default=None, help="[default: 10]"),
        click.option("--data", "data_dir", type=click.Path(), default=None, help=f"MNIST IDX dir (or ${DATA_DIR_ENV})"),
        click.option("--synthetic", is_flag=True, default=False, help="use generated Gaussian data"),
        click.option("--artifacts", "artifacts_dir", type=click.Path(), default=None, help="[default: artifacts]"),
        click.option("--reports", "reports_dir", type=click.Path(), default=None, help="[default: reports]"),
        click.option("--config", "config_file", type=click.Path(exists=True), default=None, help="flat JSON config; flags override"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _build_config(config_file, **kwargs):
    base = {}
    if config_file:
        with open(config_file, "r", encoding="utf-8") as f:
            base = json.load(f)
    rename = {"factor": "oversample_factor"}
    for key, value in kwargs.items():
        if value is None:
            continue
        if key == "synthetic" and not value:
            continue  # absent flag should not clobber a config-file choice
        base[rename.get(key, key)] = value
    if not base.get("synthetic") and not base.get("data_dir"):
        env_dir = _default_data_dir()
        if env_dir:
            base["data_dir"] = env_dir
    return RunConfig.from_json(base)


@main.command()
@_config_options
def run(config_file, **kwargs):
    """Run all four pipeline steps and write report.json."""
    config = _build_config(config_file, **kwargs)
    report = run_pipeline(config)
    path = Path(config.reports_dir) / "report.json"
    click.echo(f"report written to {path}")
    if report.failure:
        click.echo(f"FAILED at stage {report.failure['stage']}: {report.failure['error']}")
        raise SystemExit(1)
    for name in ("purity", "label_acc_pre", "label_acc_post", "cls_acc", "add_acc"):
        click.echo(f"{name}: {report.metrics.get(name)}")
    click.echo(f"t_total: {report.timings.get('t_total'):.2f}s (embedding excluded)")


@main.command("sweep")
@click.option("--w-list", default="1,2,4,8", show_default=True, help="comma-separated widths")
@click.option("--h-list", default="2,4", show_default=True, help="comma-separated heights")
@click.option("--csv", "csv_path", type=click.Path(), default="sweep.csv", show_default=True)
@_config_options
def sweep_cmd(w_list, h_list, csv_path, config_file, **kwargs):
    """Run a grid of w x h configs into one CSV (shared encoder weights)."""
    configs = []
    for h in (int(x) for x in h_list.split(",")):
        for w in (int(x) for x in w_list.split(",")):
            overrides = dict(kwargs)
            overrides["w"] = w
            overrides["h"] = h
            configs.append(_build_config(config_file, **overrides))
    reports = sweep(configs, csv_path)
    failed = sum(1 for r in reports if r.failure)
    click.echo(f"{len(reports)} runs ({failed} failed) -> {csv_path}")


@main.command("generate-data")
@click.option("--w", type=int, default=2, show_default=True)
@click.option("--h", type=int, default=2, show_default=True)
@click.option("--factor", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--synthetic", is_flag=True)
@click.option("--n-images", type=int, default=1200, show_default=True)
@click.option("--n-clusters", type=int, default=10, show_default=True)
@click.option("--separation", type=float, default=60.0, show_default=True)
@click.option("--dim", type=int, default=784, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default="artifacts", show_default=True)
def generate_data(w, h, factor, seed, data_dir, synthetic, n_images, n_clusters, separation, dim, out_dir):
    """Bundle images into sum-supervised examples; write corpus.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if synthetic:
        store, _ = ds.generate_synthetic(n_images, n_clusters, separation, dim, w, h, seed=seed)
        store = ds.normalize_unit(store)  # pixel-like range for the CNN stage
        corpus = ds.build_corpus(store, w, h, factor, seed=seed)
        ds.save_store(store, out / "store.tf")
        click.echo(f"store: {len(store)} synthetic images -> {out / 'store.tf'}")
    else:
        store = _load_train_store(data_dir or _default_data_dir())
        corpus = ds.build_corpus(store, w, h, factor, seed=seed)
    ds.save_corpus(corpus, out / "corpus.txt")
    click.echo(f"corpus: {len(corpus)} examples -> {out / 'corpus.txt'}")


@main.command()
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--store", "store_path", type=click.Path(exists=True), default=None, help="store.tf from generate-data --synthetic")
@click.option("--backend", type=click.Choice(["autoencoder", "pca"]), default="autoencoder", show_default=True)
@click.option("--epochs", type=int, default=300, show_default=True)
@click.option("--dim", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default="artifacts/embedding.tf", show_default=True)
def embed(data_dir, store_path, backend, epochs, dim, seed, out):
    """Learn the 10-d representation (autoencoder or PCA fallback)."""
    store = ds.load_store(store_path) if store_path else _load_train_store(data_dir or _default_data_dir())
    out = _out_path(out)
    if backend == "pca":
        matrix = emb.pca_embed(store, dim=dim)
    else:
        widths = (store.dim, 500, 500, 2000, dim)
        params = emb.train_autoencoder(store, epochs, seed=seed, widths=widths)
        params.save(str(out.with_name("autoencoder.tf")))
        matrix = emb.encode(params, store)
    emb.save_embedding(out, matrix, meta={"backend": backend})
    click.echo(f"embedding {matrix.shape} -> {out}")


@main.command()
@click.option("--embedding", "embedding_path", type=click.Path(exists=True), required=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-iter", type=int, default=300, show_default=True)
@click.option("--tol", type=float, default=1e-4, show_default=True)
@click.option("--out", type=click.Path(), default="artifacts/cluster.tf", show_default=True)
def cluster(embedding_path, k, seed, max_iter, tol, out):
    """k-means with k-means++ seeding over the embedding."""
    _, matrix = emb.load_embedding(embedding_path)
    model = clu.kmeans(matrix, k, seed=seed, max_iter=max_iter, tol=tol)
    out = _out_path(out)
    model.save(out)
    clu.save_assignment(str(out.with_name("cluster_assignment.bin")), model.assignment)
    click.echo(f"k={k} clusters, inertia {model.inertia_history[-1]:.4g} -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--cluster", "cluster_path", type=click.Path(exists=True), required=True)
@click.option("--batch-size", type=int, default=100, show_default=True)
@click.option("--out", type=click.Path(), default="artifacts/assignment.json", show_default=True)
def assign(corpus_path, cluster_path, batch_size, out):
    """Solve the per-batch integer program and vote the winner."""
    corpus = ds.load_corpus(corpus_path)
    model = clu.ClusterModel.load(cluster_path)
    result = asg.solve_corpus(corpus, model, batch_size=batch_size)
    result.save(_out_path(out))
    click.echo(
        f"digits {list(map(int, result.digits))}, objective {result.objective}, "
        f"satisfied {result.satisfied_count}/{len(corpus)} -> {out}"
    )


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--cluster", "cluster_path", type=click.Path(exists=True), required=True)
@click.option("--assignment", "assignment_path", type=click.Path(exists=True), required=True)
@click.option("--out-labels", type=click.Path(), default="artifacts/labels.bin", show_default=True)
@click.option("--out-summary", type=click.Path(), default="artifacts/labels.json", show_default=True)
def infer(corpus_path, cluster_path, assignment_path, out_labels, out_summary):
    """Propagate labels through the sum constraints (radius schedule)."""
    corpus = ds.load_corpus(corpus_path)
    model = clu.ClusterModel.load(cluster_path)
    result = asg.DigitAssignment.load(assignment_path)
    state = inf.init_labels(model, result)
    state = inf.run_inference(state, corpus, model)
    inf.save_labels(state, _out_path(out_labels), _out_path(out_summary))
    click.echo(f"labels -> {out_labels}; {state.counts()}")


@main.command()
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--store", "store_path", type=click.Path(exists=True), default=None)
@click.option("--labels", "labels_path", type=click.Path(exists=True), required=True)
@click.option("--epochs", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default="artifacts/cnn.tf", show_default=True)
def train(data_dir, store_path, labels_path, epochs, seed, out):
    """Train the CNN on the inferred labels."""
    store = ds.load_store(store_path) if store_path else _load_train_store(data_dir or _default_data_dir())
    labels = inf.load_labels(labels_path)
    side = round(store.dim**0.5)
    params = clf.CnnParams(seed=seed, side=side, dtype=np.float32)
    params = clf.train_cnn(params, store, labels, epochs, seed=seed)
    params.save(_out_path(out))
    click.echo(f"cnn -> {out}")


@main.command()
@click.option("--cnn", "cnn_path", type=click.Path(exists=True), required=True)
@click.option("--data", "data_dir", type=click.Path(), default=None, help="MNIST dir (uses t10k split)")
@click.option("--store", "store_path", type=click.Path(exists=True), default=None)
@click.option("--w", type=int, default=2, show_default=True)
@click.option("--h", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="optional metrics JSON")
def evaluate(cnn_path, data_dir, store_path, w, h, seed, out):
    """Classification and addition accuracy on the test split."""
    params = clf.CnnParams.load(cnn_path)
    if store_path:
        test_store = ds.load_store(store_path)
    else:
        paths = find_idx_files(data_dir or _default_data_dir())
        test_store = ds.load_idx(paths["test_images"], paths["test_labels"], split="test")
    test_corpus = ds.build_corpus(test_store, w, h, 1, seed=seed)
    metrics = clf.evaluate(params, test_corpus, test_store)
    if out:
        with open(_out_path(out), "w", encoding="utf-8") as f:
            json.dump(metrics, f, sort_keys=True)
            f.write("\n")
    click.echo(json.dumps(metrics, sort_keys=True))


if __name__ == "__main__":
    main()
