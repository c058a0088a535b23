"""Command-line interface: `run` and `sweep` drive the pipeline, and each
stage subcommand is a thin wrapper that reads its inputs from files and
calls the same stage code as `run`, without resuming."""

import json
import os
from pathlib import Path

import click

from . import assignment as asg
from . import classifier as clf
from . import clustering as clu
from . import dataset as ds
from . import embedding as emb
from . import inference as inf
from . import pipeline as pl
from .pipeline import RunConfig, run_pipeline, sweep
from .tensorfile import load_int64, save_json

DATA_DIR_ENV = "SUMLEARN_DATA_DIR"


def _out_path(path):
    """An output file's path, its parent directory created if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _data_dir(data_dir, alternative):
    """--data, else $SUMLEARN_DATA_DIR. With neither, a usage error that
    also names the command's `alternative` source of images."""
    data_dir = data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise click.UsageError(f"no data source: pass --data or {alternative}, or set {DATA_DIR_ENV}")
    return data_dir


def _store(store_path, data_dir, split):
    """A store file from generate-data, else the split's IDX files."""
    if store_path:
        return ds.load_store(store_path)
    return pl.idx_store(_data_dir(data_dir, "--store"), split)


def _int_list(ctx, param, value):
    """A comma-separated option value as a list of ints."""
    try:
        return [int(item) for item in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


@click.group()
def main():
    """Weakly supervised digit classification from grid-sum supervision."""


def _config_options(fn):
    # defaults live in RunConfig; None here means "not passed on the line",
    # so config-file values survive unless a flag overrides them
    opts = [
        click.option("--w", type=int, default=None, help=f"digits per number [default: {RunConfig.w}]"),
        click.option("--h", type=int, default=None, help=f"numbers per example [default: {RunConfig.h}]"),
        click.option("--factor", type=int, default=None, help=f"oversample factor [default: {RunConfig.oversample_factor}]"),
        click.option("--seed", type=int, default=None, help=f"[default: {RunConfig.seed}]"),
        click.option("--batch-size", type=int, default=None, help=f"[default: {RunConfig.batch_size}]"),
        click.option("--backend", type=click.Choice(["autoencoder", "pca"]), default=None, help=f"[default: {RunConfig.backend}]"),
        click.option("--autoencoder-epochs", type=int, default=None, help=f"[default: {RunConfig.autoencoder_epochs}]"),
        click.option("--classifier-epochs", type=int, default=None, help=f"[default: {RunConfig.classifier_epochs}]"),
        click.option("--data", "data_dir", type=click.Path(), default=None, help=f"MNIST IDX dir (or ${DATA_DIR_ENV})"),
        click.option("--synthetic", is_flag=True, default=False, help="use generated Gaussian data"),
        click.option("--artifacts", "artifacts_dir", type=click.Path(), default=None, help=f"[default: {RunConfig.artifacts_dir}]"),
        click.option("--reports", "reports_dir", type=click.Path(), default=None, help=f"[default: {RunConfig.reports_dir}]"),
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
        if not isinstance(base, dict):
            raise click.BadParameter(f"must hold a JSON object, got {type(base).__name__}", param_hint="'--config'")
    rename = {"factor": "oversample_factor"}
    for key, value in kwargs.items():
        if value is None:
            continue
        if key == "synthetic" and not value:
            continue  # absent flag should not clobber a config-file choice
        base[rename.get(key, key)] = value
    if not base.get("synthetic"):
        base["data_dir"] = _data_dir(base.get("data_dir"), "--synthetic")
    try:
        return RunConfig.from_json(base)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc


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
@click.option("--w-list", default="1,2,4,8", show_default=True, callback=_int_list, help="comma-separated widths")
@click.option("--h-list", default="2,4", show_default=True, callback=_int_list, help="comma-separated heights")
@click.option("--csv", "csv_path", type=click.Path(), default="sweep.csv", show_default=True)
@_config_options
def sweep_cmd(w_list, h_list, csv_path, config_file, **kwargs):
    """Run a grid of w x h configs into one CSV (shared encoder weights)."""
    configs = [
        _build_config(config_file, **{**kwargs, "w": w, "h": h})
        for h in h_list
        for w in w_list
    ]
    reports = sweep(configs, csv_path)
    failed = sum(1 for r in reports if r.failure)
    click.echo(f"{len(reports)} runs ({failed} failed) -> {csv_path}")


@main.command("generate-data")
@click.option("--w", type=int, default=RunConfig.w, show_default=True)
@click.option("--h", type=int, default=RunConfig.h, show_default=True)
@click.option("--factor", type=int, default=RunConfig.oversample_factor, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--synthetic", is_flag=True)
@click.option("--n-images", type=int, default=RunConfig.synthetic_images, show_default=True)
@click.option("--n-clusters", type=int, default=RunConfig.synthetic_clusters, show_default=True)
@click.option("--separation", type=float, default=RunConfig.synthetic_separation, show_default=True)
@click.option("--dim", type=int, default=RunConfig.synthetic_dim, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default=RunConfig.artifacts_dir, show_default=True)
def generate_data(w, h, factor, seed, data_dir, synthetic, n_images, n_clusters, separation, dim, out_dir):
    """Bundle images into sum-supervised examples; write corpus.txt.

    With --synthetic, also write the generated train and held-out test
    images as store.tf and test_store.tf, split as `run --synthetic` does.
    """
    config = RunConfig(
        w=w, h=h, oversample_factor=factor, seed=seed,
        data_dir=None if synthetic else _data_dir(data_dir, "--synthetic"), synthetic=synthetic,
        synthetic_images=n_images, synthetic_clusters=n_clusters,
        synthetic_separation=separation, synthetic_dim=dim,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store, test_store = pl.load_stores(config)
    if synthetic:
        ds.save_store(store, out / "store.tf")
        ds.save_store(test_store, out / "test_store.tf")
        click.echo(f"stores: {len(store)} train, {len(test_store)} test images -> {out}")
    corpus = pl.write_corpus(config, store, out)
    click.echo(f"corpus: {len(corpus)} examples -> {out / 'corpus.txt'}")


@main.command()
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--store", "store_path", type=click.Path(exists=True), default=None, help="store.tf from generate-data --synthetic")
@click.option("--backend", type=click.Choice(["autoencoder", "pca"]), default=RunConfig.backend, show_default=True)
@click.option("--epochs", type=int, default=RunConfig.autoencoder_epochs, show_default=True)
@click.option("--dim", type=int, default=RunConfig.embed_dim, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/embedding.tf", show_default=True)
def embed(data_dir, store_path, backend, epochs, dim, seed, out):
    """Learn the 10-d representation (autoencoder or PCA fallback)."""
    config = RunConfig(backend=backend, autoencoder_epochs=epochs, embed_dim=dim, seed=seed)
    matrix = pl.embed_store(config, _store(store_path, data_dir, "train"), _out_path(out))
    click.echo(f"embedding {matrix.shape} -> {out}")


@main.command()
@click.option("--embedding", "embedding_path", type=click.Path(exists=True), required=True)
@click.option("--k", type=int, default=RunConfig.kmeans_k, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--max-iter", type=int, default=RunConfig.kmeans_max_iter, show_default=True)
@click.option("--tol", type=float, default=RunConfig.kmeans_tol, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/cluster.tf", show_default=True)
def cluster(embedding_path, k, seed, max_iter, tol, out):
    """k-means with k-means++ seeding over the embedding."""
    config = RunConfig(kmeans_k=k, seed=seed, kmeans_max_iter=max_iter, kmeans_tol=tol)
    model = pl.fit_clusters(config, emb.load_embedding(embedding_path))
    pl.save_cluster(model, _out_path(out))
    click.echo(f"k={k} clusters, inertia {model.inertia_history[-1]:.4g} -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--cluster", "cluster_path", type=click.Path(exists=True), required=True)
@click.option("--batch-size", type=int, default=RunConfig.batch_size, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/assignment.json", show_default=True)
def assign(corpus_path, cluster_path, batch_size, out):
    """Solve the per-batch integer program and vote the winner."""
    corpus = ds.load_corpus(corpus_path)
    result = asg.solve_corpus(corpus, clu.ClusterModel.load(cluster_path), batch_size=batch_size)
    result.save(_out_path(out))
    click.echo(
        f"digits {list(map(int, result.digits))}, objective {result.objective}, "
        f"satisfied {result.satisfied_count}/{len(corpus)} -> {out}"
    )


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--cluster", "cluster_path", type=click.Path(exists=True), required=True)
@click.option("--assignment", "assignment_path", type=click.Path(exists=True), required=True)
@click.option("--out-labels", type=click.Path(), default=f"{RunConfig.artifacts_dir}/labels.bin", show_default=True)
@click.option("--out-summary", type=click.Path(), default=f"{RunConfig.artifacts_dir}/labels.json", show_default=True)
def infer(corpus_path, cluster_path, assignment_path, out_labels, out_summary):
    """Propagate labels through the sum constraints (radius schedule)."""
    corpus = ds.load_corpus(corpus_path)
    model = clu.ClusterModel.load(cluster_path)
    state = inf.init_labels(model, asg.DigitAssignment.load(assignment_path))
    state = inf.run_inference(state, corpus, model, radii=RunConfig.radius_schedule)
    inf.save_labels(state.labels, state.counts(), _out_path(out_labels), _out_path(out_summary))
    click.echo(f"labels -> {out_labels}; {state.counts()}")


@main.command()
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--store", "store_path", type=click.Path(exists=True), default=None)
@click.option("--labels", "labels_path", type=click.Path(exists=True), required=True)
@click.option("--epochs", type=int, default=RunConfig.classifier_epochs, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/cnn.tf", show_default=True)
def train(data_dir, store_path, labels_path, epochs, seed, out):
    """Train the CNN on the inferred labels."""
    config = RunConfig(classifier_epochs=epochs, seed=seed)
    store = _store(store_path, data_dir, "train")
    try:
        labels = clf.check_labels(load_int64(labels_path), len(store))
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--labels'") from exc
    pl.train_classifier(config, store, labels).save(_out_path(out))
    click.echo(f"cnn -> {out}")


@main.command()
@click.option("--cnn", "cnn_path", type=click.Path(exists=True), required=True)
@click.option("--data", "data_dir", type=click.Path(), default=None, help="MNIST dir (uses t10k split)")
@click.option("--store", "store_path", type=click.Path(exists=True), default=None, help="test_store.tf from generate-data --synthetic")
@click.option("--w", type=int, default=RunConfig.w, show_default=True)
@click.option("--h", type=int, default=RunConfig.h, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="optional metrics JSON")
def evaluate(cnn_path, data_dir, store_path, w, h, seed, out):
    """Classification and addition accuracy on the test split."""
    test_store = _store(store_path, data_dir, "test")
    test_corpus = ds.build_corpus(test_store, w, h, 1, seed=seed)
    metrics = clf.evaluate(clf.CnnParams.load(cnn_path), test_corpus, test_store)
    if out:
        save_json(_out_path(out), metrics)
    click.echo(json.dumps(metrics, sort_keys=True))


if __name__ == "__main__":
    main()
