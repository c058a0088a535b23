"""Command-line interface: `run` and `sweep` drive the pipeline, and each
stage subcommand is a thin wrapper that reads its inputs from files and
calls the same stage code as `run`, without resuming. Flags take their
ranges from `pipeline.BOUNDS`; a stage's `InputError` is a usage error on
the flag that set the field or input it names."""

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
from .errors import InputError
from .pipeline import BOUNDS, RunConfig, run_pipeline, sweep
from .tensorfile import load_int64, save_json

DATA_DIR_ENV = "SUMLEARN_DATA_DIR"

# the flag that sets each RunConfig field or input an InputError names
_FLAGS = {
    "embed_dim": "--dim", "kmeans_k": "--k",
    **{name: f"--{name}" for name in ("w", "h", "store", "labels", "cnn", "embedding", "cluster", "assignment", "corpus")},
}


def _data_dir(data_dir, alternative):
    """--data, else $SUMLEARN_DATA_DIR. With neither, a usage error that
    also names the command's `alternative` source of images."""
    data_dir = data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise click.UsageError(f"no data source: pass --data or {alternative}, or set {DATA_DIR_ENV}")
    return data_dir


def _read(name, load, source):
    """`load(source)`, which reads an input or checks one against the inputs
    read before it; a ValueError or OSError from it (a file that does not
    parse, is missing or does not fit the others) is an InputError naming
    `name`."""
    try:
        return load(source)
    except (ValueError, OSError) as exc:
        raise InputError(name, str(exc)) from exc


def _clustered_corpus(corpus_path, cluster_path):
    """--corpus and --cluster. A corpus that names an image the cluster
    model does not have is an InputError naming corpus."""
    corpus = _read("corpus", ds.load_corpus, corpus_path)
    model = _read("cluster", clu.ClusterModel.load, cluster_path)
    _read("corpus", lambda cells: ds.check_image_ids(*cells, len(model)), ds.grid_cells(corpus)[:2])
    return corpus, model


def _store(store_path, data_dir, split):
    """A store file from generate-data, else the split's IDX files."""
    if store_path:
        return _read("store", ds.load_store, store_path)
    return _read("store", lambda data: pl.idx_store(data, split), _data_dir(data_dir, "--store"))


def _validated(config):
    """`config` if `RunConfig.validate` accepts it, else a usage error."""
    try:
        config.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    return config


def _int_list(ctx, param, value):
    """A comma-separated option value as a list of ints."""
    try:
        return [int(item) for item in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


class _Command(click.Command):
    """A subcommand whose InputError is a usage error on the flag `_FLAGS`
    names; a store read from IDX files is the one `--data` names."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            flag = "--data" if exc.name == "store" and not ctx.params.get("store_path") else _FLAGS[exc.name]
            raise click.BadParameter(str(exc), ctx, param_hint=f"'{flag}'") from exc


@click.group()
def main():
    """Weakly supervised digit classification from grid-sum supervision."""


main.command_class = _Command  # so every subcommand refuses an InputError as a usage error


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
        click.option("--autoencoder-epochs", type=click.IntRange(**BOUNDS["autoencoder_epochs"]), default=None, help=f"[default: {RunConfig.autoencoder_epochs}]"),
        click.option("--classifier-epochs", type=click.IntRange(**BOUNDS["classifier_epochs"]), default=None, help=f"[default: {RunConfig.classifier_epochs}]"),
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
    # a flag left off (None, or no --synthetic) keeps the config file's value
    flags = {("oversample_factor" if key == "factor" else key): value
             for key, value in kwargs.items() if value is not None and value is not False}
    try:
        base = {}
        if config_file:
            with open(config_file, "r", encoding="utf-8") as f:
                base = json.load(f)
        if not isinstance(base, dict):
            raise ValueError(f"must hold a JSON object, got {type(base).__name__}")
        values = {**base, **flags}
        if not values.get("synthetic"):
            values["data_dir"] = _data_dir(values.get("data_dir"), "--synthetic")
        config = RunConfig.from_json(values)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from exc
    return _validated(config)


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
    configs = [_build_config(config_file, **{**kwargs, "w": w, "h": h}) for h in h_list for w in w_list]
    for config in configs:  # each point's report.json in a directory of its own
        config.reports_dir = str(Path(config.reports_dir, f"w{config.w}-h{config.h}"))
    reports = sweep(configs, csv_path)
    click.echo(f"{len(reports)} runs ({sum(1 for r in reports if r.failure)} failed) -> {csv_path}")


@main.command("generate-data")
@click.option("--w", type=int, default=RunConfig.w, show_default=True)
@click.option("--h", type=int, default=RunConfig.h, show_default=True)
@click.option("--factor", type=int, default=RunConfig.oversample_factor, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--synthetic", is_flag=True)
@click.option("--n-images", type=click.IntRange(**BOUNDS["synthetic_images"]), default=RunConfig.synthetic_images, show_default=True)
@click.option("--n-clusters", type=click.IntRange(**BOUNDS["synthetic_clusters"]), default=RunConfig.synthetic_clusters, show_default=True)
@click.option("--separation", type=click.FloatRange(**BOUNDS["synthetic_separation"]), default=RunConfig.synthetic_separation, show_default=True)
@click.option("--dim", type=click.IntRange(**BOUNDS["synthetic_dim"]), default=RunConfig.synthetic_dim, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), default=RunConfig.artifacts_dir, show_default=True)
def generate_data(w, h, factor, seed, data_dir, synthetic, n_images, n_clusters, separation, dim, out_dir):
    """Bundle images into sum-supervised examples; write corpus.txt.

    With --synthetic, also write the generated train and held-out test
    images as store.tf and test_store.tf, split as `run --synthetic` does.
    """
    config = _validated(RunConfig(
        w=w, h=h, oversample_factor=factor, seed=seed,
        data_dir=None if synthetic else _data_dir(data_dir, "--synthetic"), synthetic=synthetic,
        synthetic_images=n_images, synthetic_clusters=n_clusters,
        synthetic_separation=separation, synthetic_dim=dim,
    ))
    out = Path(out_dir)
    store, test_store = _read("store", pl.load_stores, config)
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
@click.option("--epochs", type=click.IntRange(**BOUNDS["autoencoder_epochs"]), default=RunConfig.autoencoder_epochs, show_default=True)
@click.option("--dim", type=click.IntRange(**BOUNDS["embed_dim"]), default=RunConfig.embed_dim, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/embedding.tf", show_default=True)
def embed(data_dir, store_path, backend, epochs, dim, seed, out):
    """Learn the 10-d representation (autoencoder or PCA fallback)."""
    config = RunConfig(backend=backend, autoencoder_epochs=epochs, embed_dim=dim, seed=seed)
    matrix = pl.embed_store(config, _store(store_path, data_dir, "train"), Path(out))
    click.echo(f"embedding {matrix.shape} -> {out}")


@main.command()
@click.option("--embedding", "embedding_path", type=click.Path(exists=True), required=True)
@click.option("--k", type=click.IntRange(**BOUNDS["kmeans_k"]), default=RunConfig.kmeans_k, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/cluster.tf", show_default=True)
def cluster(embedding_path, k, seed, out):
    """k-means with k-means++ seeding over the embedding."""
    model = clu.kmeans(_read("embedding", emb.load_embedding, embedding_path), k, seed=seed)
    model.save(Path(out))
    click.echo(f"k={k} clusters, inertia {model.inertia_history[-1]:.4g} -> {out}")


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--cluster", "cluster_path", type=click.Path(exists=True), required=True)
@click.option("--batch-size", type=click.IntRange(**BOUNDS["batch_size"]), default=RunConfig.batch_size, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/assignment.json", show_default=True)
def assign(corpus_path, cluster_path, batch_size, out):
    """Solve the per-batch integer program and vote the winner."""
    corpus, model = _clustered_corpus(corpus_path, cluster_path)
    result = asg.solve_corpus(corpus, model, batch_size=batch_size)
    result.save(out)
    click.echo(
        f"digits {list(map(int, result.digits))}, objective {result.objective}, "
        f"satisfied {result.satisfied_count}/{len(corpus)} -> {out}"
    )


@main.command()
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), required=True)
@click.option("--cluster", "cluster_path", type=click.Path(exists=True), required=True)
@click.option("--assignment", "assignment_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/labels.json", show_default=True, help="labels.bin goes beside it")
def infer(corpus_path, cluster_path, assignment_path, out):
    """Propagate labels through the sum constraints (radius schedule)."""
    if Path(out).name == "labels.bin":  # the summary would overwrite the labels
        raise click.BadParameter("names the summary, labels.json; labels.bin goes beside it", param_hint="'--out'")
    corpus, model = _clustered_corpus(corpus_path, cluster_path)
    state = _read("assignment", lambda path: inf.init_labels(model, asg.DigitAssignment.load(path)), assignment_path)
    state = inf.run_inference(state, corpus, model)
    inf.save_labels((state.labels, state.counts()), Path(out))
    click.echo(f"labels -> {out} and labels.bin beside it; {state.counts()}")


@main.command()
@click.option("--data", "data_dir", type=click.Path(), default=None)
@click.option("--store", "store_path", type=click.Path(exists=True), default=None)
@click.option("--labels", "labels_path", type=click.Path(exists=True), required=True)
@click.option("--epochs", type=click.IntRange(**BOUNDS["classifier_epochs"]), default=RunConfig.classifier_epochs, show_default=True)
@click.option("--seed", type=int, default=RunConfig.seed, show_default=True)
@click.option("--out", type=click.Path(), default=f"{RunConfig.artifacts_dir}/cnn.tf", show_default=True)
def train(data_dir, store_path, labels_path, epochs, seed, out):
    """Train the CNN on the inferred labels."""
    store = _store(store_path, data_dir, "train")
    labels = _read("labels", load_int64, labels_path)
    clf.train_cnn(pl.new_classifier(store, seed), store, labels, epochs, seed=seed).save(Path(out))
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
    cnn = _read("cnn", clf.CnnParams.load, cnn_path)
    metrics = clf.evaluate(cnn, ds.build_corpus(test_store, w, h, 1, seed=seed), test_store)
    if out:
        save_json(out, metrics)
    click.echo(json.dumps(metrics, sort_keys=True))


if __name__ == "__main__":
    main()
