import json
import re
import shlex
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from sumlearn.assignment import DigitAssignment
from sumlearn.cli import main
from sumlearn.pipeline import BOUNDS, RunConfig
from sumlearn.tensorfile import load_tensors, save_tensors

from conftest import identity_model, write_idx_pair

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


SYNTH = ["--synthetic", "--n-images", "480", "--dim", "196", "--seed", "0"]


def idx_dir(data, n, splits=("train", "t10k")):
    """`data` holding MNIST-named IDX pairs of `n` blank 14x14 images."""
    data.mkdir()
    for split in splits:
        for path in write_idx_pair(data, np.zeros((n, 14, 14)), np.arange(n) % 10):
            path.rename(data / path.name.replace("images", f"{split}-images").replace("labels", f"{split}-labels"))
    return data


class TestStageCommands:
    def test_full_stage_chain(self, tmp_path):
        out = str(tmp_path)
        r = run_cli("generate-data", "--w", "2", "--h", "1", "--out", out, *SYNTH)
        assert r.exit_code == 0, r.output
        assert (tmp_path / "corpus.txt").exists()
        assert (tmp_path / "store.tf").exists()
        assert (tmp_path / "test_store.tf").exists()

        r = run_cli(
            "embed", "--store", f"{out}/store.tf", "--backend", "pca",
            "--dim", "8", "--out", f"{out}/embedding.tf",
        )
        assert r.exit_code == 0, r.output

        r = run_cli(
            "cluster", "--embedding", f"{out}/embedding.tf", "--k", "10",
            "--out", f"{out}/cluster.tf",
        )
        assert r.exit_code == 0, r.output
        assert (tmp_path / "cluster_assignment.bin").exists()

        r = run_cli(
            "assign", "--corpus", f"{out}/corpus.txt", "--cluster", f"{out}/cluster.tf",
            "--batch-size", "30", "--out", f"{out}/assignment.json",
        )
        assert r.exit_code == 0, r.output
        obj = json.loads((tmp_path / "assignment.json").read_text())
        assert obj["objective"] == 0  # separable synthetic data solves exactly

        r = run_cli(
            "infer", "--corpus", f"{out}/corpus.txt", "--cluster", f"{out}/cluster.tf",
            "--assignment", f"{out}/assignment.json",
            "--out", f"{out}/labels.json",
        )
        assert r.exit_code == 0, r.output

        r = run_cli(
            "train", "--store", f"{out}/store.tf", "--labels", f"{out}/labels.bin",
            "--epochs", "10", "--out", f"{out}/cnn.tf",
        )
        assert r.exit_code == 0, r.output

        r = run_cli(
            "evaluate", "--cnn", f"{out}/cnn.tf", "--store", f"{out}/test_store.tf",
            "--w", "2", "--h", "1", "--out", f"{out}/metrics.json",
        )
        assert r.exit_code == 0, r.output
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["cls_acc"] == 1.0
        assert metrics["add_acc"] == 1.0


    def test_infer_refuses_ids_the_model_lacks(self, tmp_path):
        (tmp_path / "corpus.txt").write_text("1 2 5 0 7\n")
        identity_model([0, 1, 2]).save(tmp_path / "cluster.tf")
        DigitAssignment(digits=np.arange(3), objective=0).save(tmp_path / "assignment.json")
        r = run_cli(
            "infer", "--corpus", str(tmp_path / "corpus.txt"),
            "--cluster", str(tmp_path / "cluster.tf"),
            "--assignment", str(tmp_path / "assignment.json"),
            "--out", str(tmp_path / "labels.json"),
        )
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--corpus'" in r.output
        assert "example 0 references unclustered image ids" in r.output
        assert not (tmp_path / "labels.bin").exists()

    def test_infer_refuses_digit_out_of_range(self, tmp_path):
        (tmp_path / "corpus.txt").write_text("1 2 5 0 1\n")
        identity_model([0, 1, 2]).save(tmp_path / "cluster.tf")
        DigitAssignment(digits=np.array([0, 1, 12]), objective=0).save(tmp_path / "assignment.json")
        r = run_cli(
            "infer", "--corpus", str(tmp_path / "corpus.txt"),
            "--cluster", str(tmp_path / "cluster.tf"),
            "--assignment", str(tmp_path / "assignment.json"),
            "--out", str(tmp_path / "labels.json"),
        )
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--assignment'" in r.output
        assert "cluster 2 has digit 12, not an int in 0..9" in r.output
        assert not (tmp_path / "labels.bin").exists()


def test_evaluate_data_reads_only_the_t10k_pair(chain, tmp_path):
    data = idx_dir(tmp_path / "mnist", 4, splits=("t10k",))
    r = run_cli("evaluate", "--cnn", str(chain / "cnn.tf"), "--data", str(data), "--w", "2", "--h", "1",
                "--out", str(tmp_path / "metrics.json"))
    assert r.exit_code == 0, r.output
    assert set(json.loads((tmp_path / "metrics.json").read_text())) == {"cls_acc", "add_acc"}


def test_generate_data_writes_uint8_stores(chain):
    for name in ("store.tf", "test_store.tf"):
        assert load_tensors(chain / name)[1]["images"].dtype == np.uint8, name


class TestStageChainMatchesRun:
    """The stage subcommands and `run` share each stage's code, so at equal
    settings they write the same artifacts and score the same held-out
    test images."""

    SETTINGS = dict(w=2, h=2, seed=3, batch_size=50, backend="pca", classifier_epochs=4,
                    synthetic=True, synthetic_images=480, synthetic_dim=196)

    def test_same_artifacts_and_metrics(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.SETTINGS))
        run_dir = tmp_path / "run"
        r = run_cli("run", "--config", str(config), "--artifacts", str(run_dir),
                    "--reports", str(tmp_path / "reports"))
        assert r.exit_code == 0, r.output

        c = tmp_path / "stages"
        steps = [
            ("generate-data", "--synthetic", "--w", "2", "--h", "2", "--seed", "3",
             "--n-images", "480", "--dim", "196",
             "--out", f"{c}"),
            ("embed", "--store", f"{c}/store.tf", "--backend", "pca", "--seed", "3",
             "--out", f"{c}/embedding.tf"),
            ("cluster", "--embedding", f"{c}/embedding.tf", "--seed", "3", "--out", f"{c}/cluster.tf"),
            ("assign", "--corpus", f"{c}/corpus.txt", "--cluster", f"{c}/cluster.tf",
             "--batch-size", "50", "--out", f"{c}/assignment.json"),
            ("infer", "--corpus", f"{c}/corpus.txt", "--cluster", f"{c}/cluster.tf",
             "--assignment", f"{c}/assignment.json",
             "--out", f"{c}/labels.json"),
            ("train", "--store", f"{c}/store.tf", "--labels", f"{c}/labels.bin",
             "--epochs", "4", "--seed", "3", "--out", f"{c}/cnn.tf"),
            ("evaluate", "--cnn", f"{c}/cnn.tf", "--store", f"{c}/test_store.tf",
             "--w", "2", "--h", "2", "--seed", "3", "--out", f"{c}/metrics.json"),
        ]
        for step in steps:
            r = run_cli(*step)
            assert r.exit_code == 0, r.output

        for name in ("corpus.txt", "cluster_assignment.bin", "labels.bin"):
            assert (c / name).read_bytes() == (run_dir / name).read_bytes(), name
        for name in ("embedding.tf", "cluster.tf", "cnn.tf"):
            _, staged = load_tensors(c / name)
            _, ran = load_tensors(run_dir / name)
            assert staged.keys() == ran.keys(), name
            for key in ran:
                assert np.array_equal(staged[key], ran[key]), (name, key)
        staged = DigitAssignment.load(c / "assignment.json")
        ran = DigitAssignment.load(run_dir / "assignment.json")
        assert np.array_equal(staged.digits, ran.digits)
        assert staged.objective == ran.objective

        metrics = json.loads((c / "metrics.json").read_text())
        report = json.loads((tmp_path / "reports" / "report.json").read_text())
        assert metrics == {k: report["metrics"][k] for k in ("cls_acc", "add_acc")}


def readme_stage_chain():
    """The commands of the README's "Stage-by-stage CLI" code block."""
    section = README.read_text(encoding="utf-8").split("### Stage-by-stage CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in block.splitlines() if line.startswith("sumlearn ")]


def test_readme_stage_chain_runs(tmp_path, monkeypatch):
    commands = readme_stage_chain()
    assert [c[1] for c in commands] == [
        "generate-data", "embed", "cluster", "assign", "infer", "train", "evaluate",
    ]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        r = run_cli(*command[1:])
        assert r.exit_code == 0, (command, r.output)
    metrics = json.loads(r.output.strip().splitlines()[-1])
    assert metrics["cls_acc"] >= 0.99  # held-out images, the README's bar


@pytest.fixture(scope="module")
def mismatched(chain, tmp_path_factory):
    """A corpus.txt over 960 synthetic images and a k = 12 cluster.tf over
    `chain`'s 480-image embedding: each loads, but neither fits `chain`'s
    other inputs."""
    base = tmp_path_factory.mktemp("mismatched")
    for step in [
        ("generate-data", "--w", "2", "--h", "1", "--out", str(base), *SYNTH, "--n-images", "960"),
        ("cluster", "--embedding", str(chain / "embedding.tf"), "--k", "12", "--out", str(base / "cluster12.tf")),
    ]:
        r = run_cli(*step)
        assert r.exit_code == 0, r.output
    return base


@pytest.fixture(scope="module")
def unusable(tmp_path_factory):
    """Inputs that load but that their stage cannot use: an empty corpus, a
    w = 18 corpus whose batch sums pass the solver's int64 envelope, an
    embedding with a NaN row, and a store of no images with no labels."""
    base = tmp_path_factory.mktemp("unusable")
    (base / "empty.txt").write_text("")
    r = run_cli("generate-data", "--synthetic", "--w", "18", "--h", "1", "--n-images", "200", "--dim", "196",
                "--out", str(base / "w18"))
    assert r.exit_code == 0, r.output
    embedding = np.random.default_rng(0).random((40, 4))
    embedding[3] = np.nan
    save_tensors(base / "nan.tf", {"embedding": embedding})
    save_tensors(base / "empty_store.tf", {"images": np.zeros((0, 196), dtype=np.uint8),
                                           "true_labels": np.zeros(0, dtype=np.int64)})
    (base / "empty_labels.bin").write_bytes(b"")
    return base


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """generate-data through train once, as inputs for single-stage tests."""
    base = tmp_path_factory.mktemp("chain")
    out = str(base)
    steps = [
        ("generate-data", "--w", "2", "--h", "1", "--out", out, *SYNTH),
        ("embed", "--store", f"{out}/store.tf", "--backend", "pca", "--dim", "8",
         "--out", f"{out}/embedding.tf"),
        ("cluster", "--embedding", f"{out}/embedding.tf", "--k", "10", "--out", f"{out}/cluster.tf"),
        ("assign", "--corpus", f"{out}/corpus.txt", "--cluster", f"{out}/cluster.tf",
         "--batch-size", "30", "--out", f"{out}/assignment.json"),
        ("infer", "--corpus", f"{out}/corpus.txt", "--cluster", f"{out}/cluster.tf",
         "--assignment", f"{out}/assignment.json",
         "--out", f"{out}/labels.json"),
        ("train", "--store", f"{out}/store.tf", "--labels", f"{out}/labels.bin",
         "--epochs", "1", "--out", f"{out}/cnn.tf"),
    ]
    for step in steps:
        r = run_cli(*step)
        assert r.exit_code == 0, r.output
    return base


class TestOutputDirectories:
    # every stage command creates the directory its outputs go to
    @pytest.mark.parametrize(
        "args, outputs",
        [
            (["embed", "--store", "{c}/store.tf", "--backend", "autoencoder", "--epochs", "1",
              "--dim", "4", "--out", "{o}/embedding.tf"], ["embedding.tf", "autoencoder.tf"]),
            (["cluster", "--embedding", "{c}/embedding.tf", "--k", "4", "--out", "{o}/cluster.tf"],
             ["cluster.tf", "cluster_assignment.bin"]),
            (["assign", "--corpus", "{c}/corpus.txt", "--cluster", "{c}/cluster.tf",
              "--batch-size", "30", "--out", "{o}/assignment.json"], ["assignment.json"]),
            (["infer", "--corpus", "{c}/corpus.txt", "--cluster", "{c}/cluster.tf",
              "--assignment", "{c}/assignment.json", "--out", "{o}/summary/labels.json"],
             ["summary/labels.bin", "summary/labels.json"]),
            (["train", "--store", "{c}/store.tf", "--labels", "{c}/labels.bin", "--epochs", "1",
              "--out", "{o}/cnn.tf"], ["cnn.tf"]),
            (["evaluate", "--cnn", "{c}/cnn.tf", "--store", "{c}/test_store.tf", "--w", "2", "--h", "1",
              "--out", "{o}/metrics.json"], ["metrics.json"]),
        ],
        ids=["embed", "cluster", "assign", "infer", "train", "evaluate"],
    )
    def test_out_directory_created(self, chain, tmp_path, args, outputs):
        out = tmp_path / "missing" / "dir"
        r = run_cli(*(a.format(c=chain, o=out) for a in args))
        assert r.exit_code == 0, r.output
        for name in outputs:
            assert (out / name).exists()

    def test_embed_default_out_path(self, chain, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        r = run_cli("embed", "--store", str(chain / "store.tf"), "--backend", "autoencoder",
                    "--epochs", "1", "--dim", "4")
        assert r.exit_code == 0, r.output
        assert (tmp_path / "artifacts" / "embedding.tf").exists()
        assert (tmp_path / "artifacts" / "autoencoder.tf").exists()


class TestRunCommand:
    def test_run_synthetic(self, tmp_path):
        r = run_cli(
            "run", "--synthetic", "--w", "2", "--h", "2", "--backend", "pca",
            "--classifier-epochs", "6", "--seed", "0",
            "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"),
            "--config", _write_config(tmp_path),
        )
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["failure"] is None
        assert report["metrics"]["cls_acc"] == 1.0

    def test_run_fails_cleanly_without_data(self, tmp_path):
        r = CliRunner().invoke(
            main,
            ["run", "--data", str(tmp_path / "missing"),
             "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")],
        )
        assert r.exit_code == 1
        assert "FAILED at stage data" in r.output

    def test_misspelt_config_key_refused(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synthetic": True, "batchsize": 7}))
        r = CliRunner().invoke(
            main,
            ["run", "--config", str(config),
             "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")],
        )
        assert r.exit_code == 2
        assert "unknown config keys: batchsize" in r.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"synthetic": True, "batch_size": "7"}, "config key 'batch_size' must be int, got '7'"),
            ([1, 2], "must hold a JSON object, got list"),
        ],
        ids=["wrong-type", "not-an-object"],
    )
    def test_malformed_config_refused(self, tmp_path, content, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        r = CliRunner().invoke(
            main,
            ["run", "--config", str(config),
             "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")],
        )
        assert r.exit_code == 2
        assert message in r.output
        assert not (tmp_path / "a").exists()

    def test_config_that_is_not_json_refused(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{bad")
        r = run_cli("run", "--config", str(config), "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--config': Expecting property name" in r.output
        assert list(tmp_path.iterdir()) == [config]

    def test_env_var_supplies_data_dir(self, tmp_path):
        # SUMLEARN_DATA_DIR is picked up when neither --data nor --synthetic
        # is given; the missing dir then fails at the data stage, proving
        # the env value was used
        r = CliRunner().invoke(
            main,
            ["run", "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")],
            env={"SUMLEARN_DATA_DIR": str(tmp_path / "from-env")},
        )
        assert r.exit_code == 1
        assert "FAILED at stage data" in r.output
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["config"]["data_dir"] == str(tmp_path / "from-env")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args, alternative",
        [
            (["embed", "--backend", "pca"], "--store"),
            (["train", "--labels", "{labels}"], "--store"),
            (["evaluate", "--cnn", "{labels}"], "--store"),
            (["generate-data"], "--synthetic"),
            (["run"], "--synthetic"),
            (["sweep", "--w-list", "1"], "--synthetic"),
        ],
        ids=["embed", "train", "evaluate", "generate-data", "run", "sweep"],
    )
    def test_no_data_source(self, tmp_path, args, alternative):
        labels = tmp_path / "labels.bin"
        labels.write_bytes(b"")
        out = ["--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")]
        args = [arg.format(labels=labels) for arg in args] + (out if args[0] in ("run", "sweep") else [])
        r = run_cli(*args, env={"SUMLEARN_DATA_DIR": None})
        assert r.exit_code == 2, r.output
        for name in ("--data", alternative, "SUMLEARN_DATA_DIR"):
            assert name in r.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_train_label_outside_digits(self, chain, tmp_path, bad):
        labels = np.fromfile(chain / "labels.bin", dtype="<i8")
        labels[3] = bad
        labels.astype("<i8").tofile(tmp_path / "labels.bin")
        r = run_cli("train", "--store", str(chain / "store.tf"), "--labels", str(tmp_path / "labels.bin"),
                    "--epochs", "1", "--out", str(tmp_path / "cnn.tf"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--labels'" in r.output
        assert f"image 3 has label {bad}, outside 0..9" in r.output
        assert not (tmp_path / "cnn.tf").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "--w", "0"], "grid shape must be positive, got w=0, h=2"),
            (["run", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
            (["sweep", "--w-list", "1,0", "--h-list", "2"], "grid shape must be positive, got w=0, h=2"),
            (["generate-data", "--w", "0"], "grid shape must be positive, got w=0, h=2"),
            (["generate-data", "--factor", "0"], "oversample_factor must be >= 1, got 0"),
            (["generate-data", "--n-images", "3"],
             "a synthetic store needs one 2x2 grid (4 images), got 3 train and 400 test images"),
        ],
        ids=["run-w", "run-batch-size", "sweep-w", "generate-data-w", "generate-data-factor",
             "generate-data-n-images-below-grid"],
    )
    def test_invalid_config_refused_before_writing(self, tmp_path, args, message):
        out = {
            "run": ["--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")],
            "sweep": ["--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"),
                      "--csv", str(tmp_path / "sweep.csv")],
            "generate-data": ["--out", str(tmp_path / "a")],
        }[args[0]]
        r = run_cli(*args, "--synthetic", *out)
        assert r.exit_code == 2, r.output
        assert f"Error: {message}" in r.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"kmeans_k": 0}, "kmeans_k must be >= 1, got 0"),
            # k-means' stopping rule and the radius schedule are constants of the method
            ({"kmeans_max_iter": 0}, "Invalid value for '--config': unknown config keys: kmeans_max_iter"),
            ({"kmeans_n_init": 0}, "Invalid value for '--config': unknown config keys: kmeans_n_init"),
            ({"kmeans_tol": 1e-3}, "Invalid value for '--config': unknown config keys: kmeans_tol"),
            ({"radius_schedule": [1, 2]}, "Invalid value for '--config': unknown config keys: radius_schedule"),
            # so are the synthetic Gaussian's class count and separation
            ({"synthetic_clusters": 11}, "Invalid value for '--config': unknown config keys: synthetic_clusters"),
            ({"synthetic_separation": 0.0},
             "Invalid value for '--config': unknown config keys: synthetic_separation"),
            ({"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
            ({"autoencoder_epochs": -1}, "autoencoder_epochs must be >= 0, got -1"),
            ({"classifier_epochs": -1}, "classifier_epochs must be >= 0, got -1"),
            ({"synthetic_dim": 0}, "synthetic_dim must be >= 1, got 0"),
            ({"embed_dim": 900}, "embed_dim must be <= synthetic_dim 784 for PCA, got 900"),
        ],
        ids=["kmeans_k", "kmeans_max_iter", "kmeans_n_init", "kmeans_tol", "radius_schedule",
             "synthetic_clusters", "synthetic_separation", "embed_dim", "autoencoder_epochs",
             "classifier_epochs", "synthetic_dim", "embed_dim-above-pixels"],
    )
    def test_invalid_config_file_value_refused_before_writing(self, tmp_path, values, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synthetic": True, **values}))
        r = run_cli("run", "--config", str(config), "--backend", "pca",
                    "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"))
        assert r.exit_code == 2, r.output
        assert f"Error: {message}" in r.output
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize(
        "args, option",
        [
            (["embed", "--store", "{chain}/store.tf", "--dim", "0"], "--dim"),
            (["embed", "--store", "{chain}/store.tf", "--epochs", "-1"], "--epochs"),
            (["cluster", "--embedding", "{chain}/embedding.tf", "--k", "0"], "--k"),
            (["assign", "--corpus", "{chain}/corpus.txt", "--cluster", "{chain}/cluster.tf",
              "--batch-size", "0"], "--batch-size"),
            (["train", "--store", "{chain}/store.tf", "--labels", "{chain}/labels.bin",
              "--epochs", "-1"], "--epochs"),
            (["evaluate", "--cnn", "{chain}/cnn.tf", "--store", "{chain}/test_store.tf", "--w", "0"], "--w"),
            (["generate-data", "--synthetic", "--dim", "0"], "--dim"),
            (["generate-data", "--synthetic", "--n-images", "0"], "--n-images"),
            (["run", "--synthetic", "--backend", "pca", "--classifier-epochs", "-1"], "--classifier-epochs"),
            # bounds that depend on the data: the chain's 480 images of 196 pixels
            (["embed", "--store", "{chain}/store.tf", "--backend", "pca", "--dim", "500"], "--dim"),
            (["cluster", "--embedding", "{chain}/embedding.tf", "--k", "5000"], "--k"),
            (["evaluate", "--cnn", "{chain}/cnn.tf", "--store", "{chain}/test_store.tf", "--w", "20"], "--w"),
        ],
        ids=["embed-dim", "embed-epochs", "cluster-k", "assign-batch-size",
             "train-epochs", "evaluate-w", "generate-data-dim", "generate-data-n-images", "run-classifier-epochs",
             "embed-dim-above-pixels", "cluster-k-above-rows", "evaluate-w-overflow"],
    )
    def test_out_of_range_number_refused_before_writing(self, chain, tmp_path, args, option):
        out = {
            "run": ["--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r")],
            "generate-data": ["--out", str(tmp_path / "a")],
        }.get(args[0], ["--out", str(tmp_path / "a" / "result")])
        r = run_cli(*[arg.format(chain=chain) for arg in args], *out)
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{option}'" in r.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--n-clusters", "--separation"])
    def test_generate_data_gaussian_shape_flags_are_unknown(self, tmp_path, option):
        # the synthetic Gaussian's class count and separation are constants
        r = run_cli("generate-data", "--synthetic", option, "10", "--out", str(tmp_path / "a"))
        assert r.exit_code == 2, r.output
        assert "No such option" in r.output and option in r.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, option, message",
        [
            (["cluster", "--embedding", "{chain}/store.tf"], "--embedding", "store.tf: no tensor 'embedding'"),
            (["assign", "--corpus", "{chain}/corpus.txt", "--cluster", "{chain}/embedding.tf"], "--cluster",
             "embedding.tf: no tensor 'centroids'"),
            (["infer", "--corpus", "{chain}/corpus.txt", "--cluster", "{chain}/cluster.tf",
              "--assignment", "{chain}/corpus.txt"], "--assignment", "Extra data"),
            (["infer", "--corpus", "{chain}/store.tf", "--cluster", "{chain}/cluster.tf",
              "--assignment", "{chain}/assignment.json"], "--corpus", "codec can't decode"),
        ],
        ids=["embedding", "cluster", "assignment", "corpus"],
    )
    def test_stage_input_of_the_wrong_kind_refused(self, chain, tmp_path, args, option, message):
        r = run_cli(*[arg.format(chain=chain) for arg in args], "--out", str(tmp_path / "a" / "result.json"))
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{option}'" in r.output
        assert message in r.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, name, tensor, edit, message",
        [
            (["assign", "--corpus", "{chain}/corpus.txt", "--cluster", "{bad}"], "cluster.tf", "assignment",
             lambda a: np.r_[12, a[1:]], "puts image 0 in cluster 12, outside 0..9"),
            (["infer", "--corpus", "{chain}/corpus.txt", "--cluster", "{bad}", "--assignment",
              "{chain}/assignment.json"], "cluster.tf", "assignment",
             lambda a: np.r_[12, a[1:]], "puts image 0 in cluster 12, outside 0..9"),
            (["infer", "--corpus", "{chain}/corpus.txt", "--cluster", "{bad}", "--assignment",
              "{chain}/assignment.json"], "cluster.tf", "distance", lambda d: d[:-1],
             "tensors 'assignment' (480,) and 'distance' (479,) are not 1-D of one length"),
            (["cluster", "--embedding", "{bad}", "--k", "2"], "embedding.tf", "embedding", np.ravel,
             "tensor 'embedding' has shape (3840,), not a 2-D matrix"),
        ],
        ids=["assign-cluster-above-k", "infer-cluster-above-k", "infer-short-distance", "cluster-1d-embedding"],
    )
    def test_stage_input_whose_tensors_do_not_fit_refused(self, chain, tmp_path, args, name, tensor, edit, message):
        meta, tensors = load_tensors(chain / name)
        tensors[tensor] = edit(tensors[tensor])
        bad = tmp_path / "in" / name
        save_tensors(bad, tensors, meta=meta)
        option = args[args.index("{bad}") - 1]
        r = run_cli(*[arg.format(chain=chain, bad=bad) for arg in args], "--out", str(tmp_path / "a" / "result"))
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{option}'" in r.output
        assert message in r.output
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize(
        "args, option, message",
        [
            (["assign", "--corpus", "{big}/corpus.txt", "--cluster", "{chain}/cluster.tf"], "--corpus",
             "example 0 references unclustered image ids"),
            (["infer", "--corpus", "{big}/corpus.txt", "--cluster", "{chain}/cluster.tf",
              "--assignment", "{chain}/assignment.json"], "--corpus", "example 0 references unclustered image ids"),
            (["infer", "--corpus", "{chain}/corpus.txt", "--cluster", "{big}/cluster12.tf",
              "--assignment", "{chain}/assignment.json"], "--assignment", "assignment covers 10 clusters, model has 12"),
        ],
        ids=["assign-corpus-past-the-model", "infer-corpus-past-the-model", "infer-assignment-below-k"],
    )
    def test_stage_inputs_that_do_not_fit_each_other_refused(self, chain, mismatched, tmp_path, args, option, message):
        # each input loads on its own: a corpus over 960 images against a
        # 480-image model, or a k = 10 assignment against a k = 12 model
        r = run_cli(*[arg.format(chain=chain, big=mismatched) for arg in args],
                    "--out", str(tmp_path / "a" / "result.json"))
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{option}'" in r.output
        assert message in r.output
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args, option, message",
        [
            (["assign", "--corpus", "{bad}/empty.txt", "--cluster", "{chain}/cluster.tf"], "--corpus",
             "corpus is empty"),
            (["assign", "--corpus", "{bad}/w18/corpus.txt", "--cluster", "{chain}/cluster.tf"], "--corpus",
             "batch too large for exact int64 bounds"),
            (["cluster", "--embedding", "{bad}/nan.tf", "--k", "2"], "--embedding",
             "embedding row 3 has squared norm nan"),
            (["train", "--store", "{bad}/empty_store.tf", "--labels", "{bad}/empty_labels.bin", "--epochs", "1"],
             "--store", "the store holds no images to train on"),
        ],
        ids=["assign-empty-corpus", "assign-corpus-past-the-int64-envelope", "cluster-nan-embedding",
             "train-empty-store"],
    )
    def test_stage_input_the_stage_cannot_use_refused(self, chain, unusable, tmp_path, args, option, message):
        r = run_cli(*[arg.format(chain=chain, bad=unusable) for arg in args],
                    "--out", str(tmp_path / "a" / "result"))
        assert r.exit_code == 2, r.output
        assert f"Invalid value for '{option}'" in r.output
        assert message in r.output
        assert not any(tmp_path.iterdir())

    def test_evaluate_refuses_a_store_smaller_than_a_grid(self, chain, tmp_path):
        r = run_cli("evaluate", "--cnn", str(chain / "cnn.tf"), "--store", str(chain / "test_store.tf"),
                    "--w", "9", "--h", "50", "--out", str(tmp_path / "metrics.json"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--store': grid needs 450 images, store has 400" in r.output
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["generate-data", "evaluate"])
    def test_idx_store_smaller_than_a_grid_refused_as_data(self, chain, tmp_path, command):
        data = idx_dir(tmp_path / "mnist", 3)
        args = {"generate-data": [], "evaluate": ["--cnn", str(chain / "cnn.tf")]}[command]
        r = run_cli(command, "--data", str(data), *args, "--out", str(tmp_path / "out"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--data': grid needs 4 images, store has 3" in r.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mnist"]

    @pytest.mark.parametrize("fault", ["empty", "truncated"])
    @pytest.mark.parametrize("command", ["embed", "train", "evaluate", "generate-data"])
    def test_unreadable_idx_data_refused(self, chain, tmp_path, command, fault):
        role, prefix = ("test", "t10k") if command == "evaluate" else ("train", "train")  # the pair it reads
        data = tmp_path / "mnist"
        if fault == "empty":
            data.mkdir()
            message = f"no {role}_images IDX file under {data}"
        else:
            images = idx_dir(data, 8) / f"{prefix}-images-idx3-ubyte"
            images.write_bytes(images.read_bytes()[:100])
            message = f"truncated image data in {images}"
        args = {
            "embed": ["--backend", "pca", "--dim", "4"],
            "train": ["--labels", str(chain / "labels.bin"), "--epochs", "1"],
            "evaluate": ["--cnn", str(chain / "cnn.tf"), "--w", "2", "--h", "1"],
            "generate-data": [],
        }[command]
        r = run_cli(command, "--data", str(data), *args, "--out", str(tmp_path / "out"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--data'" in r.output
        assert message in r.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mnist"]

    def test_no_warning_outside_the_paper_grid_shapes(self, tmp_path):
        # w and h are refused only where the sums overflow int64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = run_cli("run", "--synthetic", "--w", "11", "--h", "1", "--backend", "pca",
                        "--classifier-epochs", "1", "--config", _write_config(tmp_path),
                        "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"))
        assert r.exit_code == 0, r.output
        assert "Warning" not in r.output

    @pytest.mark.parametrize("name", ["cluster.tf", "embedding.tf"])
    def test_evaluate_refuses_a_file_that_is_not_a_cnn(self, chain, tmp_path, name):
        r = run_cli("evaluate", "--cnn", str(chain / name), "--store", str(chain / "test_store.tf"),
                    "--out", str(tmp_path / "metrics.json"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--cnn'" in r.output
        assert f"{name}: no tensor 'W0'" in r.output
        assert not (tmp_path / "metrics.json").exists()

    def test_infer_refuses_out_named_labels_bin(self, chain, tmp_path):
        r = run_cli("infer", "--corpus", str(chain / "corpus.txt"), "--cluster", str(chain / "cluster.tf"),
                    "--assignment", str(chain / "assignment.json"), "--out", str(tmp_path / "labels.bin"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--out'" in r.output
        assert not any(tmp_path.iterdir())

    def test_evaluate_refuses_a_cnn_of_unknown_dtype(self, chain, tmp_path):
        line, body = (chain / "cnn.tf").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["tensors"][0]["dtype"] = "<q9"
        cnn = tmp_path / "cnn.tf"
        cnn.write_bytes(json.dumps(header).encode() + b"\n" + body)
        r = run_cli("evaluate", "--cnn", str(cnn), "--store", str(chain / "test_store.tf"),
                    "--out", str(tmp_path / "metrics.json"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--cnn'" in r.output
        assert "data type '<q9' not understood" in r.output
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize(
        "command, name",
        [("embed", "cnn.tf"), ("train", "cnn.tf"), ("evaluate", "embedding.tf")],
    )
    def test_store_that_is_not_a_store_refused(self, chain, tmp_path, command, name):
        args = {
            "embed": ["--backend", "pca", "--dim", "4"],
            "train": ["--labels", str(chain / "labels.bin"), "--epochs", "1"],
            "evaluate": ["--cnn", str(chain / "cnn.tf"), "--w", "2", "--h", "1"],
        }[command]
        out = tmp_path / "result"
        r = run_cli(command, "--store", str(chain / name), *args, "--out", str(out))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--store'" in r.output
        assert f"{name}: no tensor 'images', so not a store" in r.output
        assert not out.exists()

    def test_float_store_refused_by_pca(self, tmp_path):
        store = tmp_path / "store.tf"
        save_tensors(store, {"images": np.random.default_rng(0).random((40, 16)),
                             "true_labels": np.zeros(40, dtype=np.int64)})
        out = tmp_path / "out" / "embedding.tf"
        r = run_cli("embed", "--store", str(store), "--backend", "pca", "--dim", "4", "--out", str(out))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--store'" in r.output
        assert "PCA takes uint8 pixels, got float64 images" in r.output
        assert not out.parent.exists()

    def test_truncated_store_refused(self, chain, tmp_path):
        store = tmp_path / "store.tf"
        store.write_bytes((chain / "store.tf").read_bytes()[:100])
        r = run_cli("embed", "--store", str(store), "--backend", "pca", "--dim", "4",
                    "--out", str(tmp_path / "embedding.tf"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--store'" in r.output
        assert not (tmp_path / "embedding.tf").exists()

    @pytest.mark.parametrize(
        "dim, message",
        [(100, "the CNN needs images of side at least 14, got side 10"),
         (150, "classifier needs square images, store dim is 150")],
        ids=["side-10", "not-square"],
    )
    def test_train_refuses_images_the_cnn_cannot_take(self, tmp_path, dim, message):
        data = tmp_path / "data"
        r = run_cli("generate-data", "--synthetic", "--n-images", "40",
                    "--dim", str(dim), "--out", str(data))
        assert r.exit_code == 0, r.output
        np.zeros(40, dtype="<i8").tofile(tmp_path / "labels.bin")
        r = run_cli("train", "--store", str(data / "store.tf"), "--labels", str(tmp_path / "labels.bin"),
                    "--epochs", "1", "--out", str(tmp_path / "cnn.tf"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--store'" in r.output
        assert message in r.output
        assert not (tmp_path / "cnn.tf").exists()

    def test_evaluate_refuses_images_the_cnn_does_not_take(self, chain, tmp_path):
        data = tmp_path / "data"
        r = run_cli("generate-data", "--synthetic", "--n-images", "40",
                    "--dim", "100", "--out", str(data))
        assert r.exit_code == 0, r.output
        r = run_cli("evaluate", "--cnn", str(chain / "cnn.tf"), "--store", str(data / "test_store.tf"),
                    "--w", "2", "--h", "1", "--out", str(tmp_path / "metrics.json"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--store'" in r.output
        assert "images of 100 pixels; the CNN takes 14x14" in r.output
        assert not (tmp_path / "metrics.json").exists()

    def test_evaluate_refuses_a_cnn_for_images_below_the_minimum_side(self, chain, tmp_path):
        line, body = (chain / "cnn.tf").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["meta"]["side"] = 10
        cnn = tmp_path / "cnn.tf"
        cnn.write_bytes(json.dumps(header).encode() + b"\n" + body)
        r = run_cli("evaluate", "--cnn", str(cnn), "--store", str(chain / "test_store.tf"),
                    "--out", str(tmp_path / "metrics.json"))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--cnn'" in r.output
        assert "side at least 14, got side 10" in r.output
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("option", ["--w-list", "--h-list"])
    def test_sweep_list_not_integers(self, tmp_path, option):
        r = run_cli("sweep", option, "1,x", "--synthetic", "--csv", str(tmp_path / "sweep.csv"))
        assert r.exit_code == 2
        assert f"Invalid value for '{option}'" in r.output
        assert "'1,x'" in r.output
        assert not (tmp_path / "sweep.csv").exists()


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path):
        r = run_cli(
            "sweep", "--w-list", "1,2", "--h-list", "2",
            "--csv", str(tmp_path / "sweep.csv"),
            "--synthetic", "--backend", "pca", "--classifier-epochs", "6",
            "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"),
            "--config", _write_config(tmp_path),
        )
        assert r.exit_code == 0, r.output
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("w,h,factor,seed,purity")

    def test_csv_parent_created(self, tmp_path):
        csv_path = tmp_path / "missing" / "dir" / "sweep.csv"
        r = run_cli(
            "sweep", "--w-list", "1", "--h-list", "2", "--csv", str(csv_path),
            "--synthetic", "--backend", "pca", "--classifier-epochs", "0",
            "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"),
            "--config", _write_config(tmp_path),
        )
        assert r.exit_code == 0, r.output
        assert len(csv_path.read_text().strip().splitlines()) == 2

    def test_each_point_keeps_its_report(self, tmp_path):
        r = run_cli(
            "sweep", "--w-list", "1,2", "--h-list", "2", "--csv", str(tmp_path / "sweep.csv"),
            "--synthetic", "--backend", "pca", "--classifier-epochs", "0",
            "--artifacts", str(tmp_path / "a"), "--reports", str(tmp_path / "r"),
            "--config", _write_config(tmp_path),
        )
        assert r.exit_code == 0, r.output
        assert sorted(p.relative_to(tmp_path / "r").as_posix() for p in (tmp_path / "r").rglob("*.json")) == [
            "w1-h2/report.json", "w2-h2/report.json",
        ]
        for w in (1, 2):
            report = json.loads((tmp_path / "r" / f"w{w}-h2" / "report.json").read_text())
            assert (report["config"]["w"], report["config"]["h"], report["failure"]) == (w, 2, None)


class TestBoundTable:
    # every flag whose click type is a range: (command, parameter) -> the
    # RunConfig field it sets
    RANGED = {
        ("run", "autoencoder_epochs"): "autoencoder_epochs",
        ("run", "classifier_epochs"): "classifier_epochs",
        ("sweep", "autoencoder_epochs"): "autoencoder_epochs",
        ("sweep", "classifier_epochs"): "classifier_epochs",
        ("generate-data", "n_images"): "synthetic_images",
        ("generate-data", "dim"): "synthetic_dim",
        ("embed", "epochs"): "autoencoder_epochs",
        ("embed", "dim"): "embed_dim",
        ("cluster", "k"): "kmeans_k",
        ("assign", "batch_size"): "batch_size",
        ("train", "epochs"): "classifier_epochs",
    }

    def test_flag_ranges_come_from_the_bound_table(self):
        ranged = {
            (name, param.name): param.type
            for name, command in main.commands.items()
            for param in command.params
            if isinstance(param.type, (click.IntRange, click.FloatRange))
        }
        assert set(ranged) == set(self.RANGED)
        for key, kind in ranged.items():
            field = self.RANGED[key]
            assert RunConfig.__dataclass_fields__[field].type is int, key
            assert type(kind) is click.IntRange, key
            bound = {"min": BOUNDS[field], "max": None, "min_open": False, "max_open": False}
            assert {name: getattr(kind, name) for name in bound} == bound, key


def _write_config(tmp_path):
    """Small synthetic geometry so CLI tests stay fast."""
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "synthetic": True,
                "synthetic_images": 480,
                "synthetic_test_images": 160,
                "synthetic_dim": 196,
                "batch_size": 50,
            }
        )
    )
    return str(path)
