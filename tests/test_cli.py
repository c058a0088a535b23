import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sumlearn.assignment import DigitAssignment
from sumlearn.cli import main
from sumlearn.errors import ConsistencyError
from sumlearn.tensorfile import load_tensors

from conftest import identity_model

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


SYNTH = [
    "--synthetic", "--n-images", "480", "--n-clusters", "4",
    "--separation", "80", "--dim", "196", "--seed", "0",
]


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
            "cluster", "--embedding", f"{out}/embedding.tf", "--k", "4",
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
            "--out-labels", f"{out}/labels.bin", "--out-summary", f"{out}/labels.json",
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
        with pytest.raises(ConsistencyError, match="example 0 references unclustered image ids"):
            run_cli(
                "infer", "--corpus", str(tmp_path / "corpus.txt"),
                "--cluster", str(tmp_path / "cluster.tf"),
                "--assignment", str(tmp_path / "assignment.json"),
                "--out-labels", str(tmp_path / "labels.bin"),
                "--out-summary", str(tmp_path / "labels.json"),
            )
        assert not (tmp_path / "labels.bin").exists()

    def test_infer_refuses_digit_out_of_range(self, tmp_path):
        (tmp_path / "corpus.txt").write_text("1 2 5 0 1\n")
        identity_model([0, 1, 2]).save(tmp_path / "cluster.tf")
        DigitAssignment(digits=np.array([0, 1, 12]), objective=0).save(tmp_path / "assignment.json")
        r = CliRunner().invoke(main, [
            "infer", "--corpus", str(tmp_path / "corpus.txt"),
            "--cluster", str(tmp_path / "cluster.tf"),
            "--assignment", str(tmp_path / "assignment.json"),
            "--out-labels", str(tmp_path / "labels.bin"),
            "--out-summary", str(tmp_path / "labels.json"),
        ])
        assert r.exit_code != 0
        assert "cluster 2 has digit 12, not an int in 0..9" in str(r.exception)
        assert not (tmp_path / "labels.bin").exists()


class TestStageChainMatchesRun:
    """The stage subcommands and `run` share each stage's code, so at equal
    settings they write the same artifacts and score the same held-out
    test images."""

    SETTINGS = dict(w=2, h=2, seed=3, batch_size=50, backend="pca", classifier_epochs=4,
                    synthetic=True, synthetic_images=480, synthetic_clusters=10,
                    synthetic_separation=80.0, synthetic_dim=196)

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
             "--n-images", "480", "--n-clusters", "10", "--separation", "80", "--dim", "196",
             "--out", f"{c}"),
            ("embed", "--store", f"{c}/store.tf", "--backend", "pca", "--seed", "3",
             "--out", f"{c}/embedding.tf"),
            ("cluster", "--embedding", f"{c}/embedding.tf", "--seed", "3", "--out", f"{c}/cluster.tf"),
            ("assign", "--corpus", f"{c}/corpus.txt", "--cluster", f"{c}/cluster.tf",
             "--batch-size", "50", "--out", f"{c}/assignment.json"),
            ("infer", "--corpus", f"{c}/corpus.txt", "--cluster", f"{c}/cluster.tf",
             "--assignment", f"{c}/assignment.json",
             "--out-labels", f"{c}/labels.bin", "--out-summary", f"{c}/labels.json"),
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
def chain(tmp_path_factory):
    """generate-data through train once, as inputs for single-stage tests."""
    base = tmp_path_factory.mktemp("chain")
    out = str(base)
    steps = [
        ("generate-data", "--w", "2", "--h", "1", "--out", out, *SYNTH),
        ("embed", "--store", f"{out}/store.tf", "--backend", "pca", "--dim", "8",
         "--out", f"{out}/embedding.tf"),
        ("cluster", "--embedding", f"{out}/embedding.tf", "--k", "4", "--out", f"{out}/cluster.tf"),
        ("assign", "--corpus", f"{out}/corpus.txt", "--cluster", f"{out}/cluster.tf",
         "--batch-size", "30", "--out", f"{out}/assignment.json"),
        ("infer", "--corpus", f"{out}/corpus.txt", "--cluster", f"{out}/cluster.tf",
         "--assignment", f"{out}/assignment.json",
         "--out-labels", f"{out}/labels.bin", "--out-summary", f"{out}/labels.json"),
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
              "--assignment", "{c}/assignment.json", "--out-labels", "{o}/labels.bin",
              "--out-summary", "{o}/summary/labels.json"], ["labels.bin", "summary/labels.json"]),
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


def _write_config(tmp_path):
    """Small synthetic geometry so CLI tests stay fast."""
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "synthetic": True,
                "synthetic_images": 480,
                "synthetic_test_images": 160,
                "synthetic_clusters": 10,
                "synthetic_separation": 80.0,
                "synthetic_dim": 196,
                "batch_size": 50,
            }
        )
    )
    return str(path)
