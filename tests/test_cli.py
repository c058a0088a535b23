import json

import pytest
from click.testing import CliRunner

from sumlearn.cli import main


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
            "evaluate", "--cnn", f"{out}/cnn.tf", "--store", f"{out}/store.tf",
            "--w", "2", "--h", "1", "--out", f"{out}/metrics.json",
        )
        assert r.exit_code == 0, r.output
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["cls_acc"] == 1.0
        assert metrics["add_acc"] == 1.0


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
            (["evaluate", "--cnn", "{c}/cnn.tf", "--store", "{c}/store.tf", "--w", "2", "--h", "1",
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
