import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from sumlearn import assignment as asg
from sumlearn import classifier as clf
from sumlearn import cli
from sumlearn import clustering as clu
from sumlearn import dataset as ds
from sumlearn import embedding as emb
from sumlearn import inference as inf
from sumlearn import nn
from sumlearn import pipeline as pl
from sumlearn import tensorfile
from sumlearn.errors import ConsistencyError, InputError
from sumlearn.classifier import label_accuracy
from sumlearn.pipeline import SWEEP_COLUMNS, RunConfig, run_pipeline, sweep

from conftest import store_with_labels


def tiny_config(tmp_path, **overrides):
    base = dict(
        w=2,
        h=2,
        seed=0,
        batch_size=50,
        backend="pca",
        classifier_epochs=6,
        synthetic=True,
        synthetic_images=480,
        synthetic_test_images=160,
        synthetic_dim=196,
        artifacts_dir=str(tmp_path / "artifacts"),
        reports_dir=str(tmp_path / "reports"),
    )
    base.update(overrides)
    return RunConfig(**base)


def strip_timings(report):
    obj = report.to_json()
    obj["timings"] = None
    return json.dumps(obj, sort_keys=True)


def artifacts_without_keys(artifacts):
    """Each artifact's content with its recorded config_key left out."""
    out = {}
    for path in sorted(artifacts.iterdir()):
        if path.suffix == ".json":
            record = json.loads(path.read_text())
            record.pop("config_key", None)
            out[path.name] = record
        elif path.suffix == ".tf":
            meta, tensors = tensorfile.load_tensors(path)
            meta.pop("config_key", None)
            out[path.name] = (meta, {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in tensors.items()})
        else:
            out[path.name] = path.read_bytes()
    return out


# The stage constants that no stage key hashes. Change a value here, bump
# STAGE_FORMAT: an artifact made under the old value keeps its key
# otherwise, and is resumed as if it were made under the new one.
UNHASHED_STAGE_CONSTANTS = {
    (clf, "LR"): 0.01, (clf, "MOMENTUM"): 0.9, (clf, "BATCH"): 32,
    (emb, "LR"): 1e-3, (emb, "MOMENTUM"): 0.9, (emb, "BATCH"): 256,
    (emb, "ENCODER_WIDTHS"): (784, 500, 500, 2000, 10), (emb, "PCA_BLOCK"): 4096,
}


def test_unhashed_stage_constants_pinned_to_the_stage_format():
    assert pl.STAGE_FORMAT == 2
    for (module, name), value in UNHASHED_STAGE_CONSTANTS.items():
        assert getattr(module, name) == value, f"{module.__name__}.{name}"


class TestLabelAccuracy:
    def test_exact(self):
        store = store_with_labels([1, 2, 3])
        assert label_accuracy([1, 2, 3], store) == 1.0
        assert label_accuracy([1, 2, 9], store) == pytest.approx(2 / 3)

    def test_mismatch(self):
        store = store_with_labels([1, 2])
        with pytest.raises(ConsistencyError):
            label_accuracy([1, 2, 3], store)


class TestRunConfig:
    def test_refuses_int64_overflow(self):
        RunConfig(w=18, h=2, synthetic=True).validate()
        with pytest.raises(ValueError, match="overflow int64"):
            RunConfig(w=19, h=2, synthetic=True).validate()

    @pytest.mark.parametrize("field", ["synthetic_images", "synthetic_test_images"])
    def test_refuses_synthetic_store_smaller_than_a_grid(self, field):
        cfg = RunConfig(w=2, h=2, synthetic=True, **{field: 3})
        with pytest.raises(ValueError, match="needs one 2x2 grid"):
            cfg.validate()
        RunConfig(w=2, h=2, synthetic=True, **{field: 4}).validate()

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            RunConfig(batch_size=0, synthetic=True).validate()

    def test_requires_data_or_synthetic(self):
        with pytest.raises(ValueError):
            RunConfig().validate()

    def test_json_roundtrip(self):
        cfg = RunConfig(w=3, h=2, synthetic_dim=196, synthetic=True)
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_from_json_names_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys: batchsize, seeed"):
            RunConfig.from_json({"seeed": 1, "w": 2, "batchsize": 7})

    @pytest.mark.parametrize("key, value", [("seed", 1), ("data_dir", None), ("synthetic", False)])
    def test_from_json_accepts_fitting_types(self, key, value):
        assert getattr(RunConfig.from_json({key: value}), key) == value

    @pytest.mark.parametrize(
        "obj, key",
        [({"w": True}, "w"), ({"w": 2.0}, "w"), ({"synthetic_dim": "784"}, "synthetic_dim"),
         ({"synthetic": 1}, "synthetic"), ({"backend": None}, "backend"),
         ({"data_dir": 3}, "data_dir"), ({"kmeans_k": [1, 2]}, "kmeans_k"),
         ({"artifacts_dir": 3}, "artifacts_dir")],
    )
    def test_from_json_names_mistyped_key(self, obj, key):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            RunConfig.from_json(obj)

    def test_refuses_pca_code_wider_than_synthetic_images(self):
        with pytest.raises(ValueError, match="embed_dim must be <= synthetic_dim 784 for PCA, got 900"):
            RunConfig(synthetic=True, backend="pca", embed_dim=900).validate()
        RunConfig(synthetic=True, backend="pca", embed_dim=784).validate()
        RunConfig(synthetic=True, backend="autoencoder", embed_dim=900).validate()  # a wide code

    # a value other than the default for each field a stage key hashes
    ALTERED = {
        "w": 3, "h": 3, "oversample_factor": 2, "seed": 1, "batch_size": 50, "backend": "pca",
        "autoencoder_epochs": 5, "embed_dim": 8, "kmeans_k": 4, "classifier_epochs": 2, "synthetic": False,
        "synthetic_images": 500, "synthetic_test_images": 100, "synthetic_dim": 196, "data_dir": "elsewhere",
    }

    @staticmethod
    def stage_keys(cfg):
        return [cfg.store_key(), cfg.corpus_key(), cfg.embed_key(), cfg.cluster_key(), cfg.assign_key(),
                cfg.infer_key(), cfg.train_key()]

    def test_every_field_but_the_output_dirs_moves_a_stage_key(self):
        fields = set(RunConfig.__dataclass_fields__)
        assert set(self.ALTERED) == fields - {"artifacts_dir", "reports_dir"}
        for name, value in self.ALTERED.items():
            # data_dir is hashed only for IDX data, the synthetic_* fields only for synthetic data
            base = RunConfig(synthetic=name != "data_dir", data_dir="mnist")
            assert getattr(base, name) != value, name
            moved = dataclasses.replace(base, **{name: value})
            assert self.stage_keys(moved) != self.stage_keys(base), name
        base = RunConfig(synthetic=True)
        for name in ("artifacts_dir", "reports_dir"):
            assert self.stage_keys(dataclasses.replace(base, **{name: "elsewhere"})) == self.stage_keys(base)

    @pytest.mark.parametrize("seed, key", [(0, "705984147b7108dd"), (1, "b989c85014eabcc9")])
    def test_default_synthetic_store_key_pinned(self, seed, key):
        # the Gaussian's class count and separation hash as "clusters": 10 and
        # "separation": 60.0, so synthetic artifacts already on disk keep their keys
        assert RunConfig(synthetic=True, seed=seed).store_key() == key

    def test_embed_key_independent_of_grid_shape(self):
        a = RunConfig(w=1, h=2, synthetic=True)
        b = RunConfig(w=8, h=4, synthetic=True)
        assert a.embed_key() == b.embed_key()
        assert a.corpus_key() != b.corpus_key()


class TestRunPipeline:
    def test_synthetic_end_to_end_all_perfect(self, tmp_path):
        report = run_pipeline(tiny_config(tmp_path))
        assert report.failure is None
        m = report.metrics
        assert m["purity"] == 1.0
        assert m["label_acc_pre"] == 1.0
        assert m["label_acc_post"] == 1.0
        assert m["objective"] == 0
        assert m["satisfied"] == 120
        assert m["cls_acc"] == 1.0
        assert m["add_acc"] == 1.0
        assert (tmp_path / "reports" / "report.json").exists()
        for name in ("corpus.txt", "embedding.tf", "cluster.tf", "assignment.json",
                     "labels.bin", "labels.json", "cnn.tf"):
            assert (tmp_path / "artifacts" / name).exists()
        assert not (tmp_path / "artifacts" / "corpus.json").exists()  # nothing would read it

    def test_total_time_is_sum_of_four_stages(self, tmp_path):
        report = run_pipeline(tiny_config(tmp_path))
        t = report.timings
        assert t["t_total"] == pytest.approx(
            t["t_cluster"] + t["t_assign"] + t["t_infer"] + t["t_train"]
        )
        assert "t_embed" in t  # reported separately, excluded from the total

    def test_reproducible_reports(self, tmp_path):
        import shutil

        cfg = tiny_config(tmp_path)
        a = run_pipeline(cfg)
        shutil.rmtree(cfg.artifacts_dir)  # force a full recompute, same config
        b = run_pipeline(cfg)
        assert strip_timings(a) == strip_timings(b)

    def test_resume_skips_completed_stages(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)

        def boom(*args, **kwargs):
            raise AssertionError("stage should have been resumed from artifact")

        monkeypatch.setattr(emb, "pca_embed", boom)
        monkeypatch.setattr(clu, "kmeans", boom)
        monkeypatch.setattr(asg, "solve_corpus", boom)
        monkeypatch.setattr(inf, "run_inference", boom)
        monkeypatch.setattr(clf, "train_cnn", boom)
        warm = run_pipeline(cfg)
        assert warm.failure is None
        assert strip_timings(warm) == strip_timings(cold)

    def test_resume_refuses_mismatched_hash(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        run_pipeline(cfg)
        # a different seed invalidates every stage hash: artifacts must be
        # recomputed, not loaded
        recomputed = {"n": 0}
        original = clu.kmeans

        def counting(*args, **kwargs):
            recomputed["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(clu, "kmeans", counting)
        other = tiny_config(tmp_path, seed=1)
        run_pipeline(other)
        assert recomputed["n"] == 1

    def test_previous_stage_format_recomputed(self, tmp_path, monkeypatch):
        # artifacts keyed under the previous STAGE_FORMAT are not resumed
        cfg = tiny_config(tmp_path)

        def stage_keys():
            return {cfg.corpus_key(), cfg.embed_key(), cfg.cluster_key(), cfg.assign_key(),
                    cfg.infer_key(), cfg.train_key()}

        with monkeypatch.context() as m:
            m.setattr(pl, "STAGE_FORMAT", pl.STAGE_FORMAT - 1)
            old_keys = stage_keys()
            old = run_pipeline(cfg)
        artifacts = tmp_path / "artifacts"
        before = artifacts_without_keys(artifacts)
        assert not old_keys & stage_keys()

        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for module, name in [(emb, "pca_embed"), (clu, "kmeans"), (asg, "solve_corpus"),
                             (inf, "run_inference"), (clf, "train_cnn")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        new = run_pipeline(cfg)
        assert calls == ["pca_embed", "kmeans", "solve_corpus", "run_inference", "train_cnn"]
        assert strip_timings(new) == strip_timings(old)
        assert artifacts_without_keys(artifacts) == before

    @pytest.mark.parametrize(
        "module, name, value, artifact, key",
        [(clu, "MAX_ITER", 1, "cluster.tf", "cluster_key"), (inf, "RADII", (5,), "labels.json", "infer_key")],
        ids=["kmeans-max-iter", "inference-radii"],
    )
    def test_hashed_constant_changes_the_stage_output_and_key(
        self, tmp_path, monkeypatch, module, name, value, artifact, key
    ):
        cfg = tiny_config(tmp_path)
        run_pipeline(cfg)
        artifacts = tmp_path / "artifacts"
        before, old_key = artifacts_without_keys(artifacts)[artifact], getattr(cfg, key)()
        monkeypatch.setattr(module, name, value)
        assert getattr(cfg, key)() != old_key
        assert run_pipeline(cfg).failure is None
        assert artifacts_without_keys(artifacts)[artifact] != before

    def test_truncated_labels_recomputed(self, tmp_path):
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        labels_bin = tmp_path / "artifacts" / "labels.bin"
        size = labels_bin.stat().st_size
        with open(labels_bin, "r+b") as f:
            f.truncate(size - 8)  # one label short; labels.json still matches
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert labels_bin.stat().st_size == size

    @pytest.mark.parametrize(
        "name",
        ["embedding.tf", "autoencoder.tf", "cluster.tf", "assignment.json", "labels.json", "cnn.tf"],
    )
    def test_truncated_artifact_recomputed(self, tmp_path, name):
        # every artifact `cached` resumes; labels.bin is the test above
        overrides = {"backend": "autoencoder", "autoencoder_epochs": 1} if name == "autoencoder.tf" else {}
        cfg = tiny_config(tmp_path, **overrides)
        cold = run_pipeline(cfg)
        path = tmp_path / "artifacts" / name
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # a tensor file keeps its header and key
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert path.read_bytes() == whole

    def test_other_networks_weights_recomputed(self, tmp_path):
        # cnn.tf holding the autoencoder's tensors under the CNN's key
        cfg = tiny_config(tmp_path, backend="autoencoder", autoencoder_epochs=1)
        cold = run_pipeline(cfg)
        artifacts = tmp_path / "artifacts"
        whole = (artifacts / "cnn.tf").read_bytes()
        meta, tensors = tensorfile.load_tensors(artifacts / "autoencoder.tf")
        meta["config_key"] = cfg.train_key()
        tensorfile.save_tensors(artifacts / "cnn.tf", tensors, meta=meta)
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert (artifacts / "cnn.tf").read_bytes() == whole

    @pytest.mark.parametrize("bad", ["digit 12", "not a list"])
    def test_bad_digits_recomputed(self, tmp_path, bad):
        # a hand-edited assignment.json keeps its key but not digits in 0..9
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        path = tmp_path / "artifacts" / "assignment.json"
        whole = path.read_bytes()
        edited = json.loads(whole)
        edited["digits"] = 5 if bad == "not a list" else [12] + edited["digits"][1:]
        path.write_text(json.dumps(edited))
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("tensor", ["assignment", "distance"])
    def test_cluster_model_whose_tensors_do_not_fit_recomputed(self, tmp_path, tensor):
        # a hand-edited cluster.tf keeps its key, but an assignment outside
        # 0..k-1 or a distance per image fewer would fail assign or infer
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        path = tmp_path / "artifacts" / "cluster.tf"
        whole = path.read_bytes()
        meta, tensors = tensorfile.load_tensors(path)
        if tensor == "assignment":
            tensors["assignment"][0] = meta["k"]
        else:
            tensors["distance"] = tensors["distance"][:-1]
        tensorfile.save_tensors(path, tensors, meta=meta)
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize(
        "name, key, value, load",
        [
            ("assignment.json", "objective", [1], asg.DigitAssignment.load),
            ("labels.json", "cluster", None, inf.load_labels),
        ],
    )
    def test_mistyped_artifact_recomputed(self, tmp_path, name, key, value, load):
        # a hand-edited JSON artifact keeps its key but not the type of a field
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        path = tmp_path / "artifacts" / name
        whole = path.read_bytes()
        path.write_text(json.dumps({**json.loads(whole), key: value}))
        with pytest.raises(ValueError, match=f"{key} must be an int"):
            load(path)
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("name", ["assignment.json", "labels.json", "embedding.tf", "cnn.tf"])
    def test_non_object_json_artifact_recomputed(self, tmp_path, name):
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        path = tmp_path / "artifacts" / name
        whole = path.read_bytes()
        path.write_text("[1]")
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda header: header["tensors"][0].update(dtype="<q9"), "data type '<q9' not understood"),
            (lambda header: header["tensors"][0].update(shape=[480, "10"]), "shape that is not a list of ints"),
            (lambda header: header.update(tensors=5), "malformed tensor header"),
            (lambda header: header.update(meta=[1]), "not a tensor file"),
        ],
        ids=["dtype", "shape", "tensors", "meta"],
    )
    def test_malformed_tensor_header_recomputed(self, tmp_path, edit, message):
        # a hand-edited embedding.tf header that cannot be read
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        path = tmp_path / "artifacts" / "embedding.tf"
        whole = path.read_bytes()
        line, body = whole.split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match=message):
            tensorfile.peek_meta(path)
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert path.read_bytes() == whole

    @pytest.mark.parametrize(
        "name", ["embedding.tf", "cluster.tf", "assignment.json", "labels.json", "labels.bin", "cnn.tf"]
    )
    def test_failed_write_keeps_previous_artifact(self, tmp_path, monkeypatch, name):
        # a writer that dies half way through leaves the old artifact whole
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        artifacts = tmp_path / "artifacts"
        before = {p.name: p.read_bytes() for p in artifacts.iterdir()}

        class HalfThenFail:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr(tensorfile, "open", lambda *a, **kw: HalfThenFail(open(*a, **kw)), raising=False)
            path = artifacts / name
            with pytest.raises(OSError, match="disk full"):
                if name == "labels.bin":
                    inf.save_labels((np.zeros(480, dtype=np.int64), {}), artifacts / "other.json")
                elif path.suffix == ".tf":
                    tensorfile.save_tensors(path, {"x": np.arange(1000.0)}, meta={"config_key": "other"})
                else:
                    tensorfile.save_json(path, {"config_key": "other", "pad": list(range(1000))})

        assert {p.name: p.read_bytes() for p in artifacts.iterdir()} == before  # no temp file left

        def boom(*args, **kwargs):
            raise AssertionError("stage should have been resumed from artifact")

        monkeypatch.setattr(emb, "pca_embed", boom)
        monkeypatch.setattr(clu, "kmeans", boom)
        monkeypatch.setattr(asg, "solve_corpus", boom)
        monkeypatch.setattr(inf, "run_inference", boom)
        monkeypatch.setattr(clf, "train_cnn", boom)
        warm = run_pipeline(cfg)
        assert warm.failure is None
        assert strip_timings(warm) == strip_timings(cold)

    def test_inference_radii_reported(self, tmp_path):
        report = run_pipeline(tiny_config(tmp_path))
        radii = report.metrics["inference_radii"]
        assert [r["radius"] for r in radii] == [1, 2, 3, 4, 5]
        assert sum(r["inferred"] for r in radii) == report.metrics["provenance_counts"]["inferred"]
        assert sum(r["trusted"] for r in radii) == report.metrics["provenance_counts"]["radius"]
        assert all(r["passes"] >= 1 for r in radii)
        summary = json.loads((tmp_path / "artifacts" / "labels.json").read_text())
        assert summary["inference_radii"] == radii

    def test_labels_json_without_radii_recomputed(self, tmp_path):
        # a labels.json from before the per-radius record keeps its key
        cfg = tiny_config(tmp_path)
        cold = run_pipeline(cfg)
        labels_json = tmp_path / "artifacts" / "labels.json"
        labels_bin = tmp_path / "artifacts" / "labels.bin"
        whole, labels = labels_json.read_bytes(), labels_bin.read_bytes()
        summary = json.loads(whole)
        del summary["inference_radii"]
        labels_json.write_text(json.dumps(summary))
        rerun = run_pipeline(cfg)
        assert rerun.failure is None
        assert strip_timings(rerun) == strip_timings(cold)
        assert labels_json.read_bytes() == whole
        assert labels_bin.read_bytes() == labels

    def test_embedding_reused_across_grid_shapes(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = emb.pca_embed

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(emb, "pca_embed", counting)
        run_pipeline(tiny_config(tmp_path, w=2, h=2))
        run_pipeline(tiny_config(tmp_path, w=1, h=2))
        assert calls["n"] == 1  # second run resumed the embedding artifact

    def test_images_below_the_cnn_minimum_fail_at_train(self, tmp_path):
        report = run_pipeline(tiny_config(tmp_path, synthetic_dim=100))  # 10x10 images
        assert report.failure["stage"] == "train"
        assert "the CNN needs images of side at least 14, got side 10" in report.failure["error"]

    def test_failure_marker_and_partial_report(self, tmp_path):
        cfg = tiny_config(tmp_path, synthetic_dim=10)  # not a square image
        report = run_pipeline(cfg)
        assert report.failure is not None
        assert report.failure["stage"] == "train"
        assert "square" in report.failure["error"]
        assert report.metrics == {}  # evaluation never ran

    def test_missing_data_dir_fails_at_data_stage(self, tmp_path):
        cfg = RunConfig(
            data_dir=str(tmp_path / "nope"),
            artifacts_dir=str(tmp_path / "artifacts"),
            reports_dir=str(tmp_path / "reports"),
        )
        report = run_pipeline(cfg)
        assert report.failure["stage"] == "data"

    # each stage with the call, made through its module, that does its work
    STAGE_CALLS = [
        ("data", pl, "load_stores"),
        ("embed", emb, "pca_embed"),
        ("cluster", clu, "kmeans"),
        ("assign", asg, "solve_corpus"),
        ("infer", inf, "run_inference"),
        ("train", clf, "train_cnn"),
        ("evaluate", clf, "evaluate"),
    ]

    @pytest.mark.parametrize("index", range(len(STAGE_CALLS)), ids=[s[0] for s in STAGE_CALLS])
    def test_failure_names_its_stage(self, tmp_path, monkeypatch, index):
        stage, module, name = self.STAGE_CALLS[index]

        def boom(*args, **kwargs):
            raise RuntimeError(f"{name} broke")

        monkeypatch.setattr(module, name, boom)
        report = run_pipeline(tiny_config(tmp_path))
        assert report.failure == {
            "stage": stage,
            "error": f"RuntimeError: {name} broke",
            "where": f"test_pipeline.py:{boom.__code__.co_firstlineno + 1} in boom",
        }
        earlier = [s for s, _, _ in self.STAGE_CALLS[:index]]
        assert set(report.timings) == {f"t_{s}" for s in earlier} | {"t_total"}
        if stage != "evaluate":
            assert report.metrics == {}
        saved = json.loads((tmp_path / "reports" / "report.json").read_text())
        assert saved["failure"] == report.failure


class TestStageRefusals:
    """A bound that depends on the data is refused by the stage that reads
    the data, with an InputError naming the RunConfig field, before any file
    is written; `run` records it as that stage's failure."""

    def test_embed_store_refuses_pca_dim_above_pixels(self, tmp_path):
        store = ds.normalize_unit(ds.generate_synthetic(40, 4, 80.0, 16, seed=0))
        with pytest.raises(InputError, match="got 17") as refused:
            pl.embed_store(RunConfig(backend="pca", embed_dim=17), store, tmp_path / "out" / "embedding.tf")
        assert refused.value.name == "embed_dim"
        assert not any(tmp_path.iterdir())
        assert pl.embed_store(RunConfig(backend="pca", embed_dim=16), store, tmp_path / "embedding.tf").shape == (40, 16)

    def test_fit_clusters_refuses_k_above_rows(self):
        matrix = np.arange(10.0).reshape(5, 2)
        with pytest.raises(InputError, match="k=6 exceeds number of points 5") as refused:
            clu.kmeans(matrix, 6)
        assert refused.value.name == "kmeans_k"
        assert clu.kmeans(matrix, 5).k == 5

    @pytest.mark.parametrize(
        "stage, overrides, error, absent",
        [
            ("embed", {"embed_dim": 785}, "InputError: dim must be in [1, 784], got 785", "embedding.tf"),
            ("cluster", {"kmeans_k": 601}, "InputError: k=601 exceeds number of points 600", "cluster.tf"),
        ],
        ids=["embed_dim", "kmeans_k"],
    )
    def test_run_records_the_refusal_as_a_stage_failure(self, tmp_path, stage, overrides, error, absent):
        cfg = RunConfig(
            backend="pca", data_dir=str(TestMnistFormatPath.fake_mnist_dir(tmp_path)),
            artifacts_dir=str(tmp_path / "artifacts"), reports_dir=str(tmp_path / "reports"), **overrides,
        )
        report = run_pipeline(cfg)
        assert (report.failure["stage"], report.failure["error"]) == (stage, error)
        saved = json.loads((tmp_path / "reports" / "report.json").read_text())
        assert saved["failure"] == report.failure
        assert not (tmp_path / "artifacts" / absent).exists()


class TestMnistFormatPath:
    """Exercise the IDX data path end to end with lookalike files."""

    @staticmethod
    def fake_mnist_dir(tmp_path, n_train=600, n_test=200, seed=0):
        # ten distinguishable 28x28 patterns standing in for digits
        from conftest import write_idx_pair

        rng = np.random.default_rng(0)
        positions = [(r, c) for r in (2, 16) for c in (1, 6, 11, 16, 21)]

        def make(n, seed):
            g = np.random.default_rng(seed)
            labels = np.tile(np.arange(10), n // 10 + 1)[:n]
            labels = labels[g.permutation(n)]
            images = (g.random((n, 28, 28)) * 40).astype(np.uint8)
            for i, lab in enumerate(labels):
                r, c = positions[lab]
                images[i, r : r + 9, c : c + 6] = 220
            return images, labels.astype(np.uint8)

        data = tmp_path / "mnist"
        data.mkdir()
        splits = {"train": (n_train, 1 + 10 * seed), "t10k": (n_test, 2 + 10 * seed)}
        for split, (n, split_seed) in splits.items():
            images, labels = make(n, split_seed)
            img, lbl = write_idx_pair(data, images, labels, gz=(split == "t10k"))
            img.rename(data / f"{split}-images-idx3-ubyte{'.gz' if split == 't10k' else ''}")
            lbl.rename(data / f"{split}-labels-idx1-ubyte{'.gz' if split == 't10k' else ''}")
        return data

    def test_idx_data_path_end_to_end(self, tmp_path):
        data = self.fake_mnist_dir(tmp_path)
        cfg = RunConfig(
            w=2,
            h=2,
            backend="pca",
            classifier_epochs=8,
            batch_size=50,
            data_dir=str(data),
            artifacts_dir=str(tmp_path / "artifacts"),
            reports_dir=str(tmp_path / "reports"),
        )
        report = run_pipeline(cfg)
        assert report.failure is None
        assert report.metrics["purity"] == 1.0  # patterns are separable
        assert report.metrics["cls_acc"] >= 0.99
        assert report.metrics["add_acc"] >= 0.99
        report_obj = json.loads((tmp_path / "reports" / "report.json").read_text())
        assert report_obj["metrics"]["purity"] == 1.0

    def test_idx_store_reads_only_its_split(self, tmp_path):
        data = self.fake_mnist_dir(tmp_path, n_train=20, n_test=20)
        for path in data.glob("train-*"):
            path.unlink()
        assert len(pl.idx_store(data, "test")) == 20
        for find in (lambda: pl.idx_store(data, "train"), lambda: pl.find_idx_files(data)):
            with pytest.raises(FileNotFoundError, match="no train_images IDX file"):
                find()


class TestLoadStores:
    def test_synthetic_split_is_two_views_of_one_array(self, tmp_path):
        config = tiny_config(tmp_path)
        store, test_store = pl.load_stores(config)
        assert store.images.dtype == np.uint8
        buffer = store.images.base  # disjoint rows of it, so the two views never overlap
        assert buffer.nbytes == store.images.nbytes + test_store.images.nbytes
        assert np.shares_memory(buffer, store.images) and np.shares_memory(buffer, test_store.images)
        n = config.synthetic_images
        full = ds.normalize_unit(ds.generate_synthetic(
            n + config.synthetic_test_images, pl.SYNTHETIC_CLUSTERS,
            pl.SYNTHETIC_SEPARATION, config.synthetic_dim, seed=config.seed,
        ))
        for got, rows in ((store, np.arange(n)), (test_store, np.arange(n, len(full)))):
            want = full.subset(rows)
            assert got.images.dtype == want.images.dtype and got.images.shape == want.images.shape
            assert got.images.tobytes() == want.images.tobytes()
            assert np.array_equal(got.evaluation_labels(), want.evaluation_labels())


class TestSweep:
    def test_csv_header_and_rows(self, tmp_path):
        configs = [
            tiny_config(tmp_path, w=1, h=2, reports_dir=str(tmp_path / "r1")),
            tiny_config(tmp_path, w=2, h=2, reports_dir=str(tmp_path / "r2")),
        ]
        csv_path = tmp_path / "sweep.csv"
        reports = sweep(configs, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "2"
        assert all(r.failure is None for r in reports)

    def test_failing_config_does_not_abort(self, tmp_path):
        configs = [
            tiny_config(tmp_path, synthetic_dim=10, reports_dir=str(tmp_path / "r1")),
            tiny_config(tmp_path, reports_dir=str(tmp_path / "r2")),
        ]
        csv_path = tmp_path / "sweep.csv"
        reports = sweep(configs, csv_path)
        assert reports[0].failure is not None
        assert reports[1].failure is None
        assert len(csv_path.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("dirs", [("a", "a", "a"), ("a", "a", "b")])
    def test_loads_each_store_once(self, tmp_path, monkeypatch, dirs):
        data = {}  # in first-use order
        for seed, name in enumerate(dict.fromkeys(dirs)):
            (tmp_path / name).mkdir()
            data[name] = TestMnistFormatPath.fake_mnist_dir(tmp_path / name, seed=seed)
        configs = [
            RunConfig(
                w=w, h=2, backend="pca", classifier_epochs=0, batch_size=50,
                data_dir=str(data[name]), artifacts_dir=str(tmp_path / "swept"),
                reports_dir=str(tmp_path / f"reports{w}"),
            )
            for w, name in zip((1, 2, 4), dirs)
        ]
        calls, load_idx = [], ds.load_idx

        def counting(images_path, labels_path):
            images_path = Path(images_path)
            calls.append((images_path.parent, "test" if images_path.name.startswith("t10k") else "train"))
            return load_idx(images_path, labels_path)

        monkeypatch.setattr(ds, "load_idx", counting)  # where the pipeline looks it up
        reports = sweep(configs, tmp_path / "sweep.csv")

        assert calls == [(data[name], split) for name in data for split in ("train", "test")]
        for i, (config, swept) in enumerate(zip(configs, reports)):
            alone = run_pipeline(dataclasses.replace(
                config, artifacts_dir=str(tmp_path / f"alone{i}" / "artifacts"),
                reports_dir=str(tmp_path / f"alone{i}" / "reports"),
            ))
            assert swept.failure is None
            assert swept.metrics == alone.metrics

    def test_single_config_matches_run_pipeline(self, tmp_path):
        direct = run_pipeline(tiny_config(tmp_path / "d"))
        [swept] = sweep([tiny_config(tmp_path / "s")], tmp_path / "one.csv")
        assert direct.metrics == swept.metrics  # dirs differ, results must not
        assert swept.failure is None


class TestInferenceImprovesAccuracy:
    """Statistical properties of the inference step on overlapping clusters.

    Mirrors the reported behaviour: propagation raises label accuracy over
    the cluster-derived baseline, and small grids end more accurate than
    large ones because single-unresolved examples are more common.
    """

    @staticmethod
    def run_once(seed, w, h):
        from sumlearn.assignment import solve_corpus
        from sumlearn.dataset import build_corpus, generate_synthetic, normalize_unit
        from sumlearn.inference import init_labels, run_inference

        store = normalize_unit(generate_synthetic(1600, 10, separation=6.0, dim=12, seed=seed))
        corpus = build_corpus(store, w, h, seed=seed)
        matrix = emb.pca_embed(store, dim=10)
        model = clu.kmeans(matrix, k=10, seed=seed)
        winner = solve_corpus(corpus, model, batch_size=100)
        state = init_labels(model, winner)
        pre = label_accuracy(state.labels, store)
        state = run_inference(state, corpus, model)
        post = label_accuracy(state.labels, store)
        return pre, post

    def test_inference_beats_cluster_labels_majority(self):
        wins = 0
        for seed in range(5):
            pre, post = self.run_once(seed, w=1, h=2)
            assert post >= pre  # never hurts on these corpora
            wins += post > pre
        assert wins >= 3

    def test_small_grids_end_more_accurate_majority(self):
        wins = 0
        for seed in range(5):
            _, post_small = self.run_once(seed, w=1, h=2)
            _, post_large = self.run_once(seed, w=4, h=2)
            assert post_small >= post_large
            wins += post_small > post_large
        assert wins >= 3


def _stage_block(name):
    """The body of run_pipeline's `with timed(name):` block."""
    lines = inspect.getsource(pl.run_pipeline).splitlines()
    header = next(i for i, line in enumerate(lines) if line.strip() == f'with timed("{name}"):')
    indent = len(lines[header]) - len(lines[header].lstrip())
    body = []
    for line in lines[header + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    assert any(line.strip() for line in body), f"stage {name!r} has an empty block"
    return "\n".join(body)


class TestLabelFreedomAudit:
    """The training path must never read ground-truth labels.

    Data generation (build_corpus creating the sums) and the evaluation
    stage are the only legitimate readers of the evaluation-only accessor.
    """

    TRAINING_PATH = [
        ds.decode,
        emb._exact_scatter,
        emb._components,
        emb.train_autoencoder,
        emb.encode,
        emb.pca_embed,
        clu.kmeans,
        clu._kmeans_single,
        clu._plus_plus_init,
        clu._reseed_empty,
        clu._nearest,
        asg.build_batch_system,
        asg.solve_batch,
        asg.solve_corpus,
        asg._independent_batches,
        asg._rank_mod_p,
        inf.init_labels,
        inf.images_within_radius,
        inf._forced_digit,
        inf._Propagation,
        inf.LabelState.counts,
        inf.infer_correct_labels,
        inf.run_inference,
        clf.check_labels,
        clf.train_cnn,
        clf.classify,
        nn.Network.inputs,
        clf.CnnParams.inputs,
        nn.fit,
        pl.run_pipeline,
        pl.cached,
        pl.embed_store,
        pl.new_classifier,
        inf.save_labels,
        inf.load_labels,
        clu.ClusterModel.save,
        cli.embed.callback,
        cli.cluster.callback,
        cli.assign.callback,
        cli.infer.callback,
        cli.train.callback,
    ]

    # The stages of run_pipeline before evaluation, each audited on its own
    # block as well as within the whole function.
    TRAINING_STAGES = ["embed", "cluster", "assign", "infer", "train"]

    @pytest.mark.parametrize(
        "read_source",
        [pytest.param(lambda fn=fn: inspect.getsource(fn), id=fn.__qualname__) for fn in TRAINING_PATH]
        + [pytest.param(lambda name=name: _stage_block(name), id=f"_stage_{name}") for name in TRAINING_STAGES],
    )
    def test_no_ground_truth_access(self, read_source):
        source = read_source()
        assert "evaluation_labels" not in source
        assert "_true_labels" not in source
