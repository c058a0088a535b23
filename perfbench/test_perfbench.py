"""Self-tests of the benchmark at tiny sizes: `python3 -m pytest perfbench`."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a few seconds without changing its code path."""
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "synthetic_images": 300, "synthetic_test_images": 80,
        "synthetic_dim": 196, "classifier_epochs": 10,
    }))
    monkeypatch.setattr(workloads.Quickstart, "cli_args",
                        workloads.Quickstart.cli_args + ("--config", str(config)))
    monkeypatch.setattr(workloads.MnistSweep, "n_train", 1200)
    monkeypatch.setattr(workloads.AssignP80, "n_labels", 400)
    monkeypatch.setattr(workloads.AssignP80, "pool", 2)


def run_benchmark(capsys, workload, trace):
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0.001", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    record, result = run_benchmark(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["iterations"]
    assert result["attempted"] == 1 + trace
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and np.isfinite(emitted["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_metric_map_covers_every_per_layer_metric():
    from fnmatch import fnmatch

    groups = json.loads((HERE / "metric_map.json").read_text())["groups"]
    workload_names = set(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["per_layer"]:
        owners = [g for g in groups if any(fnmatch(metric["name"], p) for p in g["metrics"])]
        assert len(owners) == 1, metric["name"]
    for group in groups:
        for move in group["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in workload_names
        assert set(group["no_change_on"]) <= workload_names


def _bindings():
    """Every function and method object sumlearn's modules and classes expose."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "sumlearn" or name.startswith("sumlearn."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def test_tracer_wraps_then_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert ("sumlearn.pipeline", "clu") not in changed
        assert ("sumlearn.inference", "distance_percentiles") in changed
        assert ("sumlearn.clustering", "save_tensors") in changed
        assert ("sumlearn.assignment", "solve_batch") in changed
        assert ("sumlearn.nn", "Conv2d", "forward") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_untraced_iteration_after_traced_one_records_nothing(tiny, tmp_path):
    workload = workloads.AssignP80(3, tmp_path / "work")
    workload.setup()
    tracer = tracing.Tracer()
    traced = run.iterate(workload, 0, tracer)
    spans = len(tracer.spans)
    assert spans > 0 and traced["problems"] == []
    untraced = run.iterate(workload, 0)
    assert len(tracer.spans) == spans
    assert workloads.AssignP80.same_answer(traced["result"], untraced["result"])


def test_idx_writer_is_deterministic_per_seed(tmp_path):
    def written(seed, name):
        props = inputs.write_mnist_idx(tmp_path / name, seed, n_train=300, n_test=20)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        return props, files

    props_a, files_a = written(5, "a")
    props_b, files_b = written(5, "b")
    _, files_c = written(6, "c")
    assert props_a == props_b and files_a == files_b
    assert files_a != files_c
    assert props_a["idx_bytes"] == sum(len(b) for b in files_a.values())


def test_planted_clustering_is_deterministic_per_seed():
    def build(seed):
        labels, corpus, model, digits = inputs.planted_clustering(seed, n_images=400)
        sums = [ex.sum for ex in corpus.examples]
        return labels, sums, model.assignment, model.distance, digits

    a, b, c = build(5), build(5), build(6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[2], c[2])


def test_planted_clustering_has_the_stated_purity():
    from sumlearn.clustering import purity

    labels, corpus, model, digits = inputs.planted_clustering(0, n_images=4000)
    assert 0.80 <= purity(model, labels) <= 0.84
    assert len(corpus) == 1000
    # unmoved images carry their cluster's planted digit
    assert (digits[model.assignment] == labels).mean() >= 0.8
