"""Acceptance suite: one test per criterion, one PASS/SKIP line each.

Criteria 1-4 are self-contained and always run. Criteria 5-9 need the real
MNIST IDX files (60K train / 10K test); point SUMLEARN_DATA_DIR (or pass
--data via the CLI equivalents) at a directory containing them, otherwise
those tests skip with an explicit message. SUMLEARN_AE_EPOCHS (default 50,
the reduced desk configuration) and SUMLEARN_ACCEPT_DIR (artifact cache,
default: pytest tmp) tune the expensive runs.

Run with: pytest -v -s tests/test_acceptance.py
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sumlearn import nn
from sumlearn.assignment import BatchSystem, residuals, solve_batch, solve_corpus
from sumlearn.clustering import ClusterModel, kmeans, purity
from sumlearn.dataset import Corpus, build_corpus, generate_synthetic
from sumlearn.embedding import AutoencoderParams, pca_embed
from sumlearn.inference import (
    LabelState,
    PROV_CLUSTER,
    infer_correct_labels,
    init_labels,
    run_inference,
)
from sumlearn.pipeline import RunConfig, find_idx_files, run_pipeline, sweep


def announce(criterion, started):
    print(f"\nACCEPTANCE {criterion}: PASS ({time.perf_counter() - started:.1f}s)", flush=True)


# -- criterion 1: solver exactness -------------------------------------------


def brute_force(system):
    """Independent oracle: exhaustive 10^k enumeration, lexicographic order."""
    best_val, best_digits = None, None
    for combo in itertools.product(range(10), repeat=system.n_clusters):
        digits = np.array(combo, dtype=np.int64)
        val = int(residuals(system, digits).sum())
        if best_val is None or val < best_val:
            best_val, best_digits = val, digits
    return best_val, best_digits


def random_corpus_system(rng):
    k = int(rng.integers(1, 5))
    n_rows = int(rng.integers(1, 51))
    w = int(rng.integers(1, 4))
    h = int(rng.integers(1, 3))
    weights = 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
    coeffs = np.zeros((n_rows, k), dtype=np.int64)
    for e in range(n_rows):
        clusters = rng.integers(0, k, size=h * w)
        np.add.at(coeffs[e], clusters, np.tile(weights, h))
    truth = rng.integers(0, 10, size=k)
    targets = coeffs @ truth
    corrupt = rng.integers(0, 3, size=n_rows) == 0
    targets = np.maximum(targets + corrupt * rng.integers(-9, 10, size=n_rows), 0)
    return BatchSystem(coeffs=coeffs, targets=targets)


def test_c1_solver_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        system = random_corpus_system(rng)
        got = solve_batch(system)
        want_val, want_digits = brute_force(system)
        assert got.objective == want_val
        assert np.array_equal(got.digits, want_digits)
    assert time.perf_counter() - started < 60
    announce("1 solver-exactness", started)


# -- criterion 2: synthetic end-to-end recovery ------------------------------


def test_c2_synthetic_end_to_end_recovery():
    started = time.perf_counter()
    for seed in range(10):
        store = generate_synthetic(800, 10, separation=100, dim=12, seed=seed)
        corpus = build_corpus(store, w=2, h=2, seed=seed)
        truth = store.evaluation_labels()
        emb = pca_embed(store, dim=10)
        model = kmeans(emb, k=10, seed=seed)
        assert purity(model, truth) == 1.0  # well separated by construction

        winner = solve_corpus(corpus, model, batch_size=100)
        assert winner.objective == 0
        assert winner.satisfied_count == len(corpus)
        # cluster->digit map composed with clustering reproduces every label
        state = init_labels(model, winner)
        assert (state.labels == truth).all()

        state = run_inference(state, corpus, model)
        assert (state.labels == truth).all()
    assert time.perf_counter() - started < 60
    announce("2 synthetic-end-to-end-recovery", started)


# -- criterion 3: inference soundness ----------------------------------------


def perturbed_single_error_instance(seed):
    """Corpus where every example has at most one wrong-label image and all
    clean images sit inside radius 1 (distance quantile construction)."""
    rng = np.random.default_rng(seed)
    n, w, h = 240, 2, 1
    truth = rng.integers(0, 10, n)
    store_labels = truth.copy()
    distance = np.full(n, 0.05)

    grids = rng.permutation(n).reshape(-1, h, w)
    sums = []
    for grid in grids:
        weights = 10 ** np.arange(w - 1, -1, -1, dtype=np.int64)
        sums.append(int((truth[grid] * weights).sum()))
        if rng.random() < 0.6:  # perturb at most one image of this example
            victim = int(grid.ravel()[rng.integers(0, w * h)])
            store_labels[victim] = (truth[victim] + 1 + rng.integers(0, 9)) % 10
            distance[victim] = 15.0

    model = ClusterModel(
        k=1,
        centroids=np.zeros((1, 2)),
        assignment=np.zeros(n, dtype=np.int64),
        distance=distance,
    )
    state = LabelState(labels=store_labels, provenance=np.full(n, PROV_CLUSTER, dtype=np.int8))
    return truth, Corpus(grids, np.array(sums, dtype=np.int64)), model, state


def test_c3_inference_soundness():
    started = time.perf_counter()
    for seed in range(10):
        truth, corpus, model, state = perturbed_single_error_instance(seed)
        state = run_inference(state, corpus, model)
        assert (state.labels == truth).all()  # 100% restored
        assert not state.inconsistent_examples
        assert infer_correct_labels(state, corpus) is False  # fixpoint
    assert time.perf_counter() - started < 60
    announce("3 inference-soundness", started)


# -- criterion 4: gradient checks --------------------------------------------


def finite_difference(loss_fn, param, eps):
    numeric = np.zeros_like(param)
    flat, nflat = param.ravel(), numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_fn()
        flat[i] = orig - eps
        down = loss_fn()
        flat[i] = orig
        nflat[i] = (up - down) / (2 * eps)
    return numeric


def max_relative_error(layers, analytic_pairs, loss_fn, eps=1e-6):
    worst = 0.0
    for param, analytic in analytic_pairs:
        numeric = finite_difference(loss_fn, param, eps)
        mask = np.abs(numeric) > 1e-10
        if mask.any():
            rel = np.abs(analytic - numeric)[mask] / np.abs(numeric)[mask]
            worst = max(worst, float(rel.max()))
        assert np.abs(analytic[~mask]).max(initial=0.0) < 1e-8
    return worst


def test_c4_gradient_checks():
    started = time.perf_counter()

    # autoencoder on a 5-image, width-8 toy network; tolerance 1e-4
    rng = np.random.default_rng(11)
    params = AutoencoderParams(widths=(8, 6, 4, 3), seed=11, dtype=np.float64)
    x = rng.random((5, 8))
    recon = nn.forward(params.layers, x)
    _, grad = nn.mse(recon, x)
    nn.backward(params.layers, grad)
    pairs = [(p, g.copy()) for layer in params.weighted_layers() for p, g in layer.params()]
    worst = max_relative_error(
        params.layers, pairs, lambda: nn.mse(nn.forward(params.layers, x), x)[0]
    )
    assert worst < 1e-4

    # CNN on a 4-image batch of 8x8 inputs with 2 filters; tolerance 1e-3
    rng = np.random.default_rng(12)
    layers = [
        nn.Conv2d(1, 2, (3, 3), rng, dtype=np.float64),
        nn.ReLU(),
        nn.MaxPool2x2(),
        nn.Flatten(),
        nn.Dense(18, 6, rng, dtype=np.float64),
        nn.ReLU(),
        nn.Dense(6, 10, rng, dtype=np.float64),
    ]
    xc = rng.random((4, 1, 8, 8))
    y = np.array([0, 7, 3, 9])
    logits = nn.forward(layers, xc)
    _, grad = nn.softmax_cross_entropy(logits, y)
    nn.backward(layers, grad)
    pairs = [(p, g.copy()) for layer in layers for p, g in layer.params()]
    worst = max_relative_error(
        layers,
        pairs,
        lambda: nn.softmax_cross_entropy(nn.forward(layers, xc), y)[0],
    )
    assert worst < 1e-3

    assert time.perf_counter() - started < 60
    announce("4 gradient-checks", started)


# -- criteria 5-9: desk-scale MNIST (data-gated) ------------------------------

AE_EPOCHS = int(os.environ.get("SUMLEARN_AE_EPOCHS", "50"))


def _mnist_dir():
    data_dir = os.environ.get("SUMLEARN_DATA_DIR")
    if not data_dir:
        pytest.skip(
            "criteria 5-9 need real MNIST: set SUMLEARN_DATA_DIR to a directory "
            "with train-images-idx3-ubyte(.gz), train-labels-idx1-ubyte(.gz), "
            "t10k-images-idx3-ubyte(.gz), t10k-labels-idx1-ubyte(.gz)"
        )
    try:
        find_idx_files(data_dir)
    except FileNotFoundError as exc:
        pytest.skip(f"criteria 5-9 need real MNIST: {exc}")
    return data_dir


@pytest.fixture(scope="module")
def mnist_setup(tmp_path_factory):
    data_dir = _mnist_dir()
    cache = os.environ.get("SUMLEARN_ACCEPT_DIR")
    artifacts = Path(cache) if cache else tmp_path_factory.mktemp("acceptance")
    artifacts.mkdir(parents=True, exist_ok=True)
    return data_dir, artifacts


def _mnist_config(data_dir, artifacts, **overrides):
    base = dict(
        data_dir=str(data_dir),
        backend="autoencoder",
        autoencoder_epochs=AE_EPOCHS,
        seed=0,
        artifacts_dir=str(artifacts),
        reports_dir=str(Path(artifacts) / "reports"),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_c5_mnist_purity(mnist_setup):
    started = time.perf_counter()
    data_dir, artifacts = mnist_setup
    assert AE_EPOCHS >= 50, "criterion 5 requires at least the reduced 50-epoch mode"
    cfg = _mnist_config(data_dir, artifacts)
    report = run_pipeline(cfg)
    assert report.failure is None, report.failure
    threshold = 0.90 if AE_EPOCHS >= 300 else 0.85
    assert report.metrics["purity"] >= threshold
    announce(f"5 mnist-purity>= {threshold} (epochs={AE_EPOCHS})", started)


def test_c6_mnist_classification_accuracy(mnist_setup):
    started = time.perf_counter()
    data_dir, artifacts = mnist_setup
    cfg = _mnist_config(data_dir, artifacts, w=2, h=2, oversample_factor=1)
    report = run_pipeline(cfg)
    assert report.failure is None, report.failure
    assert report.metrics["cls_acc"] >= 0.90
    announce("6 mnist-classification>=0.90", started)


def test_c7_mnist_addition_trend(mnist_setup):
    started = time.perf_counter()
    data_dir, artifacts = mnist_setup
    paper_points = {1: 0.95, 2: 0.87, 3: 0.785, 4: 0.72}
    accs = {}
    for w in (1, 2, 3, 4):
        cfg = _mnist_config(data_dir, artifacts, w=w, h=2)
        report = run_pipeline(cfg)
        assert report.failure is None, report.failure
        accs[w] = report.metrics["add_acc"]
    assert accs[1] > 0.90
    assert accs[1] > accs[2] > accs[3] > accs[4]  # strictly decreasing in w
    for w, target in paper_points.items():
        assert abs(accs[w] - target) <= 0.05, (w, accs[w], target)
    announce(f"7 mnist-addition-trend {accs}", started)


def test_c8_mnist_timing_flatness(mnist_setup):
    started = time.perf_counter()
    data_dir, artifacts = mnist_setup
    configs = [
        _mnist_config(data_dir, artifacts, w=w, h=h)
        for h in (2, 4)
        for w in (1, 2, 4, 8)
    ]
    reports = sweep(configs, Path(artifacts) / "sweep.csv")
    totals = []
    for report in reports:
        assert report.failure is None, report.failure
        totals.append(report.timings["t_total"])
    assert max(totals) < 3 * min(totals), totals
    announce(f"8 mnist-timing-flatness max/min={max(totals) / min(totals):.2f}", started)


def test_c9_mnist_oversampling_effect(mnist_setup):
    started = time.perf_counter()
    data_dir, artifacts = mnist_setup
    accs = {}
    for factor in (1, 3):
        cfg = _mnist_config(data_dir, artifacts, w=5, h=2, oversample_factor=factor)
        report = run_pipeline(cfg)
        assert report.failure is None, report.failure
        accs[factor] = report.metrics["label_acc_post"]
    assert accs[3] > accs[1], accs
    announce(f"9 mnist-oversampling {accs}", started)
