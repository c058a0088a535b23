"""Spans around calls into sumlearn's modules, for traced runs only.

Nothing under src/ knows about tracing. A Tracer replaces a function by a
timing wrapper at every place a caller looks the name up: the defining
module's attribute (which `pipeline` reaches as `clu.kmeans`, and which
intra-module calls such as `solve_corpus -> solve_batch` read as globals)
and every other sumlearn module that imported the function by name
(`tensorfile.save_tensors` in clustering, embedding, ...;
`distance_percentiles` in inference). Methods are wrapped on their class.
`uninstall` puts every original back, so an untraced run executes the
program's own code objects.

Spans are kept in memory: (name, start, end, parent index, extra), where
`extra` holds counts taken at the same boundary (bytes, FLOPs, results).
"""

import functools
import os
import sys
import time

import numpy as np

import sumlearn  # noqa: F401  (loads every module the specs below name)
from sumlearn import assignment as asg
from sumlearn import classifier as clf
from sumlearn import clustering as clu
from sumlearn import dataset as ds
from sumlearn import embedding as emb
from sumlearn import inference as inf
from sumlearn import nn
from sumlearn import tensorfile as tf

NAME, START, END, PARENT, EXTRA = range(5)


def _conv_flops(layer, out_shape):
    """2 * B*Ho*Wo * F*C*kh*kw: the im2col product of one forward pass."""
    f, c, kh, kw = layer.W.shape
    b, _, ho, wo = out_shape
    return 2.0 * b * ho * wo * f * c * kh * kw


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._layer_names = {}

    # -- installing and removing wrappers ---------------------------------

    def install(self):
        for module, attr, name, extra, before in FUNCTION_SPECS:
            self._wrap_function(module, attr, name, extra, before)
        for cls, attr, name, extra in METHOD_SPECS:
            self._wrap_method(cls, attr, name, extra)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, module, attr, name, extra, before):
        original = getattr(module, attr)
        wrapper = self._timed(original, lambda args: name, extra, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sumlearn" and not mod_name.startswith("sumlearn."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _wrap_method(self, cls, attr, name, extra):
        original = cls.__dict__[attr]
        if callable(name):
            namer = lambda args: name(self, args[0])  # noqa: E731
        else:
            namer = lambda args: name  # noqa: E731
        self._patch(cls, attr, self._timed(original, namer, extra, None))

    def _timed(self, fn, namer, extra, before):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(spans)
            spans.append([namer(args), time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = time.perf_counter()
            if extra is not None:
                spans[index][EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    # -- nn layer names ------------------------------------------------------

    def name_layers(self, params):
        """conv1..3, pool1..2, dense1..2 by position; every ReLU is `relu`."""
        counts = {}
        for layer in params.layers:
            kind = LAYER_KINDS.get(type(layer), type(layer).__name__.lower())
            if kind in ("relu", "flatten"):
                self._layer_names[id(layer)] = kind
                continue
            counts[kind] = counts.get(kind, 0) + 1
            self._layer_names[id(layer)] = f"{kind}{counts[kind]}"

    def layer_name(self, layer):
        return self._layer_names.get(id(layer), type(layer).__name__.lower())

    # -- queries -------------------------------------------------------------

    def _within(self, index, ancestor):
        parent = self.spans[index][PARENT]
        while parent != -1:
            if self.spans[parent][NAME] == ancestor:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def _matching(self, name, within):
        return [
            s for i, s in enumerate(self.spans)
            if s[NAME] == name and (within is None or self._within(i, within))
        ]

    def durations(self, name, within=None):
        """Durations of the spans called `name` (only those inside a span
        called `within`, if given)."""
        return [s[END] - s[START] for s in self._matching(name, within)]

    def total(self, name, within=None):
        return float(sum(self.durations(name, within)))

    def extras(self, name, within=None):
        return [s[EXTRA] for s in self._matching(name, within)]

    def self_time(self, name):
        """Span time of `name` minus the time its direct child spans cover."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[NAME] != name:
                continue
            children = sum(c[END] - c[START] for c in self.spans if c[PARENT] == i)
            total += s[END] - s[START] - children
        return total

    def root_time(self):
        """Time covered by spans that no other span encloses."""
        return float(sum(s[END] - s[START] for s in self.spans if s[PARENT] == -1))

    def train_steps(self):
        """Per-batch CNN step times: nn.forward start to the SGD step's end,
        for the forward passes called directly by classifier.train_cnn."""
        steps = []
        for i, s in enumerate(self.spans):
            if s[NAME] != "classifier.train_cnn":
                continue
            starts = [c[START] for c in self.spans if c[PARENT] == i and c[NAME] == "nn.forward"]
            ends = [c[END] for c in self.spans if c[PARENT] == i and c[NAME] == "nn.sgd_step"]
            steps.extend(e - b for b, e in zip(starts, ends))
        return steps


LAYER_KINDS = {
    nn.Conv2d: "conv",
    nn.MaxPool2x2: "pool",
    nn.Dense: "dense",
    nn.ReLU: "relu",
    nn.Flatten: "flatten",
}


def _register_layers(tracer, args):
    tracer.name_layers(args[0])


def _layer_span(direction):
    return lambda tracer, layer: f"nn.{tracer.layer_name(layer)}.{direction}"


def _conv_fwd_flops(args, kwargs, result):
    return _conv_flops(args[0], result.shape)


def _conv_bwd_flops(args, kwargs, result):
    return 2.0 * _conv_flops(args[0], args[1].shape)  # dW and dx products


def _pca_flops(args, kwargs, result):
    """Covariance (2*N*D^2) plus projection (2*N*D*dim) GEMM FLOPs."""
    n, d = args[0].images.shape
    return 2.0 * n * d * d + 2.0 * n * d * result.shape[1]


def _train_images(args, kwargs, result):
    epochs = args[3] if len(args) > 3 else kwargs["epochs"]
    return len(args[1]) * max(int(epochs), 0)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _assignment_counts(args, kwargs, result):
    return {
        "examples": len(args[0]),
        "satisfied": int(result.satisfied_count),
        "objective": int(result.objective),
    }


def _inference_counts(args, kwargs, result):
    counts = result.counts()
    return {"inferred": counts["inferred"], "inconsistent": counts["inconsistent_examples"]}


def _returned(args, kwargs, result):
    return result


def _lloyd_iters(args, kwargs, result):
    return len(result.inertia_history) - 1


# (module, attribute, span name, extra, before-call hook)
FUNCTION_SPECS = [
    (ds, "load_idx", "dataset.load_idx", None, None),
    (ds, "build_corpus", "dataset.build_corpus", None, None),
    (ds, "save_corpus", "dataset.save_corpus", None, None),
    (ds, "generate_synthetic", "dataset.generate_synthetic", None, None),
    (ds, "normalize_unit", "dataset.normalize_unit", None, None),
    (emb, "pca_embed", "embedding.pca_embed", _pca_flops, None),
    (clu, "kmeans", "clustering.kmeans", _lloyd_iters, None),
    (clu, "purity", "clustering.purity", _returned, None),
    (clu, "distance_percentiles", "clustering.distance_percentiles", None, None),
    (asg, "solve_corpus", "assignment.solve_corpus", _assignment_counts, None),
    (asg, "solve_batch", "assignment.solve_batch", None, None),
    (asg, "dual_multipliers", "assignment.dual_multipliers", None, None),
    (asg, "build_batch_system", "assignment.build_batch_system", None, None),
    (inf, "init_labels", "inference.init_labels", None, None),
    (inf, "run_inference", "inference.run_inference", _inference_counts, None),
    (inf, "images_within_radius", "inference.images_within_radius", None, None),
    (inf, "infer_correct_labels", "inference.infer_correct_labels", None, None),
    (clf, "train_cnn", "classifier.train_cnn", _train_images, _register_layers),
    (clf, "classify", "classifier.classify", None, _register_layers),
    (clf, "eval_classification", "classifier.eval_classification", None, None),
    (clf, "eval_addition", "classifier.eval_addition", None, None),
    (nn, "forward", "nn.forward", None, None),
    (nn, "backward", "nn.backward", None, None),
    (nn, "softmax_cross_entropy", "nn.loss", None, None),
    (tf, "save_tensors", "tensorfile.save", _file_bytes, None),
    (tf, "load_tensors", "tensorfile.load", _file_bytes, None),
    (tf, "peek_meta", "tensorfile.peek", None, None),
]

# (class, method, span name or namer(tracer, self), extra)
METHOD_SPECS = [
    (nn.SGDMomentum, "step", "nn.sgd_step", None),
    (nn.Conv2d, "forward", _layer_span("fwd"), _conv_fwd_flops),
    (nn.Conv2d, "backward", _layer_span("bwd"), _conv_bwd_flops),
    (nn.MaxPool2x2, "forward", _layer_span("fwd"), None),
    (nn.MaxPool2x2, "backward", _layer_span("bwd"), None),
    (nn.Dense, "forward", _layer_span("fwd"), None),
    (nn.Dense, "backward", _layer_span("bwd"), None),
    (nn.ReLU, "forward", _layer_span("fwd"), None),
    (nn.ReLU, "backward", _layer_span("bwd"), None),
    (nn.Flatten, "forward", _layer_span("fwd"), None),
    (nn.Flatten, "backward", _layer_span("bwd"), None),
]

TRAIN = "classifier.train_cnn"
NN_LAYERS = ("conv1", "pool1", "conv2", "conv3", "pool2", "dense1", "dense2", "relu")


def _ms_per_step(tracer, span_name, steps):
    return 1e3 * tracer.total(span_name, TRAIN) / steps if steps else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer):
    """Per-module metrics from one traced iteration's spans: {name: (value, unit)}.

    nn numbers cover training only (not classify) and are per step at
    batch 32, so they compare across epoch counts; modules a workload never
    calls read 0.
    """
    out = {}
    steps = tracer.train_steps()
    n_steps = len(steps)
    for layer in NN_LAYERS:
        for direction in ("fwd", "bwd"):
            out[f"nn.{layer}.{direction}_ms"] = (
                _ms_per_step(tracer, f"nn.{layer}.{direction}", n_steps), "ms")
    out["nn.loss_ms"] = (_ms_per_step(tracer, "nn.loss", n_steps), "ms")
    out["nn.sgd_step_ms"] = (_ms_per_step(tracer, "nn.sgd_step", n_steps), "ms")
    out["nn.step_ms.p50"] = (1e3 * _pct(steps, 50), "ms")
    out["nn.step_ms.p95"] = (1e3 * _pct(steps, 95), "ms")
    conv_flops, conv_time = 0.0, 0.0
    for layer in ("conv1", "conv2", "conv3"):
        for direction in ("fwd", "bwd"):
            name = f"nn.{layer}.{direction}"
            conv_flops += sum(tracer.extras(name, TRAIN))
            conv_time += tracer.total(name, TRAIN)
    out["nn.conv_gflop_per_s"] = (conv_flops / conv_time / 1e9 if conv_time else 0.0, "GFLOP/s")

    train_s = tracer.total("classifier.train_cnn")
    trained = sum(tracer.extras("classifier.train_cnn"))
    out["classifier.train_cnn_s"] = (train_s, "s")
    out["classifier.train_img_per_s"] = (trained / train_s if trained else 0.0, "1/s")
    out["classifier.classify_s"] = (tracer.total("classifier.classify"), "s")

    iters = tracer.extras("clustering.kmeans")
    purities = tracer.extras("clustering.purity")
    out["clustering.kmeans_s"] = (tracer.total("clustering.kmeans"), "s")
    out["clustering.best_restart_iters"] = (float(np.mean(iters)) if iters else 0.0, "count")
    out["clustering.purity"] = (float(np.mean(purities)) if purities else 0.0, "ratio")

    batches = tracer.durations("assignment.solve_batch")
    solved = tracer.extras("assignment.solve_corpus")
    examples = sum(r["examples"] for r in solved)
    out["assignment.solve_corpus_s"] = (tracer.total("assignment.solve_corpus"), "s")
    out["assignment.solve_batch_ms.p50"] = (1e3 * _pct(batches, 50), "ms")
    out["assignment.solve_batch_ms.p90"] = (1e3 * _pct(batches, 90), "ms")
    out["assignment.batches"] = (len(batches), "count")
    out["assignment.dual_multipliers_s"] = (tracer.total("assignment.dual_multipliers"), "s")
    out["assignment.build_batch_system_s"] = (tracer.total("assignment.build_batch_system"), "s")
    out["assignment.vote_s"] = (tracer.self_time("assignment.solve_corpus"), "s")
    out["assignment.satisfied_frac"] = (
        sum(r["satisfied"] for r in solved) / examples if examples else 0.0, "ratio")
    out["assignment.objective"] = (sum(r["objective"] for r in solved), "count")

    inferred = tracer.extras("inference.run_inference")
    out["inference.run_inference_s"] = (tracer.total("inference.run_inference"), "s")
    out["inference.passes"] = (len(tracer.durations("inference.infer_correct_labels")), "count")
    out["inference.images_within_radius_s"] = (tracer.total("inference.images_within_radius"), "s")
    out["inference.inferred"] = (sum(r["inferred"] for r in inferred), "count")
    out["inference.inconsistent_examples"] = (sum(r["inconsistent"] for r in inferred), "count")

    pca_s = tracer.total("embedding.pca_embed")
    out["dataset.load_idx_s"] = (tracer.total("dataset.load_idx"), "s")
    out["dataset.build_corpus_s"] = (tracer.total("dataset.build_corpus"), "s")
    out["dataset.save_corpus_s"] = (tracer.total("dataset.save_corpus"), "s")
    out["dataset.generate_synthetic_s"] = (tracer.total("dataset.generate_synthetic"), "s")
    out["embedding.pca_embed_s"] = (pca_s, "s")
    out["embedding.pca_gflop_per_s"] = (
        sum(tracer.extras("embedding.pca_embed")) / pca_s / 1e9 if pca_s else 0.0, "GFLOP/s")

    out["tensorfile.save_s"] = (tracer.total("tensorfile.save"), "s")
    out["tensorfile.load_s"] = (tracer.total("tensorfile.load"), "s")
    out["tensorfile.bytes_written"] = (sum(tracer.extras("tensorfile.save")), "bytes")
    out["tensorfile.bytes_read"] = (sum(tracer.extras("tensorfile.load")), "bytes")
    return out
