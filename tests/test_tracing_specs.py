"""The benchmark's tracer wraps package functions and methods by name. A
traced run is the only one that installs it, so a renamed function would
otherwise fail only the benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracing = load_tracing()
    assert tracing.FUNCTION_SPECS and tracing.METHOD_SPECS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in tracing.FUNCTION_SPECS
        if not callable(getattr(module, attr, None))
        or not getattr(module, attr).__module__.startswith("sumlearn")
    ]
    missing += [
        f"{cls.__module__}.{cls.__qualname__}.{attr}"
        for cls, attr, *_ in tracing.METHOD_SPECS
        if not callable(getattr(cls, attr, None))
    ]
    assert not missing, missing


# (module, function, position, parameter) for each call argument a hook reads
# by position: the layer names from the network, the training image count
# from the store and the epochs, the PCA FLOPs from the store, the solver
# counts from the corpus and the file sizes from the path
HOOK_ARGUMENTS = [
    ("classifier", "train_cnn", 0, "params"),
    ("classifier", "train_cnn", 1, "store"),
    ("classifier", "train_cnn", 3, "epochs"),
    ("classifier", "classify", 0, "params"),
    ("embedding", "pca_embed", 0, "store"),
    ("assignment", "solve_corpus", 0, "corpus"),
    ("tensorfile", "save_tensors", 0, "path"),
    ("tensorfile", "load_tensors", 0, "path"),
]


def test_hooks_read_the_parameters_at_their_positions():
    wrong = []
    for module, function, position, name in HOOK_ARGUMENTS:
        fn = getattr(importlib.import_module(f"sumlearn.{module}"), function)
        params = list(inspect.signature(fn).parameters.values())
        param = params[position] if position < len(params) else None
        if param is None or param.name != name or param.kind is not inspect.Parameter.POSITIONAL_OR_KEYWORD:
            wrong.append(f"{module}.{function} parameter {position}: {param}, not {name}")
    assert not wrong, wrong
