"""The benchmark's tracer wraps package functions and methods by name. A
traced run is the only one that installs it, so a renamed function would
otherwise fail only the benchmark's own tests."""

import importlib.util
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
