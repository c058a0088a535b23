"""scipy is a test-only oracle: no module of the package may import it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sumlearn"


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def test_package_never_imports_scipy():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{line} imports {name}"
        for path in paths
        for name, line in imported_modules(path)
        if name.split(".")[0] == "scipy"
    ]
    assert not found, found
