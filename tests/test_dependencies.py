"""Every module the package imports is stdlib, the package itself, or a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "camlpad"


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_package_or_declared():
    allowed = set(sys.stdlib_module_names) | {"camlpad"} | declared_dependencies()
    undeclared = {
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in imported_modules(path)
        if name not in allowed
    }
    assert not undeclared
