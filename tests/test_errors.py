"""An exception class exists only where camlpad catches it by type; every other error is a CamlpadError."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import camlpad
from camlpad.errors import CamlpadError

PACKAGE = Path(camlpad.__file__).parent


def package_exception_classes() -> set[type]:
    """Every exception class defined in a camlpad module."""
    modules = [importlib.import_module(info.name) for info in pkgutil.walk_packages(camlpad.__path__, "camlpad.")]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__.startswith("camlpad.")
    }


def caught_names() -> set[str]:
    """The names each ``except`` clause in the package catches by."""
    names: set[str] = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(ast.unparse(name).rpartition(".")[2] for name in caught)
    return names


def test_the_only_subclasses_are_the_three_camlpad_catches():
    classes = package_exception_classes()
    assert all(issubclass(cls, CamlpadError) for cls in classes)
    subclasses = {cls.__name__ for cls in classes - {CamlpadError}}
    assert subclasses == {"MalformedLine", "TooManyRecords", "StoreUnreachable"}
    assert subclasses <= caught_names()
