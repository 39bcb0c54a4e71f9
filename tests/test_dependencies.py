"""Every module the package imports is stdlib, the package itself, or a declared dependency,
and a run that sends no request loads no HTTP stack."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from camlpad.cli import main

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


HTTP_STACK = ("http.client", "ssl", "urllib.request", "urllib.error", "email.parser", "xml.sax.saxutils")

# Run in a fresh interpreter, since the test process itself has the HTTP stack loaded: the import,
# a directory dry run and run, then one HttpStore read, each followed by the HTTP modules then loaded.
COLD_RUN = f"""
import json, sys
loaded = lambda: [name for name in {HTTP_STACK!r} if name in sys.modules]
config, url = sys.argv[1:]
from camlpad.cli import main
stages = {{"import": loaded()}}
assert main(["run", "--config", config, "--dry-run"]) == 0
stages["dry run"] = loaded()
assert main(["run", "--config", config]) in (0, 2)
stages["run"] = loaded()
from camlpad.datamodel import DataSourceKind
from camlpad.ingest_store import HttpStore, StoreQuery, query_store
batch = query_store(HttpStore(url), StoreQuery("flows", 0, 10), DataSourceKind.YAF)
print(json.dumps({{"stages": stages, "records": len(batch), "after the read": loaded()}}))
"""


def test_a_directory_run_loads_the_http_stack_only_with_the_first_request(tmp_path, stub_server):
    url, state = stub_server
    state.datasets["flows"] = [{"_id": f"d{i}", "timestamp": i, "v": i} for i in range(3)]
    store = tmp_path / "store"
    assert main(["synth", "--out", str(store), "--seed", "3", "--days", "2", "--records", "60"]) == 0
    config = tmp_path / "camlpad.conf"
    config.write_text(
        f"store.root = {store}\nrun.boundary = 2021-03-03\nrun.history_days = 1\nrun.min_history = 10\n"
        f"detectors.iforest.trees = 20\nrun.output_dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    pythonpath = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    done = subprocess.run(
        [sys.executable, "-c", COLD_RUN, str(config), url], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["stages"] == {"import": [], "dry run": [], "run": []}
    assert result["records"] == 3
    assert {"http.client", "urllib.request"} <= set(result["after the read"])
