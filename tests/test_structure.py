"""Structure guards: where code lives and what the benchmark relies on, checked by tests."""

import ast
import importlib
import importlib.util
import json
import sys
from dataclasses import fields
from pathlib import Path

from surveyguard.cli import RunConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surveyguard"
BENCH = PACKAGE.parent.parent / "bench"
THREADING_MODULES = {"concurrent", "concurrent.futures", "threading"}


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_only_the_gateway_runs_threads():
    importers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _imported_modules(path) & THREADING_MODULES
    }
    assert importers == {"gateway.py"}


def _executor_builders(path: Path) -> list[str]:
    """The enclosing top-level function or class of each ThreadPoolExecutor(...) call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builders = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "ThreadPoolExecutor":
                    builders.append(getattr(top, "name", "<module>"))
    return builders


def test_only_fan_out_builds_a_thread_pool():
    builders = {path.name: _executor_builders(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in builders.items() if found} == {"gateway.py": ["_fan_out"]}


def _bench_module(name: str, monkeypatch):
    """Import bench/<name>.py read-only, under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_patch_target_resolves(monkeypatch):
    spans = _bench_module("spans", monkeypatch)
    unresolved = []
    for _name, module_name, path, importers, _attrs in spans.PATCHES:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.append(f"{module_name}.{path}")
        for importer in importers:
            importlib.import_module(importer)
    assert unresolved == []


def test_every_benchmark_config_key_is_a_run_config_field(monkeypatch, tmp_path):
    corpus = _bench_module("corpus", monkeypatch)
    path = tmp_path / "config.json"
    corpus.write_config(path, tmp_path / "data", tmp_path / "cache", tmp_path / "out", seed=7)
    written = set(json.loads(path.read_text(encoding="utf-8")))
    assert written and written <= {f.name for f in fields(RunConfig)}
