"""Structure guards: rules about where code lives that tests can check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "surveyguard"
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
