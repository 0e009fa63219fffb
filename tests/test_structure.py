"""Structure guards: where code lives and what the benchmark relies on, checked by tests."""

import ast
import importlib
import importlib.util
import json
import re
import shutil
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import ModuleType

from surveyguard import cli
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


def test_only_the_cli_and_the_cache_lock_files_and_no_module_signals_a_process():
    """The output directory's lock is the CLI's, a temp pack's the cache's."""
    importers = {path.name for path in sorted(PACKAGE.glob("*.py")) if "fcntl" in _imported_modules(path)}
    assert importers == {"cli.py", "gateway.py"}
    signallers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _calls(path, lambda call: ast.unparse(call.func) == "os.kill")
    }
    assert signallers == set()


def _calls(path: Path, matches) -> list[tuple[str, ast.Call]]:
    """Each call for which matches(call) holds, with its enclosing top-level function or class."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (getattr(top, "name", "<module>"), node)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and matches(node)
    ]


def _call_name(call: ast.Call) -> str | None:
    """The called name: ``f`` of ``f(...)`` or of ``x.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_only_build_parser_declares_flags():
    """Every flag comes from the flag table, through the one loop in build_parser."""
    callers = {
        (path.name, top)
        for path in sorted(PACKAGE.glob("*.py"))
        for top, _ in _calls(path, lambda call: _call_name(call) == "add_argument")
    }
    assert callers == {("cli.py", "build_parser")}


def test_signatures_py_alone_maps_the_grid_to_requests():
    """gen-signatures makes one generate_signatures call and sends no chat request itself; that
    makes the prompt of each grid cell and sends them all in one chat_many call."""
    builders = {
        (path.name, top)
        for path in sorted(PACKAGE.glob("*.py"))
        for top, _ in _calls(path, lambda call: _call_name(call) == "signature_prompt")
    }
    assert builders == {("signatures.py", "generate_signatures")}
    senders = _calls(PACKAGE / "signatures.py", lambda call: _call_name(call) == "chat_many")
    assert [top for top, _ in senders] == ["generate_signatures"]
    assert _calls(PACKAGE / "cli.py", lambda call: _call_name(call) == "chat_many") == []
    generators = _calls(PACKAGE / "cli.py", lambda call: _call_name(call) == "generate_signatures")
    assert [top for top, _ in generators] == ["cmd_gen_signatures"]


def test_only_the_gateway_forms_chat_keys_and_requests():
    """The detector and signature generation hand the gateway prompts: no module but gateway.py
    builds a ChatRequest, and neither imports a request or key builder."""
    builders = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for _ in _calls(path, lambda call: _call_name(call) == "ChatRequest")
    }
    assert builders == {"gateway.py"}
    for name in ("detector.py", "signatures.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        assert imported & {"ChatRequest", "build_cache_key", "_chat_key_frame", "_chat_keyer"} == set(), name


def test_report_opens_no_cache():
    """Only build_gateway opens a cache, and only the commands that send requests build a gateway."""
    def callers(name: str) -> set[str]:
        return {top for top, _ in _calls(PACKAGE / "cli.py", lambda call: _call_name(call) == name)}

    assert callers("DiskCache") == {"build_gateway"}
    assert callers("build_gateway") == {"cmd_gen_signatures", "cmd_score", "cmd_detect_llm"}


def _is_executor(call: ast.Call) -> bool:
    return _call_name(call) == "ThreadPoolExecutor"


def test_only_fan_out_builds_a_thread_pool():
    builders = {
        path.name: [top for top, _ in _calls(path, _is_executor)] for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in builders.items() if found} == {"gateway.py": ["_fan_out"]}


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    """Every function and method of a module, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_no_provider_function_runs_an_import():
    """A provider's request path runs no import statement; the module's imports run once."""
    importing = [
        name
        for name, function in _functions(PACKAGE / "providers.py").items()
        if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(function))
    ]
    assert importing == []


def test_each_provider_round_trip_builds_no_closure_and_takes_no_lock_of_its_own():
    """``_call_with_retry`` gets the provider's method and its argument, never a lambda, and
    leaves locking to the window, which counts the call."""
    with_lambda = [
        f"{top}:{call.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top, call in _calls(path, lambda call: _call_name(call) == "_call_with_retry")
        if any(isinstance(node, ast.Lambda) for arg in call.args + call.keywords for node in ast.walk(arg))
    ]
    assert with_lambda == []
    body = _functions(PACKAGE / "gateway.py")["_call_with_retry"]
    locking = [ast.unparse(node) for node in ast.walk(body) if isinstance(node, ast.With)]
    acquiring = [
        ast.unparse(call) for call in ast.walk(body) if isinstance(call, ast.Call) and _call_name(call) == "acquire"
    ]
    assert locking == acquiring == []


def _owners(path: Path, matches) -> set[str]:
    """``Class.method``, ``function`` or ``<module>``: the innermost definitions around each node
    for which matches(node) holds."""

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.add(owner)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
            else:
                visit(child, owner)

    found: set[str] = set()
    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")
    return found


def test_only_the_endpoint_reads_the_environment_and_only_its_post_sends():
    """In providers.py the OpenAI-compatible endpoint alone reads ``os.environ``: the base URL as
    it is built, the API key as a request is sent. Only its ``_post`` calls ``_post_json``."""
    providers = PACKAGE / "providers.py"
    reads_env = _owners(
        providers, lambda node: isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.environ", "os.getenv")
    )
    assert reads_env == {"_OpenAICompatEndpoint.__init__", "_OpenAICompatEndpoint._post"}
    posts = _owners(providers, lambda node: isinstance(node, ast.Call) and _call_name(node) == "_post_json")
    assert posts == {"_OpenAICompatEndpoint._post"}


def test_only_cohort_averages_averages_percentages():
    callers = {
        (path.name, top)
        for path in sorted(PACKAGE.glob("*.py"))
        for top, _ in _calls(path, lambda call: _call_name(call) == "average")
    }
    assert callers == {("report.py", "cohort_averages")}


def _decorator_name(node: ast.expr) -> str | None:
    """The decorator's name: ``d`` of ``@d``, ``@d(...)`` or ``@x.d``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_dataclass_mirrors_an_artifact():
    """Results are the dicts and rows their artifacts hold; the dataclasses left are inputs,
    settings, requests and counters."""
    dataclasses = {
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef) and "dataclass" in map(_decorator_name, node.decorator_list)
    }
    assert dataclasses == {
        "ChatRequest", "GatewayStats", "RunConfig", "SurveyDataset", "SurveyStudy", "SurveyQuestion",
        "SurveyResponse", "Verdict",
    }


def _is_json_encode(call: ast.Call) -> bool:
    """``json.dump(...)``, ``json.dumps(...)`` or ``json.JSONEncoder(...)``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("dump", "dumps", "JSONEncoder")
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    )


def test_only_canonical_json_chooses_the_json_form():
    indented, formatters = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top, call in _calls(path, _is_json_encode):
            keywords = {k.arg for k in call.keywords}
            if "indent" in keywords:
                indented.append(f"{path.name}:{call.lineno}")
            if keywords & {"sort_keys", "separators"}:
                formatters.add((path.name, top))
    assert indented == []  # an indent turns off json's C encoder
    assert formatters == {("gateway.py", "canonical_json")}


def _root_name(expr: ast.expr) -> str | None:
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _is_file_io(call: ast.Call) -> bool:
    """``open(...)``, ``x.open(...)``, or any call into ``os`` or ``tempfile``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "open" or _root_name(func) in ("os", "tempfile")
    return isinstance(func, ast.Name) and func.id == "open"


def test_the_cache_does_no_file_io_under_its_lock():
    tree = ast.parse((PACKAGE / "gateway.py").read_text(encoding="utf-8"))
    locked = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.With) and any(ast.unparse(i.context_expr) == "self._lock" for i in node.items)
    ]
    assert locked
    io_calls = [
        f"gateway.py:{call.lineno}"
        for block in locked
        for call in ast.walk(block)
        if isinstance(call, ast.Call) and _is_file_io(call)
    ]
    assert io_calls == []


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


def _readme_section(heading: str) -> str:
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_block_holds_every_key_at_its_default():
    block = _readme_section("Configuration").split("```json\n", 1)[1].split("\n```", 1)[0]
    defaults = json.loads(json.dumps(asdict(RunConfig())))
    assert json.loads(block) == {**defaults, "dataset": "path/to/bundle-or.json"}  # a placeholder path


def test_readme_flag_table_is_the_flag_table():
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in _readme_section("Configuration").splitlines()
        if line.startswith("| `--")
    ]
    documented = {}
    for flag, key, commands in rows:
        name, *value = re.findall(r"`([^`]+)`", key)
        documented[flag.strip("`")] = (name, value, re.findall(r"`([^`]+)`", commands) or ["all"])
    expected = {
        flag: (
            key,
            [json.dumps(not getattr(RunConfig, key))] if cli._FIELD_TYPES[key] is bool else [],
            list(commands) or ["all"],
        )
        for flag, (key, _, commands) in cli._FLAGS.items()
    }
    assert documented == expected


def _readme_library_use() -> str:
    section = _readme_section("Library use")
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_package_exports_what_the_library_use_example_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_readme_library_use()))
        if isinstance(node, ast.ImportFrom) and node.module == "surveyguard"
        for alias in node.names
    }
    package = importlib.import_module("surveyguard")
    public = {
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert imported and public == imported


def test_readme_library_use_example_runs(monkeypatch, tmp_path, capsys):
    code = _readme_library_use()
    corpus = PACKAGE.parent.parent / "tests" / "fixtures" / "corpus"
    shutil.copytree(corpus, tmp_path / "tests" / "fixtures" / "corpus")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    score, signature_id = capsys.readouterr().out.split()
    assert -1.0 <= float(score) <= 1.0
    assert signature_id.startswith("q")
    assert (tmp_path / ".surveyguard-cache").is_dir()
