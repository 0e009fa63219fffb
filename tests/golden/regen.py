"""The golden manifest: every byte the pipeline writes, checked against a stored record.

The whole CLI pipeline runs in-process on the seeded mock providers
(``--mock --seed 3``) over two corpora: the fixture corpus, and the
1,000-response corpus that ``bench/corpus.generate`` writes for seed 7 (run
with the benchmark's config file). Each corpus runs cold on an empty cache,
then warm on the same cache. The manifest records, per pass:

- the sha256 and size of every file under each output directory, dotfiles
  included;
- every stdout line, with the run directory replaced by ``<run>``;

and, per corpus, one sha256 over the cache's sorted ``(digest, entry bytes)``
pairs. Entries are hashed rather than pack files, because how entries split
across packs depends on thread timing.

Scores are float64 bits from NumPy's einsum, pinned per machine and NumPy
build, so the manifest records both; another platform fails with a message
naming the two.

    python tests/golden/regen.py          # write manifest.json again
    python tests/golden/regen.py --check  # exit 1, listing what moved, on any difference

Write the manifest again only for a change that moves bytes on purpose; its
diff then shows which files moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
ROOT = TESTS.parent
for _path in (str(TESTS), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from conftest import FIXTURE_CORPUS, cache_entries  # noqa: E402
from surveyguard import cli  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "manifest.json"
PLACEHOLDER = "<run>"
BENCH_RESPONSES = 1000
BENCH_SEED = 7

# (output directory, argv) in run order; each pass runs all of them.
STEPS = (
    ("summary", ["validate"]),
    ("summary", ["gen-signatures", "--strategy", "basic"]),
    ("summary", ["gen-signatures", "--strategy", "sentiment"]),
    ("summary", ["score", "--strategy", "basic,sentiment"]),
    ("summary", ["detect-llm"]),
    ("summary", ["report"]),
    ("full", ["gen-signatures", "--strategy", "basic"]),
    ("full", ["gen-signatures", "--strategy", "sentiment"]),
    ("full", ["score", "--strategy", "basic,sentiment", "--scores", "full"]),
    ("full", ["report"]),
)


def platform_info() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__}


def _bench_corpus():
    """bench/corpus.py, imported read-only under a private module name."""
    spec = importlib.util.spec_from_file_location("_golden_bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def _file_digests(out_dir: Path) -> dict:
    return {
        str(path.relative_to(out_dir.parent)): {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "size": path.stat().st_size,
        }
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def _cache_digest(cache_dir: Path) -> str:
    entries = cache_entries(cache_dir)
    digest = hashlib.sha256()
    for key in sorted(entries):
        data = entries[key]
        digest.update(bytes.fromhex(key) + len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def _run_pass(root: Path, run_dir: Path, base_args: list[str], cache_dir: Path) -> dict:
    stdout: list[str] = []
    for out_name, argv in STEPS:
        out_dir = run_dir / out_name
        args = [*argv, *base_args, "--cache-dir", str(cache_dir), "--output-dir", str(out_dir)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue()}")
        stdout.extend(line.replace(str(root), PLACEHOLDER) for line in out.getvalue().splitlines())
    files = {}
    for out_name in dict.fromkeys(name for name, _ in STEPS):
        files.update(_file_digests(run_dir / out_name))
    return {"files": files, "stdout": stdout}


def _run_corpus(root: Path, base_args: list[str]) -> dict:
    cache_dir = root / "cache"
    record = {name: _run_pass(root, root / name, base_args, cache_dir) for name in ("cold", "warm")}
    record["cache_sha256"] = _cache_digest(cache_dir)
    return record


def build_manifest(work_dir: Path) -> dict:
    """Run both corpora under work_dir and return their manifest."""
    mock = ["--mock", "--seed", "3"]
    fixture = work_dir / "fixture"
    bench = work_dir / "bench"
    corpus = _bench_corpus()
    corpus.generate(bench / "data", BENCH_RESPONSES, seed=BENCH_SEED)
    config = bench / "config.json"
    corpus.write_config(config, bench / "data", bench / "cache", bench / "out", seed=BENCH_SEED)
    return {
        "platform": platform_info(),
        "corpora": {
            "fixture": _run_corpus(fixture, ["--dataset", str(FIXTURE_CORPUS), *mock]),
            f"bench-{BENCH_RESPONSES}-seed{BENCH_SEED}": _run_corpus(bench, ["--config", str(config), *mock]),
        },
    }


def differences(expected, actual, where: str = "") -> list[str]:
    """Each place, as a path of keys or line numbers, where actual differs from expected."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        moved = []
        for key in sorted(expected.keys() | actual.keys()):
            at = f"{where}/{key}"
            if key not in actual:
                moved.append(f"{at}: only in the manifest")
            elif key not in expected:
                moved.append(f"{at}: not in the manifest")
            else:
                moved.extend(differences(expected[key], actual[key], at))
        return moved
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [line for i, pair in enumerate(zip(expected, actual)) for line in differences(*pair, f"{where}/{i}")]
    return [] if expected == actual else [f"{where}: {expected!r} -> {actual!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true", help="compare with manifest.json; write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="surveyguard-golden-") as work:
        manifest = build_manifest(Path(work))
    if not args.check:
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST}")
        return 0
    moved = differences(json.loads(MANIFEST.read_text(encoding="utf-8")), manifest)
    for line in moved:
        print(line)
    print(f"{len(moved)} difference(s) from {MANIFEST}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
