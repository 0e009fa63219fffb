"""Seeded faults in what a run reads back.

- Single-bit flips in a warm cache: a run on the flipped cache either stops with a data error
  naming the flipped pack (exit 2), or writes the bytes of a clean run (exit 0).
- Bit flips and truncations of the dumps ``report`` merges: ``report`` either writes a report
  (exit 0) or stops with a data error naming the dump (exit 2).
- Bit flips, truncations and one-character edits of a config file: ``validate`` exits 0, 1 or
  2, and an error in the file's JSON, its top level, its keys or its values' types names it.
- Two runs at once on one cold cache: both finish, and leave it warm for a rerun with no call.
- A write over the file size limit, of an artifact or of a cache pack: exit 1 naming the path."""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import FIXTURE_CORPUS, entry_request, read_pack, src_env
from surveyguard.cli import RunConfig, main

# Each warm command, and the requests of the entries it reads: their kind and purpose.
READS = {
    "gen-signatures": ("chat", "generate_signature"),
    "score": ("embed", None),
    "detect-llm": ("chat", "detect"),
}
FLIPS = 5  # per command: in responses it reads, then as many anywhere in the packs holding them


def run_main(*args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(map(str, args)))
    return code, out.getvalue(), err.getvalue()


def run(root: Path, command: str, out: str = "out") -> tuple[int, str, str]:
    dirs = ["--cache-dir", root / "cache", "--output-dir", root / out]
    return run_main(command, "--dataset", FIXTURE_CORPUS, *dirs, "--mock")


def outputs(out: Path) -> dict[str, bytes]:
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> tuple[Path, dict[str, bytes]]:
    """A cache warm for every command, and the artifacts of the clean runs."""
    root = tmp_path_factory.mktemp("clean")
    for command in READS:
        assert run(root, command)[0] == 0
    return root, outputs(root / "out")


def flips(root: Path, command: str) -> list[tuple[Path, int]]:
    """Seeded ``(pack, bit)`` flips: ``FLIPS`` inside responses that the command reads (a reply's
    text or a vector's body), then ``FLIPS`` anywhere in the packs that hold them."""
    kind, purpose = READS[command]
    spans = []  # (pack, first byte of a response, end)
    for pack in sorted((root / "cache" / "packs").iterdir()):
        data = pack.read_bytes()
        for entry in read_pack(pack)[1].values():
            request = entry_request(entry)
            if (request["kind"], request.get("purpose")) == (kind, purpose):
                start = data.index(entry)
                spans.append((pack, start + entry.index(b"\n") + 1, start + len(entry)))
    rng = random.Random(f"flips {command}")
    inside = [(pack, 8 * rng.randrange(lo, hi) + rng.randrange(8)) for pack, lo, hi in rng.sample(spans, FLIPS)]
    packs = sorted({pack for pack, _, _ in spans})
    anywhere = [(pack, rng.randrange(8 * pack.stat().st_size)) for pack in rng.choices(packs, k=FLIPS)]
    return inside + anywhere


@pytest.mark.parametrize("flip", range(2 * FLIPS))
@pytest.mark.parametrize("command", READS)
def test_a_flipped_bit_is_a_data_error_naming_its_pack_or_changes_no_artifact(clean, tmp_path, command, flip):
    root, expected = clean
    pack, bit = flips(root, command)[flip]
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    flipped = tmp_path / pack.relative_to(root)
    data = bytearray(flipped.read_bytes())
    data[bit // 8] ^= 1 << bit % 8
    flipped.write_bytes(data)
    code, _, err = run(tmp_path, command)
    if code == 0:
        assert outputs(tmp_path / "out") == expected
    else:
        assert (code, err.startswith("data error: corrupted cache ")) == (2, True), err
        assert str(flipped) in err, err


DUMPS = ("sweep.json", "detector_gpt-3.5-turbo.json")
DUMP_FAULTS = 4  # per dump and kind of fault


def dump_faults(path: Path) -> list[tuple[str, int]]:
    """Seeded faults of one dump: ``("flip", bit)`` then ``("cut", length kept)``."""
    rng = random.Random(f"dump faults {path.name}")
    size = path.stat().st_size
    flipped = [("flip", rng.randrange(8 * size)) for _ in range(DUMP_FAULTS)]
    return flipped + [("cut", rng.randrange(size)) for _ in range(DUMP_FAULTS)]


@pytest.mark.parametrize("fault", range(2 * DUMP_FAULTS))
@pytest.mark.parametrize("dump", DUMPS)
def test_report_on_a_damaged_dump_writes_a_report_or_a_data_error_naming_it(clean, tmp_path, dump, fault):
    root, _ = clean
    shutil.copytree(root / "out", tmp_path / "out")
    path = tmp_path / "out" / dump
    kind, at = dump_faults(path)[fault]
    data = bytearray(path.read_bytes())
    if kind == "flip":
        data[at // 8] ^= 1 << at % 8
    else:
        del data[at:]
    path.write_bytes(data)
    code, _, err = run(tmp_path, "report")
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith(f"data error: corrupted dump file: {path}: "), err


# A config file setting keys of every JSON type, its dataset relative to the fixtures directory.
CONFIG = {
    "dataset": "corpus",
    "mock": True,
    "seed": 3,
    "mock_embedding_dim": 256,
    "models": ["gpt-4o", "gpt-4o-mini"],
    "temperatures": [0.0, 0.5, 1.0],
    "sentiments": ["positive", "negative"],
    "thresholds": [0.7, 0.8, 0.9],
    "k_high": 5,
    "scores_mode": "summary",
    "chat_base_url": None,
    "tolerate_parse_failures": True,
}
CONFIG_FAULTS = 100  # per kind of fault
EDIT_CHARS = b'"{}[],:.-0123456789aeflnrstu '
# What each error that the config file alone can cause says; each must name the file.
FILE_ERRORS = (
    "is not valid UTF-8 JSON", "must contain a JSON object", "unknown config key(s)", 'config key "'
)


def config_faults(kind: str) -> list[bytes]:
    """Seeded faults of the config file: a flipped bit, a truncation, or one character deleted,
    inserted or replaced."""
    data = json.dumps(CONFIG).encode()
    rng = random.Random(f"config faults {kind}")
    faulted = []
    for _ in range(CONFIG_FAULTS):
        at = rng.randrange(len(data))
        head, tail = data[:at], data[at + 1 :]
        if kind == "flip":
            faulted.append(head + bytes([data[at] ^ 1 << rng.randrange(8)]) + tail)
        elif kind == "cut":
            faulted.append(head)
        else:
            char = bytes([rng.choice(EDIT_CHARS)])
            faulted.append(rng.choice([head + tail, head + char + data[at:], head + char + tail]))
    return faulted


def is_a_config_object(data: bytes) -> bool:
    """True iff data is UTF-8 JSON for an object whose keys are all config keys."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError:
        return False
    return isinstance(raw, dict) and set(raw) <= {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("kind", ["flip", "cut", "edit"])
def test_a_damaged_config_file_exits_0_1_or_2_and_a_file_error_names_it(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(FIXTURE_CORPUS.parent)
    config = tmp_path / "run.json"
    unnamed = []
    for data in config_faults(kind):
        config.write_bytes(data)
        code, _, err = run_main("validate", "--config", config)
        assert code in (0, 1, 2) and "Traceback" not in err, (data, err)
        file_error = not is_a_config_object(data) or any(marker in err for marker in FILE_ERRORS)
        if file_error and (code, str(config) in err) != (1, True):
            unnamed.append((data, code, err))
    assert unnamed == []


def child(script: str, root: Path, out: str, *args) -> subprocess.Popen:
    """A Python child running script with args, then ``detect-llm`` flags on root's cache and
    root / out; its output captured."""
    flags = ["--dataset", FIXTURE_CORPUS, "--cache-dir", root / "cache", "--output-dir", root / out, "--mock"]
    argv = [sys.executable, "-c", script, *map(str, [*args, "detect-llm", *flags])]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env())


def finish(process: subprocess.Popen) -> tuple[int, str]:
    """The child's exit code and stderr; a child still running after 60 s is killed."""
    try:
        _, err = process.communicate(timeout=60)
    finally:
        process.kill()  # nothing once it has exited
    return process.returncode, err


# Each child marks itself ready, then starts its run once both are (or 30 s have passed), so
# their cold passes overlap.
TOGETHER = (
    "import sys, time\nfrom pathlib import Path\nfrom surveyguard import cli\n"
    "ready, deadline = Path(sys.argv[1]), time.monotonic() + 30\n(ready / sys.argv[2]).touch()\n"
    "while len(list(ready.iterdir())) < 2 and time.monotonic() < deadline:\n    time.sleep(0.001)\n"
    "sys.exit(cli.main(sys.argv[3:]))\n"
)


def test_two_runs_on_one_cold_cache_both_finish_and_leave_it_warm(tmp_path):
    (tmp_path / "ready").mkdir()
    runs = [child(TOGETHER, tmp_path, f"out{n}", tmp_path / "ready", n) for n in (0, 1)]
    assert [finish(run) for run in runs] == [(0, "")] * 2
    code, out, err = run(tmp_path, "detect-llm", "warm")
    assert (code, err) == (0, "") and "provider calls: 0 (" in out
    assert outputs(tmp_path / "out0") == outputs(tmp_path / "out1") == outputs(tmp_path / "warm")


# The child ignores SIGXFSZ, so a write over its file size limit fails with EFBIG or falls short.
FSIZE_LIMIT = 1024  # bytes: less than the fixture's detector dump, and than its first pack
LIMITED = (
    "import resource, signal, sys\nfrom surveyguard import cli\n"
    "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
    "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def test_a_write_over_the_file_size_limit_exits_1_naming_its_path(clean, tmp_path):
    """A cold run fails to commit its pack, a warm one (no pack to commit) to write its dump."""
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    shutil.copytree(clean[0] / "cache", warm / "cache")
    runs = [child(LIMITED, root, "out", FSIZE_LIMIT) for root in (cold, warm)]
    (cold_code, cold_err), (warm_code, warm_err) = map(finish, runs)
    assert cold_code == 1 and cold_err.startswith(f"config error: cannot write cache dir {cold / 'cache'}: ")
    assert cold_err.count("\n") == 1 and "Traceback" not in cold_err, cold_err
    assert list((cold / "cache" / "packs").iterdir()) == []  # no pack, and no temp file left
    dump = warm / "out" / "detector_gpt-3.5-turbo.json"
    assert len(clean[1][dump.name]) > FSIZE_LIMIT
    assert (warm_code, warm_err) == (1, f"config error: cannot write output file {dump}: File too large\n")
