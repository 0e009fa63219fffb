"""Seeded faults in what a run reads back.

- Single-bit flips in a warm cache: a run on the flipped cache either stops with a data error
  naming the flipped pack (exit 2), or writes the bytes of a clean run (exit 0).
- Bit flips and truncations of the dumps ``report`` merges: ``report`` either writes a report
  (exit 0) or stops with a data error naming the dump (exit 2).
- Bit flips, truncations and one-character edits of a config file: ``validate`` exits 0, 1 or
  2, and an error in the file's JSON, its top level, its keys or its values' types names it."""

import contextlib
import io
import json
import random
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import FIXTURE_CORPUS, entry_request, read_pack
from surveyguard.cli import RunConfig, main

# Each warm command, and the requests of the entries it reads: their kind and purpose.
READS = {
    "gen-signatures": ("chat", "generate_signature"),
    "score": ("embed", None),
    "detect-llm": ("chat", "detect"),
}
FLIPS = 5  # per command: in responses it reads, then as many anywhere in the packs holding them


def run_main(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(map(str, args)))
    return code, err.getvalue()


def run(root: Path, command: str) -> tuple[int, str]:
    args = [command, "--dataset", FIXTURE_CORPUS, "--cache-dir", root / "cache", "--output-dir", root / "out"]
    return run_main(*args, "--mock")


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
    code, err = run(tmp_path, command)
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
    code, err = run(tmp_path, "report")
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
        code, err = run_main("validate", "--config", config)
        assert code in (0, 1, 2) and "Traceback" not in err, (data, err)
        file_error = not is_a_config_object(data) or any(marker in err for marker in FILE_ERRORS)
        if file_error and (code, str(config) in err) != (1, True):
            unnamed.append((data, code, err))
    assert unnamed == []
