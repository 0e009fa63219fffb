"""Seeded single-bit flips in a warm cache: a run on the flipped cache either stops with a data
error naming the flipped pack (exit 2), or writes the bytes of a clean run (exit 0)."""

import contextlib
import io
import random
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURE_CORPUS, entry_request, read_pack
from surveyguard.cli import main

# Each warm command, and the requests of the entries it reads: their kind and purpose.
READS = {
    "gen-signatures": ("chat", "generate_signature"),
    "score": ("embed", None),
    "detect-llm": ("chat", "detect"),
}
FLIPS = 5  # per command: in responses it reads, then as many anywhere in the packs holding them


def run(root: Path, command: str) -> tuple[int, str]:
    args = [command, "--dataset", FIXTURE_CORPUS, "--cache-dir", root / "cache", "--output-dir", root / "out"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*map(str, args), "--mock"])
    return code, err.getvalue()


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
