import json
import os
import struct
import zlib
from pathlib import Path

import pytest

from surveyguard.dataset import write_csv
from surveyguard.gateway import DiskCache, ProviderGateway
from surveyguard.providers import MockChatProvider, MockEmbeddingProvider

FIXTURE_CORPUS = Path(__file__).parent / "fixtures" / "corpus"
PACK_MAGIC = DiskCache._PACK_MAGIC
PACK_ROW = struct.Struct("<32sII")  # digest, end offset, crc32 of the entry


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for a child Python."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture
def corpus_path() -> Path:
    return FIXTURE_CORPUS


@pytest.fixture
def mock_gateway(tmp_path) -> ProviderGateway:
    """Gateway backed by the seeded offline mocks and a throwaway cache."""
    return ProviderGateway(
        cache=DiskCache(tmp_path / "cache"),
        chat_provider=MockChatProvider(seed=0),
        embedding_provider=MockEmbeddingProvider(seed=0, dim=16),
        sleep=lambda _: None,
    )


class StaticChatProvider:
    """Always returns the same canned text; counts calls for test assertions."""

    def __init__(self, text: str, provider_id: str = "static-chat"):
        self.text = text
        self.provider_id = provider_id
        self.calls = 0

    def complete(self, request) -> str:
        self.calls += 1
        return self.text


def write_bundle(root: Path, studies, questions, responses) -> Path:
    """Write a CSV bundle from raw row lists (no validation)."""
    root.mkdir(parents=True, exist_ok=True)
    write_csv(root / "studies.csv", ["study_id", "label", "month_year", "domain", "platform"], studies)
    write_csv(root / "questions.csv", ["question_id", "study_id", "kind", "text"], questions)
    write_csv(root / "responses.csv", ["response_id", "question_id", "text", "collected_at"], responses)
    return root


def entry_request(data: bytes) -> dict:
    """The request an entry records: its first line, the canonical request as JSON."""
    return json.loads(data.partition(b"\n")[0])


def read_pack(path: Path) -> tuple[str, dict[str, bytes]]:
    """A pack's ``stored_at`` and its ``{hex digest: entry bytes}``, in table order; each entry's
    crc is checked."""
    data = path.read_bytes()
    assert data.startswith(PACK_MAGIC), path
    count = int.from_bytes(data[len(PACK_MAGIC) : len(PACK_MAGIC) + 4], "little")
    table_end = len(PACK_MAGIC) + 4 + PACK_ROW.size * count
    start = data.index(b"\n", table_end) + 1
    stored_at = data[table_end : start - 1].decode("utf-8")
    entries = {}
    for digest, end, crc in PACK_ROW.iter_unpack(data[len(PACK_MAGIC) + 4 : table_end]):
        entries[digest.hex()], start = data[start:end], end
        assert zlib.crc32(entries[digest.hex()]) == crc, (path, digest.hex())
    assert start == len(data), path
    return stored_at, entries


def cache_entries(cache_dir: Path) -> dict[str, bytes]:
    """``{hex digest: entry bytes}`` as a cache reads them: the packs in name order, the
    first copy of a key kept."""
    entries: dict[str, bytes] = {}
    for pack in sorted(p for p in (cache_dir / "packs").iterdir() if p.name.isdecimal()):
        for digest, data in read_pack(pack)[1].items():
            entries.setdefault(digest, data)
    return entries


def write_pack(path: Path, entries: dict[str, bytes]) -> None:
    """Write ``{hex digest: entry bytes}`` as the pack at ``path``, each row with the crc of the
    bytes it is given: so a bad entry reaches the decoder."""
    stored_at = b"2024-01-01T00:00:00+00:00\n"
    end = len(PACK_MAGIC) + 4 + PACK_ROW.size * len(entries) + len(stored_at)
    rows = []
    for digest, data in entries.items():
        end += len(data)
        rows.append(PACK_ROW.pack(bytes.fromhex(digest), end, zlib.crc32(data)))
    head = [PACK_MAGIC, len(entries).to_bytes(4, "little"), *rows, stored_at]
    path.write_bytes(b"".join([*head, *entries.values()]))


def write_v1_pack(path: Path) -> Path:
    """Write a pack as versions before pack v2 did (no crc column, a JSON entry); returns its path."""
    entry, stored_at = b'{"request":{},"response":{"text":"kept"}}\n', b"2024-01-01T00:00:00+00:00\n"
    head = DiskCache._V1_MAGIC + (1).to_bytes(4, "little")
    end = len(head) + 36 + len(stored_at) + len(entry)
    path.write_bytes(head + struct.pack("<32sI", bytes(32), end) + stored_at + entry)
    return path


def rewrite_cache(cache_dir: Path, entries: dict[str, bytes], later=()) -> dict[str, Path]:
    """Lay a cache out anew: the digests in ``later`` in a second pack, the rest in the first,
    which may hold none. Returns the pack each digest is read from."""
    for path in (cache_dir / "packs").iterdir():
        path.unlink()
    first, second = cache_dir / "packs" / "00000000", cache_dir / "packs" / "00000001"
    write_pack(first, {digest: data for digest, data in entries.items() if digest not in later})
    if later:
        write_pack(second, {digest: entries[digest] for digest in later})
    return {digest: second if digest in later else first for digest in entries}
