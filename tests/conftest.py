import json
import struct
from pathlib import Path

import numpy as np
import pytest

from surveyguard.dataset import write_csv
from surveyguard.gateway import DiskCache, ProviderGateway
from surveyguard.providers import MockChatProvider, MockEmbeddingProvider

FIXTURE_CORPUS = Path(__file__).parent / "fixtures" / "corpus"
VECTOR_MAGIC = DiskCache._VECTOR_MAGIC
PACK_MAGIC = DiskCache._PACK_MAGIC
PACK_ROW = struct.Struct("<32sI")  # digest, end offset


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


def parse_cache_file(data: bytes) -> tuple[dict, bytes | None]:
    """A cache file's JSON and, for an entry in the vector form, its raw ``<f8`` body."""
    if not data.startswith(VECTOR_MAGIC):
        return json.loads(data), None
    header, _, body = data[len(VECTOR_MAGIC) :].partition(b"\n")
    return json.loads(header), body


def cache_file_bytes(entry: dict, body: bytes | None = None) -> bytes:
    """The bytes of a JSON cache file or, given a body, of a vector-form one."""
    line = (json.dumps(entry, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n").encode()
    return line if body is None else VECTOR_MAGIC + line + body


def legacy_entry(entry: dict, body: bytes) -> dict:
    """A vector-form embedding entry as the JSON entry earlier versions wrote for it."""
    values = np.frombuffer(body, dtype="<f8").tolist()
    return {**entry, "response": {"dim": entry["response"]["dim"], "values": values}}


def read_pack(path: Path) -> tuple[str, dict[str, bytes]]:
    """A pack's ``stored_at`` and its ``{hex digest: entry bytes}``, in table order."""
    data = path.read_bytes()
    assert data.startswith(PACK_MAGIC), path
    count = int.from_bytes(data[len(PACK_MAGIC) : len(PACK_MAGIC) + 4], "little")
    table_end = len(PACK_MAGIC) + 4 + PACK_ROW.size * count
    start = data.index(b"\n", table_end) + 1
    stored_at = data[table_end : start - 1].decode("utf-8")
    entries = {}
    for digest, end in PACK_ROW.iter_unpack(data[len(PACK_MAGIC) + 4 : table_end]):
        entries[digest.hex()], start = data[start:end], end
    assert start == len(data), path
    return stored_at, entries


def cache_entries(cache_dir: Path) -> dict[str, bytes]:
    """``{hex digest: entry bytes}`` as a cache reads them: the packs in name order, the
    first copy of a key kept, then the one-file-per-key entries of earlier versions."""
    entries: dict[str, bytes] = {}
    for pack in sorted(p for p in (cache_dir / "packs").iterdir() if p.name.isdecimal()):
        for digest, data in read_pack(pack)[1].items():
            entries.setdefault(digest, data)
    for path in sorted(cache_dir.iterdir()):
        if path.is_file() and not path.name.startswith("."):
            entries.setdefault(path.name, path.read_bytes())
    return entries


def rewrite_cache(cache_dir: Path, entries: dict[str, bytes], legacy=()) -> dict[str, Path]:
    """Lay a cache out anew: the digests in ``legacy`` as one file each, the rest in one pack.

    Returns the file each digest is read from."""
    for path in [*(cache_dir / "packs").iterdir(), *cache_dir.iterdir()]:
        if path.is_file():
            path.unlink()
    packed = {digest: data for digest, data in entries.items() if digest not in legacy}
    pack = cache_dir / "packs" / "00000000"
    stored_at = b"2024-01-01T00:00:00+00:00\n"
    end = len(PACK_MAGIC) + 4 + PACK_ROW.size * len(packed) + len(stored_at)
    rows = []
    for digest, data in packed.items():
        end += len(data)
        rows.append(PACK_ROW.pack(bytes.fromhex(digest), end))
    head = [PACK_MAGIC, len(packed).to_bytes(4, "little"), *rows, stored_at]
    pack.write_bytes(b"".join([*head, *packed.values()]))
    located = dict.fromkeys(packed, pack)
    for digest in legacy:
        located[digest] = cache_dir / digest
        located[digest].write_bytes(entries[digest])
    return located
