import json
from pathlib import Path

import numpy as np
import pytest

from surveyguard.dataset import write_csv
from surveyguard.gateway import DiskCache, ProviderGateway
from surveyguard.providers import MockChatProvider, MockEmbeddingProvider

FIXTURE_CORPUS = Path(__file__).parent / "fixtures" / "corpus"
VECTOR_MAGIC = DiskCache._VECTOR_MAGIC


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


def rewrite_as_legacy(path: Path) -> None:
    path.write_bytes(cache_file_bytes(legacy_entry(*parse_cache_file(path.read_bytes()))))
