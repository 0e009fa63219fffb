from pathlib import Path

import pytest

from surveyguard.dataset import write_csv
from surveyguard.gateway import DiskCache, ProviderGateway
from surveyguard.providers import MockChatProvider, MockEmbeddingProvider

FIXTURE_CORPUS = Path(__file__).parent / "fixtures" / "corpus"


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
