"""Reference-signature generation: prompt building, grid materialization, dedup, storage.

Signatures are AI-generated answers produced for each survey question before
scoring, over a grid of models x temperatures (x sentiments for the
sentiment strategy). Prompt templates are fixed and versioned; changing a
template invalidates prior results because the cache keys change with the
message text.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .dataset import write_json
from .errors import DataError, ProviderError
from .gateway import ChatRequest, ProviderGateway, PurposeTag
from .model import SurveyQuestion

TEMPLATE_VERSION = "sig-v1"

SENTIMENT_TEMPLATE = (
    "Answer the following survey question with a {sentiment} sentiment, "
    "as a survey participant would.\n\n{question}"
)


class Sentiment(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"


DEFAULT_SENTIMENTS = (Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.NEUTRAL)


class StrategyKind(str, Enum):
    BASIC = "basic"
    SENTIMENT = "sentiment"


@dataclass(frozen=True)
class PromptStrategy:
    kind: StrategyKind
    sentiment: Sentiment | None = None

    def __post_init__(self) -> None:
        if (self.kind == StrategyKind.SENTIMENT) != (self.sentiment is not None):
            raise ValueError("sentiment must be present iff kind is SENTIMENT")


@dataclass(frozen=True)
class Signature:
    signature_id: str
    question_id: str
    strategy: PromptStrategy
    model_id: str
    temperature: float
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError(f"signature {self.signature_id}: text must be non-empty")

    @property
    def sort_key(self) -> tuple[str, float, str]:
        sentiment = self.strategy.sentiment.value if self.strategy.sentiment else ""
        return (self.model_id, self.temperature, sentiment)


@dataclass(frozen=True)
class GenerationFailure:
    model_id: str
    temperature: float
    sentiment: Sentiment | None
    error: str


@dataclass(frozen=True)
class GridDescriptor:
    models: tuple[str, ...]
    temperatures: tuple[float, ...]
    sentiments: tuple[Sentiment, ...]

    def cell_count(self) -> int:
        n = len(self.models) * len(self.temperatures)
        return n * len(self.sentiments) if self.sentiments else n


@dataclass(frozen=True)
class SignatureSet:
    """All signatures generated for one question under one strategy."""

    question_id: str
    strategy_kind: StrategyKind
    signatures: tuple[Signature, ...]
    grid: GridDescriptor
    template_version: str = TEMPLATE_VERSION
    failures: tuple[GenerationFailure, ...] = ()
    duplicates_removed: int = 0

    def __post_init__(self) -> None:
        keys = [(s.model_id, s.temperature, s.strategy.sentiment) for s in self.signatures]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate grid cell in signature set for {self.question_id}")


def build_basic_prompt(question: SurveyQuestion) -> tuple[tuple[str, str], ...]:
    """A single user message carrying the question text verbatim, nothing else."""
    return (("user", question.text),)


def build_sentiment_prompt(
    question: SurveyQuestion, sentiment: Sentiment
) -> tuple[tuple[str, str], ...]:
    """One user message from the fixed, versioned sentiment template."""
    text = SENTIMENT_TEMPLATE.format(sentiment=sentiment.value, question=question.text)
    return (("user", text),)


def build_signature_request(
    question: SurveyQuestion,
    model_id: str,
    temperature: float,
    sentiment: Sentiment | None,
) -> ChatRequest:
    """The exact gateway request for one grid cell (replayable against the cache)."""
    if sentiment is None:
        messages = build_basic_prompt(question)
    else:
        messages = build_sentiment_prompt(question, sentiment)
    return ChatRequest(
        model_id=model_id,
        temperature=temperature,
        messages=messages,
        purpose=PurposeTag.GENERATE_SIGNATURE,
    )


def signature_id_for(
    question_id: str, kind: StrategyKind, model_id: str, temperature: float,
    sentiment: Sentiment | None,
) -> str:
    parts = [question_id, kind.value, model_id, f"t{temperature:g}"]
    if sentiment is not None:
        parts.append(sentiment.value)
    return "|".join(parts)


class SignatureGenerationError(ProviderError):
    """More than half of the grid cells failed for a question."""


def generate_signatures(
    question: SurveyQuestion,
    kind: StrategyKind,
    models: Sequence[str],
    temperatures: Sequence[float],
    gateway: ProviderGateway,
    sentiments: Sequence[Sentiment] = DEFAULT_SENTIMENTS,
) -> SignatureSet:
    """Materialize one signature per grid cell through the gateway.

    Provider failures and empty completions are recorded per cell; the whole
    operation fails only when more than half of the cells fail.
    """
    if not models or not temperatures:
        raise ValueError("model and temperature lists must be non-empty")
    if kind == StrategyKind.SENTIMENT and not sentiments:
        raise ValueError("sentiment list must be non-empty for the sentiment strategy")

    grid_sentiments = tuple(sentiments) if kind == StrategyKind.SENTIMENT else ()
    cells = [
        (model_id, float(temperature), sentiment)
        for model_id in models
        for temperature in temperatures
        for sentiment in grid_sentiments or (None,)
    ]
    outcomes = gateway.chat_many([build_signature_request(question, *cell) for cell in cells])
    signatures: list[Signature] = []
    failures: list[GenerationFailure] = []
    for (model_id, temperature, sentiment), outcome in zip(cells, outcomes):
        if isinstance(outcome, ProviderError):
            failures.append(GenerationFailure(model_id, temperature, sentiment, str(outcome)))
            continue
        if not outcome.text.strip():
            failures.append(
                GenerationFailure(model_id, temperature, sentiment, "empty completion")
            )
            continue
        signatures.append(
            Signature(
                signature_id=signature_id_for(
                    question.question_id, kind, model_id, temperature, sentiment
                ),
                question_id=question.question_id,
                strategy=PromptStrategy(kind, sentiment),
                model_id=model_id,
                temperature=temperature,
                text=outcome.text,
            )
        )

    if len(failures) * 2 > len(cells):
        raise SignatureGenerationError(
            f'question "{question.question_id}": {len(failures)}/{len(cells)} signature cells failed'
        )
    signatures.sort(key=lambda s: s.sort_key)
    return SignatureSet(
        question_id=question.question_id,
        strategy_kind=kind,
        signatures=tuple(signatures),
        grid=GridDescriptor(
            models=tuple(models),
            temperatures=tuple(float(t) for t in temperatures),
            sentiments=grid_sentiments,
        ),
        failures=tuple(failures),
    )


def _normalized(text: str) -> str:
    return " ".join(text.split())


def dedupe_signatures(signature_set: SignatureSet) -> SignatureSet:
    """Merge signatures whose text is identical after trim + whitespace collapse.

    The survivor of each group is the one with the smallest
    (model_id, temperature, sentiment) key; the removal count is recorded.
    Dedup never changes downstream max-similarity scores.
    """
    groups: dict[str, list[Signature]] = {}
    for sig in signature_set.signatures:
        groups.setdefault(_normalized(sig.text), []).append(sig)
    kept = [min(group, key=lambda s: (s.sort_key, s.signature_id)) for group in groups.values()]
    removed = len(signature_set.signatures) - len(kept)
    kept.sort(key=lambda s: s.sort_key)
    return replace(
        signature_set,
        signatures=tuple(kept),
        duplicates_removed=signature_set.duplicates_removed + removed,
    )


# ---------------------------------------------------------------------------
# Signature store: one JSON file per question, stable key order.

_SAFE_NAME = re.compile(r"^[A-Za-z0-9._-]+$")


def _store_filename(question_id: str) -> str:
    if _SAFE_NAME.match(question_id):
        return f"{question_id}.json"
    return f"q-{hashlib.sha256(question_id.encode('utf-8')).hexdigest()[:16]}.json"


def signature_store_path(store_dir: Path | str, kind: StrategyKind, question_id: str) -> Path:
    return Path(store_dir) / kind.value / _store_filename(question_id)


def save_signature_set(signature_set: SignatureSet, store_dir: Path | str) -> Path:
    path = signature_store_path(store_dir, signature_set.strategy_kind, signature_set.question_id)
    write_json(path, {
        "question_id": signature_set.question_id,
        "strategy": signature_set.strategy_kind.value,
        "template_version": signature_set.template_version,
        "grid": {
            "models": list(signature_set.grid.models),
            "temperatures": list(signature_set.grid.temperatures),
            "sentiments": [s.value for s in signature_set.grid.sentiments],
        },
        "signatures": [
            {
                "signature_id": s.signature_id,
                "model_id": s.model_id,
                "temperature": s.temperature,
                "sentiment": s.strategy.sentiment.value if s.strategy.sentiment else None,
                "text": s.text,
            }
            for s in signature_set.signatures
        ],
        "failures": [
            {
                "model_id": f.model_id,
                "temperature": f.temperature,
                "sentiment": f.sentiment.value if f.sentiment else None,
                "error": f.error,
            }
            for f in signature_set.failures
        ],
        "duplicates_removed": signature_set.duplicates_removed,
    })
    return path


def load_signature_set(store_dir: Path | str, kind: StrategyKind, question_id: str) -> SignatureSet:
    path = signature_store_path(store_dir, kind, question_id)
    if not path.exists():
        raise DataError(f'no signature store for question "{question_id}" under {path.parent}')
    try:
        with open(path, encoding="utf-8") as fh:
            return _signature_set_from(json.load(fh))
    except KeyError as exc:
        raise DataError(f"corrupted signature store file: {path}: missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # JSONDecodeError included
        raise DataError(f"corrupted signature store file: {path}: {exc}") from exc


def _sentiment(row: dict) -> Sentiment | None:
    return Sentiment(row["sentiment"]) if row.get("sentiment") else None


def _signature_set_from(payload: dict) -> SignatureSet:
    kind = StrategyKind(payload["strategy"])
    signatures = tuple(
        Signature(
            signature_id=row["signature_id"],
            question_id=payload["question_id"],
            strategy=PromptStrategy(kind, _sentiment(row)),
            model_id=row["model_id"],
            temperature=float(row["temperature"]),
            text=row["text"],
        )
        for row in payload["signatures"]
    )
    failures = tuple(
        GenerationFailure(
            model_id=row["model_id"],
            temperature=float(row["temperature"]),
            sentiment=_sentiment(row),
            error=row["error"],
        )
        for row in payload.get("failures", [])
    )
    return SignatureSet(
        question_id=payload["question_id"],
        strategy_kind=kind,
        signatures=signatures,
        grid=GridDescriptor(
            models=tuple(payload["grid"]["models"]),
            temperatures=tuple(float(t) for t in payload["grid"]["temperatures"]),
            sentiments=tuple(Sentiment(s) for s in payload["grid"]["sentiments"]),
        ),
        template_version=payload["template_version"],
        failures=failures,
        duplicates_removed=int(payload.get("duplicates_removed", 0)),
    )
