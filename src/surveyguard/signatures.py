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
) -> dict:
    """Materialize one signature per grid cell through the gateway; returns the store dict.

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
    signatures: list[dict] = []
    failures: list[dict] = []
    for (model_id, temperature, sentiment), outcome in zip(cells, outcomes):
        row = {
            "model_id": model_id,
            "temperature": temperature,
            "sentiment": sentiment.value if sentiment else None,
        }
        if isinstance(outcome, ProviderError):
            failures.append({**row, "error": str(outcome)})
        elif not outcome.text.strip():
            failures.append({**row, "error": "empty completion"})
        else:
            signature_id = signature_id_for(question.question_id, kind, model_id, temperature, sentiment)
            signatures.append({"signature_id": signature_id, **row, "text": outcome.text})

    if len(failures) * 2 > len(cells):
        raise SignatureGenerationError(
            f'question "{question.question_id}": {len(failures)}/{len(cells)} signature cells failed'
        )
    signatures.sort(key=_cell_order)
    return {
        "question_id": question.question_id,
        "strategy": kind.value,
        "template_version": TEMPLATE_VERSION,
        "grid": {
            "models": list(models),
            "temperatures": [float(t) for t in temperatures],
            "sentiments": [s.value for s in grid_sentiments],
        },
        "signatures": signatures,
        "failures": failures,
        "duplicates_removed": 0,
    }


def _cell_order(row: dict) -> tuple[str, float, str]:
    return (row["model_id"], row["temperature"], row["sentiment"] or "")


def _normalized(text: str) -> str:
    return " ".join(text.split())


def dedupe_signatures(store: dict) -> dict:
    """Merge signatures whose text is identical after trim + whitespace collapse.

    The survivor of each group is the one with the smallest
    (model_id, temperature, sentiment) key; the removal count is recorded.
    Dedup never changes downstream max-similarity scores.
    """
    groups: dict[str, list[dict]] = {}
    for sig in store["signatures"]:
        groups.setdefault(_normalized(sig["text"]), []).append(sig)
    kept = [min(group, key=lambda s: (_cell_order(s), s["signature_id"])) for group in groups.values()]
    removed = len(store["signatures"]) - len(kept)
    kept.sort(key=_cell_order)
    return {**store, "signatures": kept, "duplicates_removed": store["duplicates_removed"] + removed}


# ---------------------------------------------------------------------------
# Signature store: one JSON file per question, stable key order.

_SAFE_NAME = re.compile(r"^[A-Za-z0-9._-]+$")


def _store_filename(question_id: str) -> str:
    if _SAFE_NAME.match(question_id):
        return f"{question_id}.json"
    return f"q-{hashlib.sha256(question_id.encode('utf-8')).hexdigest()[:16]}.json"


def signature_store_path(store_dir: Path | str, kind: StrategyKind, question_id: str) -> Path:
    return Path(store_dir) / kind.value / _store_filename(question_id)


def save_signature_set(store: dict, store_dir: Path | str) -> Path:
    path = signature_store_path(store_dir, StrategyKind(store["strategy"]), store["question_id"])
    write_json(path, store)
    return path


def load_signature_set(store_dir: Path | str, kind: StrategyKind, question_id: str) -> dict:
    """The parsed store file, once every row has been checked."""
    path = signature_store_path(store_dir, kind, question_id)
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f'no signature store for question "{question_id}" under {path.parent}') from None
    try:
        with fh:
            store = json.load(fh)
        _check_store(store)
        if (store["strategy"], store["question_id"]) != (kind.value, question_id):
            raise ValueError(f"it is the {store['strategy']} store of question {store['question_id']!r}")
    except KeyError as exc:
        raise DataError(f"corrupted signature store file: {path}: missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # JSONDecodeError included
        raise DataError(f"corrupted signature store file: {path}: {exc}") from exc
    return store


def _grid_cell(kind: StrategyKind, row: dict) -> tuple[str, float, Sentiment | None]:
    sentiment = Sentiment(row["sentiment"]) if row.get("sentiment") else None
    if (kind == StrategyKind.SENTIMENT) != (sentiment is not None):
        raise ValueError("sentiment must be present iff kind is SENTIMENT")
    return row["model_id"], float(row["temperature"]), sentiment


def _check_store(store: object) -> None:
    """Raise KeyError, TypeError or ValueError unless store reads as a signature store.

    Each conversion below is there to raise on a bad value; its result is not kept.
    """
    if not isinstance(store, dict):
        raise TypeError("not a JSON object")
    kind = StrategyKind(store["strategy"])
    for key in ("question_id", "template_version"):
        if key not in store:
            raise KeyError(key)
    iter(store["grid"]["models"])
    for t in store["grid"]["temperatures"]:
        float(t)
    for s in store["grid"]["sentiments"]:
        Sentiment(s)
    int(store.get("duplicates_removed", 0))
    cells = set()
    for row in store["signatures"]:
        signature_id, cell = row["signature_id"], _grid_cell(kind, row)
        if not row["text"]:
            raise ValueError(f"signature {signature_id}: text must be non-empty")
        if cell in cells:
            raise ValueError(f"duplicate grid cell in signature set for {store['question_id']}")
        cells.add(cell)
    for row in store.get("failures", []):
        _grid_cell(kind, row)
        if "error" not in row:
            raise KeyError("error")
