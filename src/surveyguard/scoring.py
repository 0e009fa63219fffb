"""Similarity math for signature-based detection.

A response's final score is the maximum cosine similarity between its
embedding and the embeddings of all reference signatures for its question;
threshold classification uses an inclusive >= rule (documented convention,
so every reported number is reproducible).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .gateway import EmbeddingVector
from .model import Verdict, VerdictFlag, VerdictSource

FLAG_EMPTY = "empty"
FLAG_IRRELEVANT = "irrelevant"

SCORE_TOLERANCE = 1e-9  # floating slack allowed on |score| <= 1


class DegenerateEmbeddingError(DataError):
    """A zero-norm embedding cannot be compared by cosine similarity."""


@dataclass(frozen=True)
class SimilarityRecord:
    response_id: str
    signature_id: str
    score: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.score) or abs(self.score) > 1.0 + SCORE_TOLERANCE:
            raise ValueError(f"similarity score out of range: {self.score}")


@dataclass(frozen=True)
class ScoredResponse:
    """A response with its per-signature similarities and max-aggregated score.

    final_score is None only for empty responses, which never reach the
    embedder and carry the "empty" flag instead.
    """

    response_id: str
    per_signature: tuple[SimilarityRecord, ...]
    final_score: float | None
    best_signature_id: str | None
    flags: frozenset[str] = frozenset()

    def with_flags(self, *extra: str) -> "ScoredResponse":
        return replace(self, flags=self.flags | frozenset(extra))


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (||a|| * ||b||) in double precision."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    va = np.asarray(a.values, dtype=np.float64)
    vb = np.asarray(b.values, dtype=np.float64)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise DegenerateEmbeddingError("degenerate embedding: zero norm")
    return float(np.dot(va, vb) / (na * nb))


def score_response(
    response_id: str,
    response_embedding: EmbeddingVector,
    signature_embeddings: Sequence[tuple[str, EmbeddingVector]],
    flags: Iterable[str] = (),
) -> ScoredResponse:
    """Score a response against every signature; final score is the max.

    Ties on the max go to the lexicographically smallest signature_id.
    """
    if not signature_embeddings:
        raise ValueError("empty signature set")
    records = []
    best_id: str | None = None
    best_score = -np.inf
    for signature_id, embedding in signature_embeddings:
        score = cosine_similarity(response_embedding, embedding)
        records.append(SimilarityRecord(response_id=response_id, signature_id=signature_id, score=score))
        if score > best_score or (score == best_score and (best_id is None or signature_id < best_id)):
            best_score = score
            best_id = signature_id
    return ScoredResponse(
        response_id=response_id,
        per_signature=tuple(records),
        final_score=float(best_score),
        best_signature_id=best_id,
        flags=frozenset(flags),
    )


def empty_scored(response_id: str, flags: Iterable[str] = ()) -> ScoredResponse:
    """Placeholder for an empty/whitespace-only response: no score, "empty" flag."""
    return ScoredResponse(
        response_id=response_id,
        per_signature=(),
        final_score=None,
        best_signature_id=None,
        flags=frozenset(flags) | {FLAG_EMPTY},
    )


def meets_threshold(scored: ScoredResponse, th: float) -> bool:
    """The inclusive rule: True iff final_score >= th. Empty responses never meet it."""
    return scored.final_score is not None and scored.final_score >= th


def check_threshold(th: float) -> None:
    """A threshold lies in (-1, 1]; at -1 or below every scored response would be AI."""
    if not -1.0 < th <= 1.0:
        raise ValueError(f"threshold must be in (-1, 1], got {th}")


def classify_by_threshold(scored: ScoredResponse, th: float) -> Verdict:
    """AI when the score meets th (inclusive boundary), else HUMAN."""
    check_threshold(th)
    return Verdict(
        flag=VerdictFlag.AI if meets_threshold(scored, th) else VerdictFlag.HUMAN,
        source=VerdictSource.SIGNATURE,
        detail=f"threshold={th:g}",
    )


def flag_irrelevant(scored: ScoredResponse, low_th: float = 0.0) -> bool:
    """True iff the final score is at or below low_th (off-topic indicator)."""
    return scored.final_score is not None and scored.final_score <= low_th


def apply_irrelevance(scored: ScoredResponse, low_th: float = 0.0) -> ScoredResponse:
    """Return the response with the "irrelevant" flag set when it applies."""
    if flag_irrelevant(scored, low_th):
        return scored.with_flags(FLAG_IRRELEVANT)
    return scored
