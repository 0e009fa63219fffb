"""Similarity math for signature-based detection.

A response's final score is the maximum cosine similarity between its
embedding and the embeddings of all reference signatures for its question;
threshold classification uses an inclusive >= rule (documented convention,
so every reported number is reproducible).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import repeat

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


def similarity_matrix(
    responses: Sequence[tuple[str, EmbeddingVector]],
    signatures: Sequence[tuple[str, EmbeddingVector]],
) -> np.ndarray:
    """Cosines as an (R, S) array: rows follow responses, columns signatures.

    Every row is normalised once, then reduced with einsum, which uses no BLAS,
    so a score's bits depend neither on its batch, nor on the other columns,
    nor on operand order or the BLAS thread count.
    """
    pairs = [*responses, *signatures]
    if responses[0][1].dim != signatures[0][1].dim:
        raise ValueError(f"dimension mismatch: {responses[0][1].dim} vs {signatures[0][1].dim}")
    rows = np.stack([vector.values for _, vector in pairs])
    norms = np.linalg.norm(rows, axis=1)
    usable = (norms > 0.0) & np.isfinite(norms)  # a norm that overflows would zero the row
    if not usable.all():
        first = pairs[usable.argmin()][0]
        raise DegenerateEmbeddingError(f"degenerate embedding: zero or infinite norm for {first!r}")
    unit = rows / norms[:, None]
    m = np.einsum("id,jd->ij", unit[: len(responses)], unit[len(responses) :])
    if not (np.abs(m) <= 1.0 + SCORE_TOLERANCE).all():  # NaN fails this too
        raise ValueError(f"similarity score out of range: {np.abs(m).max()}")
    return m


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """The cosine of one pair, through the same core as ``score_question``."""
    return float(similarity_matrix([("a", a)], [("b", b)])[0, 0])


def score_question(
    responses: Sequence[tuple[str, EmbeddingVector]],
    signatures: Sequence[tuple[str, EmbeddingVector]],
    records: bool = True,
) -> list[ScoredResponse]:
    """Score one question's responses; each final score is its row's max.

    Columns are sorted by signature_id and argmax returns the first maximum, so
    ties go to the lexicographically smallest id. ``records`` off leaves
    ``per_signature`` empty.
    """
    if not responses:
        return []
    if not signatures:
        raise ValueError("empty signature set")
    signatures = sorted(signatures, key=lambda pair: pair[0])
    ids = [signature_id for signature_id, _ in signatures]
    m = similarity_matrix(responses, signatures)
    return [
        ScoredResponse(
            response_id=rid,
            per_signature=tuple(map(SimilarityRecord, repeat(rid), ids, row)) if records else (),
            final_score=row[best],
            best_signature_id=ids[best],
        )
        for (rid, _), row, best in zip(responses, m.tolist(), m.argmax(axis=1).tolist())
    ]


def score_response(
    response_id: str,
    response_embedding: EmbeddingVector,
    signature_embeddings: Sequence[tuple[str, EmbeddingVector]],
    flags: Iterable[str] = (),
) -> ScoredResponse:
    """Score a response against every signature; final score is the max.

    Ties on the max go to the lexicographically smallest signature_id.
    """
    scored = score_question([(response_id, response_embedding)], signature_embeddings)[0]
    return scored.with_flags(*flags)


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
