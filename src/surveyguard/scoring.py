"""Similarity math for signature-based detection.

A response's final score is the maximum cosine similarity between its
embedding and the embeddings of all reference signatures for its question;
threshold classification uses an inclusive >= rule (documented convention,
so every reported number is reproducible).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import DataError

FLAG_EMPTY = "empty"
FLAG_IRRELEVANT = "irrelevant"

SCORE_TOLERANCE = 1e-9  # floating slack allowed on |score| <= 1


class DegenerateEmbeddingError(DataError):
    """A zero-norm embedding cannot be compared by cosine similarity."""


def similarity_matrix(vectors: np.ndarray, ids: Sequence[str], signatures: int) -> np.ndarray:
    """Cosines of an ``(n, d)`` array's rows after the first ``signatures`` against those, as an
    (n - S, S) array; ``ids`` names the rows.

    Every row is normalised once, then reduced with einsum, which uses no BLAS,
    so a score's bits depend neither on its batch, nor on the other columns,
    nor on operand order or the BLAS thread count.
    """
    norms = np.linalg.norm(vectors, axis=1)
    usable = (norms > 0.0) & np.isfinite(norms)  # a norm that overflows would zero the row
    if not usable.all():
        first = ids[usable.argmin()]
        raise DegenerateEmbeddingError(f"degenerate embedding: zero or infinite norm for {first!r}")
    unit = vectors / norms[:, None]
    m = np.einsum("id,jd->ij", unit[signatures:], unit[:signatures])
    if not (np.abs(m) <= 1.0 + SCORE_TOLERANCE).all():  # NaN fails this too
        raise ValueError(f"similarity score out of range: {np.abs(m).max()}")
    return m


def score_matrix(
    signature_ids: Sequence[str], response_ids: Sequence[str], vectors: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """One question's signature ids sorted, and its responses' cosines against them: a row per
    response, a column per signature in that order; ``vectors`` holds the signatures' rows, then
    the responses'. A row's argmax, the first maximum, is its best signature, so ties go to the
    lexicographically smallest id."""
    if not signature_ids:
        raise ValueError("empty signature set")
    order = sorted(range(len(signature_ids)), key=signature_ids.__getitem__)
    m = similarity_matrix(vectors, [*signature_ids, *response_ids], len(signature_ids))[:, order]
    return [signature_ids[j] for j in order], m


def score_response(
    response_id: str,
    response_embedding: np.ndarray,
    signature_embeddings: Sequence[tuple[str, np.ndarray]],
) -> dict:
    """Score a response against every signature; final score is the max.

    Ties on the max go to the lexicographically smallest signature_id.
    """
    vectors = [*(vector for _, vector in signature_embeddings), response_embedding]
    for vector in vectors:
        if len(vector) != len(response_embedding):
            raise ValueError(f"dimension mismatch: {len(response_embedding)} vs {len(vector)}")
    ids, m = score_matrix([i for i, _ in signature_embeddings], [response_id], np.stack(vectors))
    (scores,), best = m.tolist(), int(m.argmax())
    return dict(
        response_id=response_id, final_score=scores[best], best_signature_id=ids[best], flags=[],
        per_signature=[{"signature_id": i, "score": v} for i, v in zip(ids, scores)],
    )


def meets_threshold(final_scores: ArrayLike, th: float) -> np.ndarray:
    """The inclusive rule, per score: True where the final score is >= th. An empty response's
    score, NaN (or None), never meets it."""
    return np.asarray(final_scores, dtype=np.float64) >= th


def check_threshold(th: float) -> None:
    """A threshold lies in (-1, 1]; at -1 or below every scored response would be AI."""
    if not -1.0 < th <= 1.0:
        raise ValueError(f"threshold must be in (-1, 1], got {th}")


def flag_irrelevant(final_scores: ArrayLike, low_th: float = 0.0) -> np.ndarray:
    """Per score: True where the final score is at or below low_th (off-topic indicator). An empty
    response's score, NaN (or None), never is."""
    return np.asarray(final_scores, dtype=np.float64) <= low_th
