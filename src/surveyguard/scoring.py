"""Similarity math for signature-based detection.

A response's final score is the maximum cosine similarity between its
embedding and the embeddings of all reference signatures for its question;
threshold classification uses an inclusive >= rule (documented convention,
so every reported number is reproducible).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

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


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """The cosine of one pair, through the same core as ``score_question``."""
    return score_response("a", a, [("b", b)])["final_score"]


def score_question(
    signature_ids: Sequence[str],
    response_ids: Sequence[str],
    vectors: np.ndarray,
    records: bool = True,
) -> list[dict]:
    """Score one question's responses against its signatures; ``vectors`` holds the signatures'
    rows, then the responses'. Each final score is its row's max.

    Returns one row per response: response_id, final_score, best_signature_id
    and flags, plus per_signature ([{signature_id, score}] by signature_id)
    when ``records`` is on. Columns are sorted by signature_id and argmax
    returns the first maximum, so ties go to the lexicographically smallest id.
    """
    if not response_ids:
        return []
    if not signature_ids:
        raise ValueError("empty signature set")
    order = sorted(range(len(signature_ids)), key=signature_ids.__getitem__)
    ids = [signature_ids[j] for j in order]
    m = similarity_matrix(vectors, [*signature_ids, *response_ids], len(signature_ids))[:, order]
    rows = []
    for rid, scores, best in zip(response_ids, m.tolist(), m.argmax(axis=1).tolist()):
        row = dict(response_id=rid, final_score=scores[best], best_signature_id=ids[best], flags=[])
        if records:
            row["per_signature"] = [{"signature_id": i, "score": v} for i, v in zip(ids, scores)]
        rows.append(row)
    return rows


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
    return score_question([i for i, _ in signature_embeddings], [response_id], np.stack(vectors))[0]


def empty_scored(response_id: str, records: bool = True) -> dict:
    """The row of an empty/whitespace-only response: no score, "empty" flag."""
    row = dict(response_id=response_id, final_score=None, best_signature_id=None, flags=[FLAG_EMPTY])
    if records:
        row["per_signature"] = []
    return row


def meets_threshold(row: Mapping, th: float) -> bool:
    """The inclusive rule: True iff final_score >= th. Empty responses never meet it."""
    return row["final_score"] is not None and row["final_score"] >= th


def check_threshold(th: float) -> None:
    """A threshold lies in (-1, 1]; at -1 or below every scored response would be AI."""
    if not -1.0 < th <= 1.0:
        raise ValueError(f"threshold must be in (-1, 1], got {th}")


def flag_irrelevant(row: Mapping, low_th: float = 0.0) -> bool:
    """True iff the final score is at or below low_th (off-topic indicator)."""
    return row["final_score"] is not None and row["final_score"] <= low_th
