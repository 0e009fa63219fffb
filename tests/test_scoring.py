import json
import math
import random

import numpy as np
import pytest

from surveyguard.cli import main
from surveyguard.scoring import (
    FLAG_EMPTY,
    FLAG_IRRELEVANT,
    DegenerateEmbeddingError,
    check_threshold,
    cosine_similarity,
    empty_scored,
    flag_irrelevant,
    meets_threshold,
    score_question,
    score_response,
    similarity_matrix,
)


def vec(*values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def random_vec(rng: random.Random, dim: int) -> np.ndarray:
    while True:
        values = [rng.uniform(-1, 1) for _ in range(dim)]
        if any(v != 0 for v in values):
            return vec(*values)


def score_pairs(responses, signatures, records=True) -> list[dict]:
    """``score_question`` of (id, vector) pairs, the signatures' rows stacked above the responses'."""
    vectors = np.stack([vector for _, vector in [*signatures, *responses]])
    return score_question([i for i, _ in signatures], [i for i, _ in responses], vectors, records=records)


def pair_matrix(responses, signatures) -> np.ndarray:
    """``similarity_matrix`` of (id, vector) pairs: a row per response, a column per signature."""
    pairs = [*signatures, *responses]
    return similarity_matrix(np.stack([v for _, v in pairs]), [i for i, _ in pairs], len(signatures))


def oracle_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Independent pure-python cosine for cross-checking."""
    a, b = a.tolist(), b.tolist()
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


class TestCosine:
    def test_self_similarity(self):
        v = vec(0.3, -1.2, 4.5)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(vec(1, 0), vec(0, 1)) == 0.0

    def test_antipodal(self):
        assert cosine_similarity(vec(1, 0), vec(-1, 0)) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity(vec(1, 0), vec(1, 0, 0))

    def test_zero_norm_is_degenerate(self):
        with pytest.raises(DegenerateEmbeddingError, match="degenerate embedding"):
            cosine_similarity(vec(0, 0), vec(1, 0))

    def test_range_symmetry_and_scale_invariance(self):
        rng = random.Random(7)
        for _ in range(300):
            dim = rng.randrange(2, 16)
            a, b = random_vec(rng, dim), random_vec(rng, dim)
            s = cosine_similarity(a, b)
            assert abs(s) <= 1.0 + 1e-9
            assert s == cosine_similarity(b, a)  # exact symmetry
            k = rng.uniform(0.01, 100.0)
            scaled = vec(*(k * x for x in a.tolist()))
            assert cosine_similarity(scaled, b) == pytest.approx(s, abs=1e-12)


class TestScoreResponse:
    def sigs_with_cosines(self, cosines):
        # response (1, 0) against signatures (c, sqrt(1 - c^2)) has cosine ~ c
        return [
            (f"sig{i}", vec(c, math.sqrt(1 - c * c)))
            for i, c in enumerate(cosines)
        ]

    def test_max_of_three(self):
        scored = score_response("r1", vec(1, 0), self.sigs_with_cosines([0.3, 0.9, 0.5]))
        assert scored["final_score"] == pytest.approx(0.9, abs=1e-12)
        assert scored["best_signature_id"] == "sig1"
        assert len(scored["per_signature"]) == 3

    def test_singleton(self):
        scored = score_response("r1", vec(1, 0), self.sigs_with_cosines([0.42]))
        assert scored["final_score"] == pytest.approx(0.42, abs=1e-12)
        assert scored["best_signature_id"] == "sig0"

    def test_tie_breaks_to_lexicographically_smallest_id(self):
        same = vec(0.5, 0.5)
        scored = score_response("r1", vec(1, 1), [("sigB", same), ("sigA", same)])
        assert scored["best_signature_id"] == "sigA"

    def test_empty_signature_set(self):
        with pytest.raises(ValueError, match="empty signature set"):
            score_response("r1", vec(1, 0), [])

    def test_final_equals_brute_force_oracle_on_20_signatures(self):
        rng = random.Random(11)
        response = random_vec(rng, 8)
        pairs = [(f"sig{i:02d}", random_vec(rng, 8)) for i in range(20)]
        scored = score_response("r1", response, pairs)
        oracle_scores = {sid: oracle_cosine(response, emb) for sid, emb in pairs}
        oracle_best = max(oracle_scores.values())
        assert scored["final_score"] == pytest.approx(oracle_best, abs=1e-12)
        for record in scored["per_signature"]:
            assert record["score"] == pytest.approx(oracle_scores[record["signature_id"]], abs=1e-12)

    def test_adding_signature_never_decreases_final(self):
        rng = random.Random(3)
        response = random_vec(rng, 4)
        pairs = [(f"s{i}", random_vec(rng, 4)) for i in range(5)]
        base = score_response("r", response, pairs)["final_score"]
        grown = score_response("r", response, pairs + [("s9", random_vec(rng, 4))])["final_score"]
        assert grown >= base

    def test_removing_non_best_signature_preserves_final(self):
        rng = random.Random(4)
        response = random_vec(rng, 4)
        pairs = [(f"s{i}", random_vec(rng, 4)) for i in range(6)]
        scored = score_response("r", response, pairs)
        trimmed = [p for p in pairs if p[0] != next(x[0] for x in pairs if x[0] != scored["best_signature_id"])]
        assert score_response("r", response, trimmed)["final_score"] == scored["final_score"]

    def test_duplicate_signatures_do_not_change_final(self):
        rng = random.Random(5)
        response = random_vec(rng, 4)
        pairs = [(f"s{i}", random_vec(rng, 4)) for i in range(4)]
        with_dupes = pairs + [("dup0", pairs[0][1]), ("dup2", pairs[2][1])]
        assert (
            score_response("r", response, with_dupes)["final_score"]
            == score_response("r", response, pairs)["final_score"]
        )


def manual_scored(final: float) -> dict:
    return {
        "response_id": "r",
        "final_score": final,
        "best_signature_id": "s",
        "flags": [],
        "per_signature": [{"signature_id": "s", "score": final}],
    }


class TestThresholdClassification:
    def test_above_threshold(self):
        assert meets_threshold(manual_scored(0.92), 0.9)

    def test_inclusive_boundary(self):
        assert meets_threshold(manual_scored(0.90), 0.9)

    def test_below_threshold(self):
        assert not meets_threshold(manual_scored(0.89), 0.9)

    def test_empty_response_counts_as_not_ai(self):
        assert not meets_threshold(empty_scored("r"), 0.7)

    @pytest.mark.parametrize("bad", [-1.0, -1.5, 1.0001])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            check_threshold(bad)

    def test_ai_count_non_increasing_in_threshold(self):
        rng = random.Random(9)
        scored = [manual_scored(rng.uniform(-1, 1)) for _ in range(100)]
        thresholds = [0.1 * i for i in range(-9, 11)]
        counts = [sum(1 for s in scored if meets_threshold(s, th)) for th in thresholds]
        assert counts == sorted(counts, reverse=True)


class TestIrrelevance:
    def test_negative_score_is_irrelevant(self):
        assert flag_irrelevant(manual_scored(-0.10), 0.0) is True

    def test_zero_boundary_inclusive(self):
        assert flag_irrelevant(manual_scored(0.00), 0.0) is True

    def test_positive_score_not_irrelevant(self):
        assert flag_irrelevant(manual_scored(0.45), 0.0) is False

    def test_empty_never_irrelevant(self):
        assert flag_irrelevant(empty_scored("r"), 0.0) is False

    def test_score_sets_the_irrelevant_flag(self, tmp_path, corpus_path):
        args = ["--dataset", str(corpus_path), "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path / "out"), "--mock"]
        assert main(["gen-signatures", *args]) == 0
        assert main(["score", *args, "--low-threshold", "0.5"]) == 0
        rows = json.loads((tmp_path / "out" / "scored_basic.json").read_text(encoding="utf-8"))
        flagged = [row for row in rows if flag_irrelevant(row, 0.5)]
        untouched = [row for row in rows if not flag_irrelevant(row, 0.5)]
        assert flagged and untouched
        for row in flagged:
            assert FLAG_IRRELEVANT in row["flags"]
        for row in untouched:
            assert FLAG_IRRELEVANT not in row["flags"]


class TestEmptyScored:
    def test_empty_flag_and_no_score(self):
        scored = empty_scored("r9")
        assert scored["final_score"] is None
        assert scored["best_signature_id"] is None
        assert FLAG_EMPTY in scored["flags"]

    def test_empty_row_carries_per_signature_only_in_full_mode(self):
        assert empty_scored("r9")["per_signature"] == []
        assert "per_signature" not in empty_scored("r9", records=False)


@pytest.mark.parametrize("records", [True, False])
def test_scored_rows_survive_a_json_round_trip(records):
    rng = random.Random(17)
    responses = [(f"r{i}", random_vec(rng, 8)) for i in range(5)]
    pairs = [(f"sig{i}", random_vec(rng, 8)) for i in range(4)]
    rows = score_pairs(responses, pairs, records=records) + [empty_scored("r9", records)]
    assert json.loads(json.dumps(rows, allow_nan=False)) == rows


def np_pairs(prefix: str, rows) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}{i:04d}", row) for i, row in enumerate(rows)]


class TestScoringCoreIsBitStable:
    @pytest.mark.parametrize("dim", [4, 256, 1536])
    def test_a_score_does_not_depend_on_its_batch_or_columns(self, dim):
        rng = np.random.default_rng(dim)
        responses = np_pairs("r", rng.standard_normal((500, dim)))
        signatures = np_pairs("s", rng.standard_normal((20, dim)))
        batch = pair_matrix(responses, signatures)
        for i in range(0, 500, 7):
            alone = pair_matrix(responses[i : i + 1], signatures)
            assert alone.tobytes() == batch[i : i + 1].tobytes()
        for trial in range(10):
            cols = sorted(rng.choice(20, size=int(rng.integers(1, 21)), replace=False).tolist())
            subset = pair_matrix(responses, [signatures[j] for j in cols])
            assert subset.tobytes() == batch[:, cols].tobytes()
        swapped = pair_matrix(signatures, responses)
        assert swapped.T.tobytes() == batch.tobytes()

    def test_score_question_agrees_with_score_response_and_the_oracle(self):
        rng = random.Random(13)
        responses = [(f"r{i}", random_vec(rng, 8)) for i in range(30)]
        pairs = [(f"sig{i:02d}", random_vec(rng, 8)) for i in reversed(range(12))]
        full = score_pairs(responses, pairs)
        summary = score_pairs(responses, pairs, records=False)
        for (rid, emb), scored, short in zip(responses, full, summary):
            alone = score_response(rid, emb, pairs)
            assert (scored["final_score"], scored["best_signature_id"]) == (
                alone["final_score"],
                alone["best_signature_id"],
            )
            assert (short["final_score"], short["best_signature_id"], "per_signature" in short) == (
                scored["final_score"],
                scored["best_signature_id"],
                False,
            )
            assert [r["signature_id"] for r in scored["per_signature"]] == sorted(sid for sid, _ in pairs)
            oracle = max(oracle_cosine(emb, sig) for _, sig in pairs)
            assert scored["final_score"] == pytest.approx(oracle, abs=1e-12)

    def test_no_responses_means_no_scores(self):
        assert score_question(["s"], [], vec(1, 0)[None]) == []

    def test_zero_norm_signature_is_named(self):
        with pytest.raises(DegenerateEmbeddingError, match="'sig-zero'"):
            score_pairs([("r1", vec(1, 0))], [("sig-a", vec(0, 1)), ("sig-zero", vec(0, 0))])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_an_overflowing_norm_is_degenerate(self):
        with pytest.raises(DegenerateEmbeddingError, match="'sig-huge'"):
            score_pairs([("r1", vec(1, 0))], [("sig-a", vec(0, 1)), ("sig-huge", vec(1e200, 1e200))])

    def test_zero_norm_response_is_named(self):
        with pytest.raises(DegenerateEmbeddingError, match="'r-zero'"):
            score_pairs([("r1", vec(1, 0)), ("r-zero", vec(0, 0))], [("sig-a", vec(0, 1))])
