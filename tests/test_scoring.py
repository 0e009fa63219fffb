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
    flag_irrelevant,
    meets_threshold,
    score_matrix,
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


def score_pairs(responses, signatures) -> tuple[list[str], np.ndarray]:
    """``score_matrix`` of (id, vector) pairs, the signatures' rows stacked above the responses'."""
    vectors = np.stack([vector for _, vector in [*signatures, *responses]])
    return score_matrix([i for i, _ in signatures], [i for i, _ in responses], vectors)


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


def pair_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """The cosine of one pair, ``a`` as the response's row and ``b`` as the signature's."""
    return pair_matrix([("a", a)], [("b", b)])[0, 0]


class TestCosine:
    def test_self_similarity(self):
        v = vec(0.3, -1.2, 4.5)
        assert pair_cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert pair_cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_antipodal(self):
        assert pair_cosine(vec(1, 0), vec(-1, 0)) == -1.0

    def test_zero_norm_is_degenerate(self):
        with pytest.raises(DegenerateEmbeddingError, match="degenerate embedding"):
            pair_cosine(vec(0, 0), vec(1, 0))

    def test_range_symmetry_and_scale_invariance(self):
        rng = random.Random(7)
        for _ in range(300):
            dim = rng.randrange(2, 16)
            a, b = random_vec(rng, dim), random_vec(rng, dim)
            s = pair_cosine(a, b)
            assert abs(s) <= 1.0 + 1e-9
            assert s == pair_cosine(b, a)  # exact symmetry
            k = rng.uniform(0.01, 100.0)
            scaled = vec(*(k * x for x in a.tolist()))
            assert pair_cosine(scaled, b) == pytest.approx(s, abs=1e-12)


class TestScoreResponse:
    def sigs_with_cosines(self, cosines):
        # response (1, 0) against signatures (c, sqrt(1 - c^2)) has cosine ~ c
        return [
            (f"sig{i}", vec(c, math.sqrt(1 - c * c)))
            for i, c in enumerate(cosines)
        ]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_response("a", vec(1, 0), [("b", vec(1, 0, 0))])

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


def score_column(*finals) -> np.ndarray:
    """A final_score column as score keeps it: NaN for an empty response's None."""
    return np.array([np.nan if final is None else final for final in finals], dtype=np.float64)


class TestThresholdClassification:
    def test_above_threshold(self):
        assert meets_threshold(score_column(0.92), 0.9).tolist() == [True]

    def test_inclusive_boundary(self):
        assert meets_threshold(score_column(0.90), 0.9).tolist() == [True]

    def test_below_threshold(self):
        assert meets_threshold(score_column(0.89), 0.9).tolist() == [False]

    def test_empty_response_counts_as_not_ai(self):
        assert meets_threshold(score_column(None), 0.7).tolist() == [False]

    @pytest.mark.parametrize("bad", [-1.0, -1.5, 1.0001])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            check_threshold(bad)

    def test_ai_count_non_increasing_in_threshold(self):
        rng = random.Random(9)
        scored = score_column(*(rng.uniform(-1, 1) for _ in range(100)))
        thresholds = [0.1 * i for i in range(-9, 11)]
        counts = [int(meets_threshold(scored, th).sum()) for th in thresholds]
        assert counts == sorted(counts, reverse=True)


class TestIrrelevance:
    def test_negative_score_is_irrelevant(self):
        assert flag_irrelevant(score_column(-0.10), 0.0).tolist() == [True]

    def test_zero_boundary_inclusive(self):
        assert flag_irrelevant(score_column(0.00), 0.0).tolist() == [True]

    def test_positive_score_not_irrelevant(self):
        assert flag_irrelevant(score_column(0.45), 0.0).tolist() == [False]

    def test_empty_never_irrelevant(self):
        assert flag_irrelevant(score_column(None), 0.0).tolist() == [False]

    def test_score_sets_the_irrelevant_flag(self, tmp_path, corpus_path):
        args = ["--dataset", str(corpus_path), "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path / "out"), "--mock"]
        assert main(["gen-signatures", *args]) == 0
        assert main(["score", *args, "--low-threshold", "0.5"]) == 0
        rows = json.loads((tmp_path / "out" / "scored_basic.json").read_text(encoding="utf-8"))
        irrelevant = flag_irrelevant([row["final_score"] for row in rows], 0.5).tolist()
        flagged = [row for row, flag in zip(rows, irrelevant) if flag]
        untouched = [row for row, flag in zip(rows, irrelevant) if not flag]
        assert flagged and untouched
        for row in flagged:
            assert FLAG_IRRELEVANT in row["flags"]
        for row in untouched:
            assert FLAG_IRRELEVANT not in row["flags"]


def scored_rows(tmp_path, corpus_path, mode: str) -> list[dict]:
    """scored_basic.json of the fixture corpus under ``--scores mode``; a NaN or Infinity in it
    fails the parse."""
    args = ["--dataset", str(corpus_path), "--cache-dir", str(tmp_path / "cache"),
            "--output-dir", str(tmp_path / "out"), "--mock"]
    assert main(["gen-signatures", *args]) == 0
    assert main(["score", *args, "--scores", mode]) == 0
    text = (tmp_path / "out" / "scored_basic.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in scored_basic.json"))


class TestEmptyRow:
    @pytest.mark.parametrize("mode", ["summary", "full"])
    def test_an_empty_response_has_no_score_and_the_empty_flag(self, tmp_path, corpus_path, mode):
        rows = scored_rows(tmp_path, corpus_path, mode)
        empty = {
            "response_id": "r03",
            "question_id": "q1",
            "study_id": "s1",
            "final_score": None,
            "best_signature_id": None,
            "flags": [FLAG_EMPTY],
            "ai_at": {"0.7": False, "0.75": False, "0.8": False, "0.85": False, "0.9": False},
        }
        if mode == "full":
            empty["per_signature"] = []
        assert [row for row in rows if row["final_score"] is None] == [empty]


@pytest.mark.parametrize("mode", ["summary", "full"])
def test_scored_rows_survive_a_json_round_trip(tmp_path, corpus_path, mode):
    rows = scored_rows(tmp_path, corpus_path, mode)
    assert len(rows) == 8 and all(("per_signature" in row) == (mode == "full") for row in rows)


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

    def test_score_matrix_agrees_with_score_response_and_the_oracle(self):
        rng = random.Random(13)
        responses = [(f"r{i}", random_vec(rng, 8)) for i in range(30)]
        pairs = [(f"sig{i:02d}", random_vec(rng, 8)) for i in reversed(range(12))]
        ids, m = score_pairs(responses, pairs)
        assert ids == sorted(sid for sid, _ in pairs)
        for (rid, emb), scores in zip(responses, m):
            alone = score_response(rid, emb, pairs)
            assert (float(scores.max()), ids[scores.argmax()]) == (
                alone["final_score"],
                alone["best_signature_id"],
            )
            assert [r["signature_id"] for r in alone["per_signature"]] == ids
            oracle = max(oracle_cosine(emb, sig) for _, sig in pairs)
            assert scores.max() == pytest.approx(oracle, abs=1e-12)

    def test_no_responses_means_no_scores(self):
        ids, m = score_matrix(["s"], [], vec(1, 0)[None])
        assert ids == ["s"] and m.shape == (0, 1)

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
