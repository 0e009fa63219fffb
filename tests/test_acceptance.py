"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Everything runs offline against the deterministic mock providers.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import StaticChatProvider
from surveyguard.cli import main
from surveyguard.gateway import DiskCache, EmbeddingVector, ProviderGateway
from surveyguard.model import Cohort, SurveyQuestion, VerdictFlag
from surveyguard.providers import MockChatProvider, MockEmbeddingProvider
from surveyguard.report import average_pooled, average_unweighted, threshold_sweep
from surveyguard.scoring import cosine_similarity, meets_threshold, score_response
from surveyguard.signatures import StrategyKind, dedupe_signatures, generate_signatures

from test_detector import PARSER_FIXTURES

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def vec(values) -> EmbeddingVector:
    return EmbeddingVector(values=tuple(values), provider_id="acc", dim=len(values))


def test_similarity_property_suite():
    """|cos| <= 1+1e-9, exact symmetry, scale invariance, self-similarity; < 5 s."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    dims = [2, 3, 4, 8, 16, 32, 64, 128, 256, 512]
    n_pairs = 10_000
    worst_abs = 0.0
    for i in range(n_pairs):
        dim = dims[i % len(dims)]
        a = vec(rng.standard_normal(dim))
        b = vec(rng.standard_normal(dim))
        s = cosine_similarity(a, b)
        worst_abs = max(worst_abs, abs(s))
        assert abs(s) <= 1.0 + 1e-9
        assert cosine_similarity(b, a) == s  # symmetry, exact
        k = float(rng.uniform(0.001, 1000.0))
        scaled = vec([k * x for x in a.values])
        assert abs(cosine_similarity(scaled, b) - s) <= 1e-12
        if i % 100 == 0:
            assert abs(cosine_similarity(a, a) - 1.0) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"similarity suite took {elapsed:.2f}s"
    print(
        f"PASS similarity-properties: {n_pairs} pairs (dims 2-512), "
        f"max |cos| = {worst_abs:.12f}, {elapsed:.2f}s"
    )


def test_oracle_equivalence_on_random_corpora():
    """Pipeline max-score equals a brute-force oracle to 1e-12; verdicts match its >= rule."""
    rng = random.Random(99)
    checked_scores = 0
    checked_verdicts = 0
    for corpus_index in range(50):
        provider = MockEmbeddingProvider(seed=corpus_index, dim=4)
        n_responses = rng.randrange(1, 21)
        n_signatures = rng.randrange(1, 21)
        signature_pairs = [
            (f"sig{j:02d}", vec(provider.embed(f"signature text {corpus_index}-{j}")))
            for j in range(n_signatures)
        ]
        for i in range(n_responses):
            response_embedding = vec(provider.embed(f"response text {corpus_index}-{i}"))
            scored = score_response(f"r{i}", response_embedding, signature_pairs)

            # Brute force over all pairs, pure python, independent of the scorer.
            best_score, best_id = -math.inf, None
            for sig_id, emb in signature_pairs:
                dot = sum(x * y for x, y in zip(response_embedding.values, emb.values))
                norm_r = math.sqrt(sum(x * x for x in response_embedding.values))
                norm_s = math.sqrt(sum(y * y for y in emb.values))
                s = dot / (norm_r * norm_s)
                if s > best_score or (s == best_score and (best_id is None or sig_id < best_id)):
                    best_score, best_id = s, sig_id
            assert abs(scored["final_score"] - best_score) <= 1e-12
            assert scored["best_signature_id"] == best_id
            checked_scores += 1

            for _ in range(3):
                th = rng.uniform(-0.999, 1.0)
                assert meets_threshold(scored, th) == (best_score >= th)
                checked_verdicts += 1
            # inclusive boundary: a threshold equal to the final score flags AI
            boundary = scored["final_score"]
            if -1.0 < boundary <= 1.0:
                assert meets_threshold(scored, boundary)
                checked_verdicts += 1
    print(
        f"PASS oracle-equivalence: 50 corpora, {checked_scores} final scores within 1e-12, "
        f"{checked_verdicts} verdicts matched"
    )


def test_aggregation_convention_reproduction():
    """Published-table cells reproduce under the right convention and rendering."""
    unweighted_pre = average_unweighted([13.91, 1.18, 7.03, 2.50]).rendered
    unweighted_post = average_unweighted([48.71, 18.18, 24.76]).rendered
    pooled_low_threshold = average_pooled([(27, 170), (23, 313), (21, 160)]).rendered
    pooled_high_threshold = average_pooled([(15, 1166), (0, 198), (25, 520)]).rendered
    assert unweighted_pre == "6.16"
    assert unweighted_post == "30.55"
    assert pooled_low_threshold == "11.04"
    assert pooled_high_threshold == "2.12"
    print(
        "PASS aggregation-conventions: unweighted 6.16 / 30.55, pooled 11.04 / 2.12 "
        "(two decimals, half-up)"
    )


def _random_scored(rng: random.Random, rid: str, study_id: str) -> dict:
    final = rng.uniform(-1, 1)
    return {
        "response_id": rid,
        "study_id": study_id,
        "final_score": final,
        "best_signature_id": "s",
        "flags": [],
        "per_signature": [{"signature_id": "s", "score": final}],
    }


def test_sweep_monotonicity_property():
    """Detected percentage is non-increasing across ascending thresholds, per column."""
    rng = random.Random(7)
    cohorts = {"s1": Cohort.PRE_2022, "s2": Cohort.POST_2022, "s3": Cohort.POST_2022}
    columns_checked = 0
    for set_index in range(200):
        strategies = ["basic"] if set_index % 2 else ["basic", "sentiment"]
        data = {
            strategy: [
                _random_scored(rng, f"{sid}-{i}", sid)
                for sid in cohorts
                for i in range(rng.randrange(1, 15))
            ]
            for strategy in strategies
        }
        thresholds = sorted(rng.uniform(-0.95, 1.0) for _ in range(rng.randrange(2, 6)))
        table = threshold_sweep(data, thresholds, strategies, cohorts)
        for strategy in strategies:
            for sid in cohorts:
                column = [
                    Fraction(100 * row["per_study"][sid]["num"], row["per_study"][sid]["den"])
                    for row in table["rows"]
                    if row["strategy"] == strategy
                ]
                assert all(a >= b for a, b in zip(column, column[1:])), (strategy, sid)
                columns_checked += 1
    print(f"PASS sweep-monotonicity: 200 random sets, {columns_checked} columns all non-increasing")


def _run_pipeline(out_dir: Path, cache_dir: Path, capsys) -> tuple[dict, str]:
    """gen-signatures -> score -> detect-llm -> report; returns (file tree, stdout)."""
    transcript = []
    for command in ("gen-signatures", "score", "detect-llm", "report"):
        code = main(
            [
                command,
                "--dataset", str(CORPUS),
                "--cache-dir", str(cache_dir),
                "--output-dir", str(out_dir),
                "--mock",
            ]
        )
        captured = capsys.readouterr()
        transcript.append(captured.out)
        assert code == 0, f"{command} failed: {captured.err}"
    tree = {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }
    return tree, "".join(transcript)


def test_end_to_end_determinism_and_cache(tmp_path, capsys):
    """Two full mock runs: byte-identical outputs, zero provider calls on the rerun; < 30 s."""
    started = time.monotonic()
    cache_dir = tmp_path / "cache"
    tree_one, out_one = _run_pipeline(tmp_path / "run1", cache_dir, capsys)
    tree_two, out_two = _run_pipeline(tmp_path / "run2", cache_dir, capsys)
    assert tree_one.keys() == tree_two.keys()
    for name in tree_one:
        assert tree_one[name] == tree_two[name], f"output differs: {name}"
    cold_lines = [l for l in out_one.splitlines() if l.startswith("provider calls:")]
    assert any(not l.startswith("provider calls: 0 ") for l in cold_lines), cold_lines
    calls_lines = [l for l in out_two.splitlines() if l.startswith("provider calls:")]
    assert calls_lines, "no gateway stats printed"
    assert all(l.startswith("provider calls: 0 ") for l in calls_lines), calls_lines
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"end-to-end determinism check took {elapsed:.1f}s"
    print(
        f"PASS determinism-and-cache: {len(tree_one)} files byte-identical across runs, "
        f"rerun used 0 provider calls, {elapsed:.1f}s"
    )


def test_detector_parser_fixture_suite():
    """>= 20 canned outputs parse to their documented verdicts; canonical round-trip holds."""
    assert len(PARSER_FIXTURES) >= 20
    from surveyguard.detector import parse_detector_output

    for text, expected in PARSER_FIXTURES:
        assert parse_detector_output(text).flag == expected, repr(text)
    assert parse_detector_output("AI").flag == VerdictFlag.AI
    assert parse_detector_output("HUMAN").flag == VerdictFlag.HUMAN
    print(f"PASS detector-parser: {len(PARSER_FIXTURES)} fixtures, canonical round-trip for both classes")


def test_grid_size_contract_and_dedup_invariance(tmp_path):
    """Basic grid = 20 pre-dedup, sentiment = 60; dedup never changes any final score."""
    question = SurveyQuestion(question_id="q1", study_id="s1", text="Why do you use this app?")
    models = ["gpt-3.5-turbo", "gpt-4", "gpt-4o", "gpt-4o-mini"]
    temperatures = [0.0, 0.25, 0.5, 0.75, 1.0]

    gateway = ProviderGateway(
        cache=DiskCache(tmp_path / "cache-a"),
        chat_provider=MockChatProvider(seed=0),
        sleep=lambda _: None,
    )
    basic = generate_signatures(question, StrategyKind.BASIC, models, temperatures, gateway)
    sentiment = generate_signatures(question, StrategyKind.SENTIMENT, models, temperatures, gateway)
    assert len(basic["signatures"]) == 20
    assert len(sentiment["signatures"]) == 60

    # Force duplicates: every cell yields the same text, so dedup keeps exactly one.
    forced = ProviderGateway(
        cache=DiskCache(tmp_path / "cache-b"),
        chat_provider=StaticChatProvider("The same answer for every cell."),
        sleep=lambda _: None,
    )
    duplicated = generate_signatures(question, StrategyKind.BASIC, models, temperatures, forced)
    assert len(duplicated["signatures"]) == 20
    deduped = dedupe_signatures(duplicated)
    assert len(deduped["signatures"]) == 1
    assert deduped["duplicates_removed"] == 19

    embedder = MockEmbeddingProvider(seed=1, dim=8)

    def pairs(store):
        return [(s["signature_id"], vec(embedder.embed(s["text"]))) for s in store["signatures"]]

    for i in range(10):
        response_embedding = vec(embedder.embed(f"a collected answer {i}"))
        before = score_response("r", response_embedding, pairs(duplicated))["final_score"]
        after = score_response("r", response_embedding, pairs(deduped))["final_score"]
        assert before == after  # max over a multiset equals max over its support

    # Partial duplication across the grid must also leave final scores unchanged.
    partially_deduped = dedupe_signatures(basic)
    for i in range(10):
        response_embedding = vec(embedder.embed(f"another answer {i}"))
        before = score_response("r", response_embedding, pairs(basic))["final_score"]
        after = score_response("r", response_embedding, pairs(partially_deduped))["final_score"]
        assert before == after
    print(
        "PASS grid-contract: basic grid 20, sentiment grid 60 pre-dedup; "
        "dedup left all final scores unchanged"
    )
