"""A planted-truth corpus: the paper's finding, run end to end on answers whose origin is known.

A seeded builder makes six studies, three collected before the 2022 split and three after.
Into each it plants a known number of verbatim signature texts (the mock chat provider's reply
to a grid cell of the answer's question, asked with ``signature_prompt``) and a known,
disjoint number of answers holding the detector mock's marker; every other answer is a
human-like sentence. Post-2022 studies get more of both. At ``mock_embedding_dim`` 256 an
unrelated text scores far below every threshold, so the signature detector must flag exactly
the copies and the zero-shot detector exactly the marker answers. Every expected number below
comes from the builder, never from a program output.
"""

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from conftest import write_bundle
from surveyguard.cli import main
from surveyguard.dataset import TABLES
from surveyguard.gateway import ChatRequest, PurposeTag
from surveyguard.model import SurveyQuestion
from surveyguard.providers import DETECT_MARKER, MockChatProvider, MockEmbeddingProvider
from surveyguard.signatures import signature_prompt

SEED = 11
DIM = 256
MODELS = ("gpt-3.5-turbo", "gpt-4o")  # the first is the default detector model
TEMPERATURES = (0.0, 1.0)
THRESHOLDS = (0.7, 0.75, 0.8, 0.85, 0.9)
CHANCE_MARGIN = 0.3  # every unplanted answer scores at least this far below the lowest threshold
MONTHS = {"a": "2020-03", "b": "2021-05", "c": "2021-12", "d": "2022-01", "e": "2023-06", "f": "2024-09"}
COHORTS = {"pre_2022": ["a", "b", "c"], "post_2022": ["d", "e", "f"]}  # the split is 2022-01
WORDS = (
    "i", "we", "usually", "check", "the", "prices", "before", "buying", "my", "kids", "like",
    "it", "because", "works", "offline", "sometimes", "forget", "to", "open", "app", "at",
    "night", "weekends", "costs", "went", "up", "so", "cut", "back", "on", "trips", "coffee",
)


@dataclass
class Planted:
    """The corpus as rows for ``write_bundle``, and what was planted where."""

    studies: list = field(default_factory=list)
    questions: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    copies: dict = field(default_factory=dict)  # response_id -> signature id of the copied cell
    markers: set = field(default_factory=set)  # response_ids of the marker answers
    study_of: dict = field(default_factory=dict)  # response_id -> study_id
    signatures: dict = field(default_factory=dict)  # question_id -> the texts of its grid cells

    def count(self, study_id: str, planted) -> int:
        return sum(self.study_of[r] == study_id for r in planted)

    def total(self, study_id: str) -> int:
        return sum(s == study_id for s in self.study_of.values())


def build(seed: int) -> Planted:
    rng = random.Random(seed)
    chat, purpose = MockChatProvider(seed=SEED), PurposeTag.GENERATE_SIGNATURE
    corpus = Planted()
    for study_id, month in MONTHS.items():
        post = study_id in COHORTS["post_2022"]
        corpus.studies.append([study_id, f"Study {study_id}", month, "consumer", "panel"])
        for n in (1, 2):
            text = f"Question {n} of study {study_id}: what do you do?"
            question = SurveyQuestion(f"{study_id}q{n}", study_id, text)
            corpus.questions.append([question.question_id, study_id, "open_ended", question.text])
            cells = {
                f"{question.question_id}|basic|{model}|t{temperature:g}": chat.complete(
                    ChatRequest(model, temperature, (("user", signature_prompt(question, None)),), purpose)
                )
                for model in MODELS
                for temperature in TEMPERATURES
            }
            corpus.signatures[question.question_id] = list(cells.values())
            copies = rng.randint(2, 4) if post else rng.randint(0, 1)
            markers = rng.randint(2, 4) if post else rng.randint(0, 1)
            answers = rng.randint(8, 12)
            for i in range(copies + markers + answers):
                response_id = f"{question.question_id}-r{i:02d}"
                sentence = " ".join(rng.choice(WORDS) for _ in range(rng.randint(6, 14))).capitalize() + "."
                if i < copies:
                    signature_id = rng.choice(sorted(cells))
                    corpus.copies[response_id], text = signature_id, cells[signature_id]
                elif i < copies + markers:
                    corpus.markers.add(response_id)
                    text = f"{DETECT_MARKER.capitalize()}, I would say: {sentence}"
                else:
                    text = sentence
                corpus.responses.append([response_id, question.question_id, text, f"{month}-15"])
                corpus.study_of[response_id] = study_id
    return corpus


@pytest.fixture(scope="module")
def corpus() -> Planted:
    return build(seed=5)


def test_the_builder_plants_what_it_says(corpus):
    """The planted sets are disjoint, post-2022 studies hold more of both, no unplanted answer is
    a signature text or holds the marker, and each scores at chance against its question's
    signatures: the margin every test below relies on."""
    assert not set(corpus.copies) & corpus.markers
    for planted in (corpus.copies, corpus.markers):
        pre, post = (sum(corpus.count(s, planted) for s in COHORTS[c]) for c in ("pre_2022", "post_2022"))
        assert pre < post
    embedder = MockEmbeddingProvider(seed=SEED, dim=DIM)
    chance = []
    for response_id, question_id, text, _ in corpus.responses:
        if response_id in corpus.copies:
            continue
        assert text not in corpus.signatures[question_id]
        assert (DETECT_MARKER in text.lower()) == (response_id in corpus.markers)
        vectors = np.array(embedder.embed_many([text, *corpus.signatures[question_id]]))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        chance.append(max(vectors[1:] @ vectors[0]))
    assert max(chance) <= min(THRESHOLDS) - CHANCE_MARGIN


def _run(dataset, tmp_path, out: str) -> dict[str, bytes]:
    """gen-signatures, score, detect-llm and report on dataset; every file written, by relative path."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "mock": True, "seed": SEED, "mock_embedding_dim": DIM, "models": list(MODELS),
        "temperatures": list(TEMPERATURES), "thresholds": list(THRESHOLDS),
    }), encoding="utf-8")
    flags = ["--config", config, "--dataset", dataset, "--cache-dir", tmp_path / "cache", "--output-dir", out]
    for command in ("gen-signatures", "score", "detect-llm", "report"):
        assert main([command, *map(str, flags)]) == 0
    return {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*") if path.is_file()}


@pytest.fixture(scope="module")
def run(corpus, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("planted")
    bundle = write_bundle(tmp_path / "bundle", corpus.studies, corpus.questions, corpus.responses)
    return tmp_path, _run(bundle, tmp_path, tmp_path / "out")


def _read(run, name: str):
    return json.loads(run[1][name])


def test_signature_flags_are_the_planted_copies_at_every_threshold(corpus, run):
    scored = _read(run, "scored_basic.json")
    for th in THRESHOLDS:
        assert {row["response_id"] for row in scored if row["ai_at"][f"{th:g}"]} == set(corpus.copies)
    best = {row["response_id"]: row["best_signature_id"] for row in scored}
    assert {response_id: best[response_id] for response_id in corpus.copies} == corpus.copies
    sweep = _read(run, "sweep.json")
    assert [row["threshold"] for row in sweep["rows"]] == list(THRESHOLDS)
    for row in sweep["rows"]:
        per_study = {s: (pct["num"], pct["den"]) for s, pct in row["per_study"].items()}
        assert per_study == {s: (corpus.count(s, corpus.copies), corpus.total(s)) for s in MONTHS}


def test_llm_flags_are_the_marker_answers(corpus, run):
    studies = _read(run, "detector_gpt-3.5-turbo.json")["studies"]
    flagged = {v["response_id"] for study in studies for v in study["verdicts"] if v["flag"] == "AI"}
    assert flagged == corpus.markers
    per_study = {study["study_id"]: study["percentage"] for study in studies}
    assert {s: (pct["num"], pct["den"]) for s, pct in per_study.items()} == {
        s: (corpus.count(s, corpus.markers), corpus.total(s)) for s in MONTHS
    }


def test_cohort_averages_are_the_construction_s_rationals(corpus, run):
    for row in _read(run, "sweep.json")["rows"]:  # pooled: a cohort's copies over its answers
        for cohort, studies in COHORTS.items():
            pooled = (sum(corpus.count(s, corpus.copies) for s in studies), sum(map(corpus.total, studies)))
            assert (row["averages"][cohort]["num"], row["averages"][cohort]["den"]) == pooled
    comparison = _read(run, "detector_gpt-3.5-turbo.json")["cohort_comparison"]  # the mean of study rates
    for cohort, studies in COHORTS.items():
        mean = sum(Fraction(100 * corpus.count(s, corpus.markers), corpus.total(s)) for s in studies) / 3
        assert comparison[cohort]["value"] == f"{mean.numerator}/{mean.denominator}"
    assert Fraction(comparison["post_2022"]["value"]) > Fraction(comparison["pre_2022"]["value"])


def test_the_report_carries_the_planted_counts_and_no_verdict(corpus, run):
    keys = set()
    report = json.loads(run[1]["report.json"], object_hook=lambda obj: keys.update(obj) or obj)
    assert "verdicts" not in keys
    copies = {s: (corpus.count(s, corpus.copies), corpus.total(s)) for s in MONTHS}
    for row in report["signature_detection"]["sweep"]["rows"]:
        assert {s: (pct["num"], pct["den"]) for s, pct in row["per_study"].items()} == copies
    [section] = report["llm_detection"]
    per_study = {study["study_id"]: study["percentage"] for study in section["studies"]}
    assert {s: (pct["num"], pct["den"]) for s, pct in per_study.items()} == {
        s: (corpus.count(s, corpus.markers), corpus.total(s)) for s in MONTHS
    }


def test_the_same_tables_as_one_json_file_write_the_same_bytes(corpus, run):
    tmp_path, from_bundle = run
    rows = {"studies": corpus.studies, "questions": corpus.questions, "responses": corpus.responses}
    tables = {table: [dict(zip(TABLES[table][0], row)) for row in rows[table]] for table in TABLES}
    single = tmp_path / "dataset.json"
    single.write_text(json.dumps(tables), encoding="utf-8")
    assert _run(single, tmp_path, tmp_path / "out-json") == from_bundle
