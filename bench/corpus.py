"""Seeded survey-corpus generator for the benchmark.

The program under test sees only what this module writes: a CSV bundle
(studies.csv, questions.csv, responses.csv) and a JSON config file. The same
seed and size always give byte-identical files. The generator also returns
the counts the correctness gate needs (marker answers per study, and so on),
computed from the generated rows and never read back from the program.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Marker phrase the mock chat provider answers "AI" for (case-insensitive).
MARKER = "As an AI assistant"

OPEN_QUESTIONS = 50
OTHER_QUESTIONS = 4
EMBED_DIM = 256
MODELS = ["gpt-3.5-turbo", "gpt-4", "gpt-4o", "gpt-4o-mini"]
TEMPERATURES = [0.0, 0.25, 0.5, 0.75, 1.0]
# Low thresholds flag a useful share of mock-embedding scores; 0.9 flags none.
THRESHOLDS = [0.1, 0.15, 0.2, 0.25, 0.9]
DETECTOR_MODEL = "gpt-3.5-turbo"

# (study_id, month_year): three studies on each side of the 2022 cohort split.
STUDIES = [
    ("S1", "2019-05"),
    ("S2", "2020-11"),
    ("S3", "2021-07"),
    ("S4", "2022-10"),
    ("S5", "2023-06"),
    ("S6", "2024-02"),
]

EMPTY_SHARE = 0.02
SHORT_SHARE = 0.15
MARKER_SHARE = 0.02
OTHER_RESPONSE_SHARE = 0.02
MIN_WORDS, MAX_WORDS = 3, 40

SHORT_POOL = ["No", "N/A", "Yes", "None", "Not sure", "Nothing", "I don't know", "n/a"]
EMPTY_POOL = ["", " ", "   "]

# No word here contains "ai", "assistant" or "human", so only marker answers
# carry the detector marker and no random answer parses as a verdict.
WORDS = (
    "about also apps before better bike book bus calendar call car cheap city clean "
    "coffee cook daily data easy email every family fast food free friends garden "
    "good group health help home hours kids later less local map money month morning "
    "music news night notes often online park phone plan price quick read shop "
    "simple sleep slow sport store study team think time today track travel trip "
    "useful video walk water week weekend work write year"
).split()

TOPICS = (
    "your commute", "grocery shopping", "weekend plans", "online banking", "news reading",
    "fitness apps", "public transport", "remote work", "cooking at home", "streaming video",
    "local parks", "phone calendars", "email habits", "saving money", "music playlists",
    "book clubs", "coffee shops", "garden care", "team meetings", "travel booking",
)
ASKS = (
    "What do you like most about {t}?",
    "Describe a recent problem you had with {t}.",
    "How would you improve {t}?",
    "Why do you use {t} the way you do?",
    "What would make {t} easier for you?",
)


@dataclass
class CorpusCounts:
    """What the generator wrote; the gate's oracle for detector percentages."""

    studies: int = 0
    pre_2022_studies: int = 0
    post_2022_studies: int = 0
    open_questions: int = 0
    other_questions: int = 0
    responses: int = 0
    open_responses: int = 0
    other_responses: int = 0
    empty: int = 0
    short_duplicates: int = 0
    marker: int = 0
    distinct_open_texts: int = 0
    min_words: int = 0
    max_words: int = 0
    # study_id -> [marker answers, non-empty open answers]
    detector_expected: dict = field(default_factory=dict)


def _kinds(rng: random.Random, n: int) -> list[str]:
    """Answer kinds in exact shares, shuffled, so every seed does the same amount of work."""
    special = {"empty": EMPTY_SHARE, "short": SHORT_SHARE, "marker": MARKER_SHARE}
    kinds = [kind for kind, share in special.items() for _ in range(round(n * share))]
    kinds += ["free"] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _answer(rng: random.Random, kind: str) -> str:
    if kind == "empty":
        return rng.choice(EMPTY_POOL)
    if kind == "short":
        return rng.choice(SHORT_POOL)
    n = rng.randint(MIN_WORDS, MAX_WORDS)
    words = [rng.choice(WORDS) for _ in range(n)]
    if kind == "marker":
        return f"{MARKER}, I would say " + " ".join(words[: max(1, n - 4)]) + "."
    return " ".join(words).capitalize() + "."


def generate(out_dir: Path, n_responses: int, seed: int) -> CorpusCounts:
    """Write a CSV bundle with about ``n_responses`` open-ended answers."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = CorpusCounts()

    studies = [(sid, f"Study {sid}", month, "consumer", "panel") for sid, month in STUDIES]
    counts.studies = len(studies)
    counts.pre_2022_studies = sum(1 for _, month in STUDIES if month < "2022")
    counts.post_2022_studies = counts.studies - counts.pre_2022_studies

    prompts = [a.format(t=t) for t in TOPICS for a in ASKS]
    rng.shuffle(prompts)
    questions = []  # (question_id, study_id, kind, text)
    for i in range(OPEN_QUESTIONS + OTHER_QUESTIONS):
        kind = "open_ended" if i < OPEN_QUESTIONS else "other"
        study_id = STUDIES[i % len(STUDIES)][0]
        questions.append((f"Q{i + 1:03d}", study_id, kind, prompts[i]))
    open_q = [q for q in questions if q[2] == "open_ended"]
    other_q = [q for q in questions if q[2] == "other"]
    counts.open_questions, counts.other_questions = len(open_q), len(other_q)

    n_other = max(len(other_q), round(n_responses * OTHER_RESPONSE_SHARE))
    rows = []  # (response_id, question_id, text, collected_at)
    open_texts = set()
    word_lengths = []
    expected = {sid: [0, 0] for sid, _ in STUDIES}
    kinds = _kinds(rng, n_responses) + _kinds(rng, n_other)
    for i, kind in enumerate(kinds):
        is_open = i < n_responses
        q = rng.choice(open_q) if is_open else rng.choice(other_q)
        text = _answer(rng, kind)
        rows.append((f"R{i + 1:07d}", q[0], text, f"2024-01-{1 + i % 28:02d}"))
        if not is_open:
            counts.other_responses += 1
            continue
        counts.open_responses += 1
        counts.empty += kind == "empty"
        counts.short_duplicates += kind == "short"
        counts.marker += kind == "marker"
        if kind != "empty":
            open_texts.add(text)
            word_lengths.append(len(text.split()))
            expected[q[1]][1] += 1
            expected[q[1]][0] += kind == "marker"
    rng.shuffle(rows)  # the loader sorts by id; file order should not matter
    counts.responses = len(rows)
    counts.distinct_open_texts = len(open_texts)
    counts.min_words, counts.max_words = min(word_lengths), max(word_lengths)
    counts.detector_expected = {sid: v for sid, v in expected.items() if v[1]}

    _write_csv(out_dir / "studies.csv", ["study_id", "label", "month_year", "domain", "platform"], studies)
    _write_csv(out_dir / "questions.csv", ["question_id", "study_id", "kind", "text"], questions)
    _write_csv(out_dir / "responses.csv", ["response_id", "question_id", "text", "collected_at"], rows)
    return counts


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_config(path: Path, dataset: Path, cache_dir: Path, output_dir: Path, seed: int) -> None:
    """The run's config file; the program gets the same file on every command."""
    config = {
        "dataset": str(dataset),
        "cache_dir": str(cache_dir),
        "output_dir": str(output_dir),
        "mock": True,
        "seed": seed,
        "mock_embedding_dim": EMBED_DIM,
        "models": MODELS,
        "temperatures": TEMPERATURES,
        "strategies": ["basic"],
        "thresholds": THRESHOLDS,
        "detector_model": DETECTOR_MODEL,
    }
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")

