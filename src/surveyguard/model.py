"""Core survey domain types and the elementary statistics every other module consumes.

All types are immutable values after construction; derived fields (cohort,
word_count) are computed in the constructor so the corresponding invariants
hold structurally.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum


class Cohort(str, Enum):
    """Which side of the 2022 generative-AI watershed a study was collected on."""

    PRE_2022 = "pre_2022"
    POST_2022 = "post_2022"


class QuestionKind(str, Enum):
    OPEN_ENDED = "open_ended"
    OTHER = "other"


class VerdictFlag(str, Enum):
    AI = "AI"
    HUMAN = "HUMAN"
    UNDETERMINED = "UNDETERMINED"


_MONTH_YEAR = re.compile(r"^(\d{4})-(\d{2})$")


def parse_month_year(month_year: str) -> tuple[int, int]:
    """Parse a "YYYY-MM" string into (year, month)."""
    m = _MONTH_YEAR.match(month_year or "")
    if not m:
        raise ValueError(f"bad date: {month_year!r} (expected YYYY-MM)")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"bad date: {month_year!r} (month out of range)")
    return year, month


def assign_cohort(month_year: str) -> Cohort:
    """PRE_2022 for any month strictly before 2022-01, POST_2022 otherwise."""
    year, _ = parse_month_year(month_year)
    return Cohort.PRE_2022 if year < 2022 else Cohort.POST_2022


def word_count(text: str) -> int:
    """Number of whitespace-delimited tokens in text."""
    return len(text.split())


@dataclass(frozen=True)
class SurveyStudy:
    """One survey study; cohort is derived from the collection month."""

    study_id: str
    label: str
    collected_month_year: str
    domain_tag: str = ""
    platform: str = ""
    cohort: Cohort = field(init=False)

    def __post_init__(self) -> None:
        if not self.study_id:
            raise ValueError("study_id must be non-empty")
        try:
            object.__setattr__(self, "cohort", assign_cohort(self.collected_month_year))
        except ValueError as exc:  # a bad date; name the study it belongs to
            raise ValueError(f'study "{self.study_id}": {exc}') from None


@dataclass(frozen=True)
class SurveyQuestion:
    question_id: str
    study_id: str
    text: str
    kind: QuestionKind = QuestionKind.OPEN_ENDED

    def __post_init__(self) -> None:
        if not self.question_id:
            raise ValueError("question_id must be non-empty")
        if not self.text:
            raise ValueError(f'question "{self.question_id}": text must be non-empty')


@dataclass(frozen=True)
class SurveyResponse:
    """One free-text answer. word_count is always recomputed from text."""

    response_id: str
    question_id: str
    text: str
    collected_at: str = ""
    word_count: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.response_id:
            raise ValueError("response_id must be non-empty")
        object.__setattr__(self, "word_count", word_count(self.text))


@dataclass(frozen=True)
class LengthStats:
    """Mean and sample standard deviation (n-1 denominator) of word counts."""

    mean: float
    std_dev: float
    n: int


@dataclass(frozen=True)
class Verdict:
    """The zero-shot detector's classification of one response, and how it was parsed.

    UNDETERMINED only appears when a parse failure was tolerated; a provider
    failure is never tolerated and aborts the batch.
    """

    flag: VerdictFlag
    detail: str = ""


def compute_length_stats(responses: Sequence[SurveyResponse]) -> LengthStats:
    """Mean and sample std deviation of word counts; n=1 yields std_dev 0.0."""
    if not responses:
        raise ValueError("empty input")
    counts = [r.word_count for r in responses]
    n = len(counts)
    mean = sum(counts) / n
    if n == 1:
        std = 0.0
    else:
        # fsum is exactly rounded, so the result is permutation-invariant
        std = math.sqrt(math.fsum((c - mean) ** 2 for c in counts) / (n - 1))
    return LengthStats(mean=float(mean), std_dev=float(std), n=n)
