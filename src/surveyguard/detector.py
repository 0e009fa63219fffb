"""Zero-shot LLM classification of survey responses.

The detector asks a chat model whether a given answer was written by a human
or generated by AI, under a strict one-word output contract, then parses the
reply defensively. The prompt template is fixed and versioned; a template
change invalidates previous results (the version is recorded in every dump).
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Mapping
from dataclasses import dataclass

from .dataset import SurveyDataset
from .errors import DataError, ProviderError
from .gateway import ChatRequest, ProviderGateway, PurposeTag, check_temperature
from .model import (
    QuestionKind,
    SurveyQuestion,
    SurveyResponse,
    Verdict,
    VerdictFlag,
    VerdictSource,
)
from .report import Percent, percentage

DETECTOR_TEMPLATE_VERSION = "det-v1"

DETECTOR_SYSTEM_MESSAGE = (
    "You review answers collected for a survey question and decide whether "
    "each answer was written by a human participant or generated by an AI "
    "system. Answer with exactly one word: AI or HUMAN."
)

# The response is fenced so tokens inside it cannot satisfy the output contract.
_USER_TEMPLATE = "Survey question:\n<<<\n{question}\n>>>\n\nCollected answer:\n<<<\n{response}\n>>>"

# Fallback phrase patterns applied when the first line yields no single verdict
# token. parse_detector_output documents the full decision procedure.
_AI_PHRASES = (
    re.compile(r"\bai[\s-]generated\b"),
    re.compile(r"\b(?:generated|written|produced)\s+by\s+(?:an?\s+)?ai\b"),
)
_HUMAN_PHRASES = (
    re.compile(r"\bhuman[\s-](?:written|generated)\b"),
    re.compile(r"\bwritten\s+by\s+(?:a\s+)?human\b"),
)

_AI_TOKEN = re.compile(r"\bai\b")
_HUMAN_TOKEN = re.compile(r"\bhuman\b")


@dataclass(frozen=True)
class DetectorConfig:
    model_id: str
    temperature: float = 0.0
    tolerate_parse_failures: bool = True

    def __post_init__(self) -> None:
        check_temperature(self.temperature)


def build_detector_prompt(
    question: SurveyQuestion, response: SurveyResponse
) -> tuple[tuple[str, str], ...]:
    """System message stating the task and contract; user message with fenced content."""
    if not response.text:
        raise ValueError(f'response "{response.response_id}": text must be non-empty')
    user = _USER_TEMPLATE.format(question=question.text, response=response.text)
    return (("system", DETECTOR_SYSTEM_MESSAGE), ("user", user))


def parse_detector_output(text: str) -> Verdict:
    """Map raw detector output to a verdict.

    Procedure (case-insensitive):
      1. Trim the text and look at its first line. If exactly one of "AI" /
         "HUMAN" occurs there as a standalone token, that is the verdict.
      2. Otherwise scan the whole text with the fallback phrase patterns
         (ai-generated / generated-by-AI vs human-written / written-by-a-human);
         if exactly one side matches, that is the verdict.
      3. Otherwise UNDETERMINED.
    """
    lowered = text.strip().lower()
    first_line = lowered.splitlines()[0] if lowered else ""
    ai_hit = bool(_AI_TOKEN.search(first_line))
    human_hit = bool(_HUMAN_TOKEN.search(first_line))
    if ai_hit != human_hit:
        flag = VerdictFlag.AI if ai_hit else VerdictFlag.HUMAN
        return Verdict(flag=flag, source=VerdictSource.LLM_DETECTOR, detail="first-line token")
    ai_hit = any(p.search(lowered) for p in _AI_PHRASES)
    human_hit = any(p.search(lowered) for p in _HUMAN_PHRASES)
    if ai_hit != human_hit:
        flag = VerdictFlag.AI if ai_hit else VerdictFlag.HUMAN
        return Verdict(flag=flag, source=VerdictSource.LLM_DETECTOR, detail="fallback phrase")
    return Verdict(
        flag=VerdictFlag.UNDETERMINED, source=VerdictSource.LLM_DETECTOR, detail="unparseable"
    )


@dataclass(frozen=True)
class ResponseVerdict:
    response_id: str
    verdict: Verdict
    raw_text_digest: str  # sha256 of the raw provider output, for audits


@dataclass(frozen=True)
class StudyDetection:
    study_id: str
    verdicts: tuple[ResponseVerdict, ...]
    percentage: Percent  # AI count over classified count

    def to_dict(self, config: DetectorConfig) -> dict:
        return {
            "study_id": self.study_id,
            "model_id": config.model_id,
            "template_version": DETECTOR_TEMPLATE_VERSION,
            "verdicts": [
                {
                    "response_id": v.response_id,
                    "flag": v.verdict.flag.value,
                    "raw_text_digest": v.raw_text_digest,
                }
                for v in self.verdicts
            ],
            "percentage": self.percentage.to_dict(),
        }


@dataclass(frozen=True)
class DetectionRun:
    config: DetectorConfig
    studies: tuple[StudyDetection, ...]


class DetectorParseError(DataError):
    """Strict mode: a detector reply could not be parsed."""


def detect_batch(
    dataset: SurveyDataset,
    config: DetectorConfig,
    gateway: ProviderGateway,
) -> DetectionRun:
    """Classify every non-empty open-ended response and aggregate per study.

    UNDETERMINED verdicts stay in the denominator but never in the numerator;
    with tolerate_parse_failures off, the first one aborts the batch. A
    provider failure aborts it too, after every request has been answered.
    """
    questions = dataset.question_index()
    tasks: list[tuple[str, str, SurveyQuestion, SurveyResponse]] = []
    for response in dataset.responses:
        question = questions[response.question_id]
        if question.kind != QuestionKind.OPEN_ENDED:
            continue
        if not response.text.strip():
            continue
        tasks.append((question.study_id, response.response_id, question, response))
    tasks.sort(key=lambda t: (t[0], t[1]))

    results = gateway.chat_many([
        ChatRequest(
            model_id=config.model_id,
            temperature=config.temperature,
            messages=build_detector_prompt(question, response),
            purpose=PurposeTag.DETECT,
        )
        for _, _, question, response in tasks
    ])
    for result in results:
        if isinstance(result, ProviderError):
            raise result

    by_study: dict[str, list[ResponseVerdict]] = {}
    for (study_id, response_id, _, _), result in zip(tasks, results):
        verdict = parse_detector_output(result.text)
        if verdict.flag == VerdictFlag.UNDETERMINED and not config.tolerate_parse_failures:
            raise DetectorParseError(
                f'unparseable detector output for response "{response_id}"'
            )
        digest = hashlib.sha256(result.text.encode("utf-8")).hexdigest()
        by_study.setdefault(study_id, []).append(
            ResponseVerdict(response_id=response_id, verdict=verdict, raw_text_digest=digest)
        )

    studies = []
    for study_id in sorted(by_study):
        verdicts = tuple(by_study[study_id])
        ai_count = sum(1 for v in verdicts if v.verdict.flag == VerdictFlag.AI)
        studies.append(
            StudyDetection(
                study_id=study_id,
                verdicts=verdicts,
                percentage=percentage(ai_count, len(verdicts)),
            )
        )
    return DetectionRun(config=config, studies=tuple(studies))


def detection_run_to_dict(run: DetectionRun, cohort_comparison: Mapping | None = None) -> dict:
    out = {
        "model_id": run.config.model_id,
        "temperature": run.config.temperature,
        "template_version": DETECTOR_TEMPLATE_VERSION,
        "tolerate_parse_failures": run.config.tolerate_parse_failures,
        "studies": [s.to_dict(run.config) for s in run.studies],
    }
    if cohort_comparison is not None:
        out["cohort_comparison"] = dict(cohort_comparison)
    return out
