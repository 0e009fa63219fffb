"""Zero-shot LLM classification of survey responses.

The detector asks a chat model whether a given answer was written by a human
or generated by AI, under a strict one-word output contract, then parses the
reply defensively. The prompt template is fixed and versioned; a template
change invalidates previous results (the version is recorded in every dump).
"""

from __future__ import annotations

import hashlib
import re
from operator import attrgetter

from .dataset import SurveyDataset
from .errors import DataError, ProviderError
from .gateway import ProviderGateway, PurposeTag
from .model import Cohort, QuestionKind, Verdict, VerdictFlag
from .report import AverageConvention, cohort_averages, percentage

DETECTOR_TEMPLATE_VERSION = "det-v2"

DETECTOR_SYSTEM_MESSAGE = (
    "You review answers collected for a survey question and decide whether "
    "each answer was written by a human participant or generated by an AI "
    "system. Answer with exactly one word: AI or HUMAN."
)

# The user message after the system message: a question and an answer, each fenced by _fenced so
# that tokens inside the answer cannot satisfy the output contract.
_USER_TEMPLATE = "Survey question:\n%s\n\nCollected answer:\n%s"

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


def _fenced(text: str) -> str:
    """text on lines of its own between a run of "<" and a run of ">" one longer than the longest
    run of either inside it, and at least three long: so no text can close its own fence."""
    longest = max(map(len, re.findall(r"<+|>+", text))) if "<<<" in text or ">>>" in text else 2
    return f"{'<' * (longest + 1)}\n{text}\n{'>' * (longest + 1)}"


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
        return Verdict(flag=flag, detail="first-line token")
    ai_hit = any(p.search(lowered) for p in _AI_PHRASES)
    human_hit = any(p.search(lowered) for p in _HUMAN_PHRASES)
    if ai_hit != human_hit:
        flag = VerdictFlag.AI if ai_hit else VerdictFlag.HUMAN
        return Verdict(flag=flag, detail="fallback phrase")
    return Verdict(flag=VerdictFlag.UNDETERMINED, detail="unparseable")


class DetectorParseError(DataError):
    """Strict mode: a detector reply could not be parsed."""


def detect_batch(
    dataset: SurveyDataset,
    gateway: ProviderGateway,
    model_id: str,
    temperature: float = 0.0,
    tolerate_parse_failures: bool = True,
) -> dict:
    """Classify every non-empty open-ended response and aggregate per study; returns
    the detector dump dict, headed by the settings given, with the unweighted cohort
    averages as cohort_comparison when the studies span both cohorts.

    UNDETERMINED verdicts stay in the denominator but never in the numerator;
    with tolerate_parse_failures off, the first one aborts the batch. A
    provider failure aborts it too, after every request has been answered.
    """
    questions = dataset.question_index()
    fenced = {question_id: _fenced(question.text) for question_id, question in questions.items()}
    responses = sorted(
        (r for r in dataset.responses if questions[r.question_id].kind == QuestionKind.OPEN_ENDED and r.text.strip()),
        key=attrgetter("response_id"),
    )
    responses.sort(key=lambda r: questions[r.question_id].study_id)  # stable: by study, then id, and no key tuples
    results = gateway.chat_many(
        [(model_id, temperature, _USER_TEMPLATE % (fenced[r.question_id], _fenced(r.text))) for r in responses],
        purpose=PurposeTag.DETECT, lead=(("system", DETECTOR_SYSTEM_MESSAGE),),
    )
    parsed: dict[str, tuple[str, str]] = {}  # reply -> (flag value, raw_text_digest): replies repeat
    for result in dict.fromkeys(results):
        if isinstance(result, ProviderError):
            raise result
        parsed[result] = parse_detector_output(result).flag.value, hashlib.sha256(result.encode()).hexdigest()

    by_study: dict[str, list[dict]] = {}
    for response, result in zip(responses, results):
        flag, digest = parsed[result]
        if not tolerate_parse_failures and flag == VerdictFlag.UNDETERMINED:
            raise DetectorParseError(f'unparseable detector output for response "{response.response_id}"')
        verdict = {"response_id": response.response_id, "flag": flag, "raw_text_digest": digest}
        by_study.setdefault(questions[response.question_id].study_id, []).append(verdict)

    studies = []
    per_study = {}
    for study_id in sorted(by_study):
        verdicts = by_study[study_id]
        ai_count = [v["flag"] for v in verdicts].count(VerdictFlag.AI)
        per_study[study_id] = percentage(ai_count, len(verdicts))
        studies.append({
            "study_id": study_id,
            "model_id": model_id,
            "template_version": DETECTOR_TEMPLATE_VERSION,
            "verdicts": verdicts,
            "percentage": per_study[study_id],
        })
    dump = {
        "model_id": model_id,
        "temperature": temperature,
        "template_version": DETECTOR_TEMPLATE_VERSION,
        "tolerate_parse_failures": tolerate_parse_failures,
        "studies": studies,
    }
    convention = AverageConvention.UNWEIGHTED_MEAN
    averages = cohort_averages(per_study, {s.study_id: s.cohort for s in dataset.studies}, convention)
    if len(averages) == len(Cohort):
        dump["cohort_comparison"] = {"convention": convention.value, **averages}
    return dump
