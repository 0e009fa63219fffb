"""Dataset loading, validation, and report-artifact writing.

Two on-disk dataset layouts are supported, and the path decides which: a
directory is a CSV bundle (studies.csv, questions.csv, responses.csv; UTF-8,
RFC-4180 quoting, header row required) and any other path a single JSON file
with the same three arrays. Loading normalizes order (sorted by id). All
writers emit canonical bytes: JSON as one ``canonical_json`` line, "\n"
newlines, no locale formatting.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from .errors import DataError
from .gateway import canonical_json
from .model import (
    QuestionKind,
    SurveyQuestion,
    SurveyResponse,
    SurveyStudy,
)
from .report import report_to_csv_rows, report_to_markdown

STUDY_COLUMNS = ["study_id", "label", "month_year", "domain", "platform"]
QUESTION_COLUMNS = ["question_id", "study_id", "kind", "text"]
RESPONSE_COLUMNS = ["response_id", "question_id", "text", "collected_at"]

BUNDLE_FILES = {
    "studies.csv": STUDY_COLUMNS,
    "questions.csv": QUESTION_COLUMNS,
    "responses.csv": RESPONSE_COLUMNS,
}


class ReportFormat(str, Enum):
    JSON = "json"
    CSV = "csv"
    MARKDOWN_TABLE = "markdown_table"


@dataclass(frozen=True)
class SurveyDataset:
    studies: tuple[SurveyStudy, ...]
    questions: tuple[SurveyQuestion, ...]
    responses: tuple[SurveyResponse, ...]

    def question_index(self) -> dict[str, SurveyQuestion]:
        return {q.question_id: q for q in self.questions}

    def open_questions(self) -> tuple[SurveyQuestion, ...]:
        return tuple(q for q in self.questions if q.kind == QuestionKind.OPEN_ENDED)

    @cached_property
    def _responses_by_question(self) -> dict[str, tuple[SurveyResponse, ...]]:
        ordered = sorted(self.responses, key=attrgetter("question_id"))  # stable sort
        return {qid: tuple(rs) for qid, rs in groupby(ordered, key=attrgetter("question_id"))}

    def responses_for_question(self, question_id: str) -> tuple[SurveyResponse, ...]:
        """The question's responses in dataset (response_id) order; () for an unknown id."""
        return self._responses_by_question.get(question_id, ())


def _build_dataset(
    study_rows: Iterable[Mapping[str, str]],
    question_rows: Iterable[Mapping[str, str]],
    response_rows: Iterable[Mapping[str, str]],
) -> SurveyDataset:
    studies = []
    seen_studies: set[str] = set()
    for i, row in enumerate(study_rows, start=2):
        sid = row["study_id"]
        if not sid:
            raise DataError(f"studies row {i}: empty study_id")
        if sid in seen_studies:
            raise DataError(f'studies row {i}: duplicate study_id "{sid}"')
        seen_studies.add(sid)
        try:
            studies.append(
                SurveyStudy(
                    study_id=sid,
                    label=row["label"],
                    collected_month_year=row["month_year"],
                    domain_tag=row["domain"],
                    platform=row["platform"],
                )
            )
        except ValueError as exc:
            raise DataError(f'studies row {i} ("{sid}"): {exc}') from exc

    questions = []
    seen_questions: set[str] = set()
    for i, row in enumerate(question_rows, start=2):
        qid = row["question_id"]
        if not qid:
            raise DataError(f"questions row {i}: empty question_id")
        if qid in seen_questions:
            raise DataError(f'questions row {i}: duplicate question_id "{qid}"')
        seen_questions.add(qid)
        if row["study_id"] not in seen_studies:
            raise DataError(
                f'questions row {i}: question "{qid}" references unknown study "{row["study_id"]}"'
            )
        kind_raw = row["kind"].strip().lower()
        try:
            kind = QuestionKind(kind_raw)
        except ValueError as exc:
            raise DataError(
                f'questions row {i}, column "kind": unknown value "{row["kind"]}"'
            ) from exc
        try:
            questions.append(
                SurveyQuestion(question_id=qid, study_id=row["study_id"], text=row["text"], kind=kind)
            )
        except ValueError as exc:
            raise DataError(f"questions row {i}: {exc}") from exc

    responses = []
    seen_responses: set[str] = set()
    for i, row in enumerate(response_rows, start=2):
        rid = row["response_id"]
        if not rid:
            raise DataError(f"responses row {i}: empty response_id")
        if rid in seen_responses:
            raise DataError(f'responses row {i}: duplicate response_id "{rid}"')
        seen_responses.add(rid)
        if row["question_id"] not in seen_questions:
            raise DataError(
                f'responses row {i}: response "{rid}" references unknown question "{row["question_id"]}"'
            )
        responses.append(
            SurveyResponse(
                response_id=rid,
                question_id=row["question_id"],
                text=row["text"],
                collected_at=row.get("collected_at", ""),
            )
        )

    return SurveyDataset(
        studies=tuple(sorted(studies, key=lambda s: s.study_id)),
        questions=tuple(sorted(questions, key=lambda q: q.question_id)),
        responses=tuple(sorted(responses, key=lambda r: r.response_id)),
    )


def _read_csv(path: Path, columns: Sequence[str]) -> list[dict[str, str]]:
    if not path.exists():
        raise DataError(f"missing file: {path}")
    header = None
    rows = []
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend.
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path.name}: missing header row")
            if header != list(columns):
                raise DataError(
                    f"{path.name}: expected header {','.join(columns)}, got {','.join(header)}"
                )
            for i, row in enumerate(reader, start=2):
                if len(row) != len(columns):
                    raise DataError(f"{path.name} row {i}: expected {len(columns)} fields, got {len(row)}")
                rows.append(dict(zip(columns, row)))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit(), 131,072 characters
            row_number = 1 if header is None else len(rows) + 2
            raise DataError(f"{path.name} row {row_number}: {exc}") from exc
    return rows


# JSON names of the value types a dataset cell may not hold.
_NON_CELL_TYPES = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}


def _json_rows(name: str, key: str, items: list, columns: Sequence[str]) -> list[dict[str, str]]:
    """One array of a single-JSON dataset as CSV-like rows; numbers become their text."""
    rows = []
    for i, obj in enumerate(items):
        if not isinstance(obj, dict):
            raise DataError(f"{name}: {key}[{i}] is not an object")
        missing = [c for c in columns if c not in obj and c != "collected_at"]
        if missing:
            raise DataError(f"{name}: {key}[{i}] missing column(s) {','.join(missing)}")
        row = {}
        for column in columns:
            value = obj.get(column, "")
            if type(value) in _NON_CELL_TYPES:
                raise DataError(
                    f'{name}: {key}[{i}], column "{column}": expected a string, '
                    f"got {_NON_CELL_TYPES[type(value)]}"
                )
            row[column] = str(value)
        rows.append(row)
    return rows


def load_dataset(path: Path | str) -> SurveyDataset:
    """Load and validate a dataset; derived fields (word_count, cohort) are populated.

    A directory is read as a CSV bundle, any other path as single JSON.
    """
    p = Path(path)
    if p.is_dir():
        tables = {name: _read_csv(p / name, cols) for name, cols in BUNDLE_FILES.items()}
        return _build_dataset(tables["studies.csv"], tables["questions.csv"], tables["responses.csv"])
    if not p.exists():
        raise DataError(f"missing file: {p}")
    try:
        with open(p, encoding="utf-8-sig") as fh:  # as _read_csv: drop a byte-order mark
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DataError(f"{p.name}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{p.name}: the top level must be a JSON object")
    columns = {"studies": STUDY_COLUMNS, "questions": QUESTION_COLUMNS, "responses": RESPONSE_COLUMNS}
    tables = {}
    for key, cols in columns.items():
        if not isinstance(payload.get(key), list):
            raise DataError(f'{p.name}: missing or non-array "{key}"')
        tables[key] = _json_rows(p.name, key, payload[key], cols)
    return _build_dataset(tables["studies"], tables["questions"], tables["responses"])


# ---------------------------------------------------------------------------
# Canonical writers


def write_json(path: Path | str, obj: object) -> None:
    write_text(path, canonical_json(obj) + "\n")


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buffer.getvalue())


def write_text(path: Path | str, text: str) -> None:
    """The one writer of output files: makes the parent directory, writes UTF-8 with "\n"."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_report(report: Mapping, path: Path | str, fmt: ReportFormat) -> None:
    """Write a report dict; JSON output is byte-stable for identical inputs."""
    if fmt == ReportFormat.JSON:
        write_json(path, report)
    elif fmt == ReportFormat.CSV:
        rows = report_to_csv_rows(report)
        write_csv(path, rows[0], rows[1:])
    else:
        write_text(path, report_to_markdown(report))
