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
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import IO

from .errors import ConfigError, DataError
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


def _question(question_id: str, study_id: str, kind: str, text: str) -> SurveyQuestion:
    try:
        parsed = QuestionKind(kind.strip().lower())
    except ValueError:
        raise ValueError(f'column "kind": unknown value "{kind}"') from None
    return SurveyQuestion(question_id, study_id, text, parsed)


# Each table in load order: its columns, the first being the row's id; the
# column naming the row's parent in the table before (None for the first); and
# the model, called with a row's values in column order. A bundle holds
# <table>.csv, a single JSON dataset payload[<table>].
TABLES = {
    "studies": (STUDY_COLUMNS, None, SurveyStudy),
    "questions": (QUESTION_COLUMNS, "study_id", _question),
    "responses": (RESPONSE_COLUMNS, "question_id", SurveyResponse),
}

# A table as read: its rows' values, and the name of row i (0-based) for error messages.
_Rows = tuple[list[list[str]], Callable[[int], str]]


def _build_dataset(tables: Mapping[str, _Rows]) -> SurveyDataset:
    """Check ids and references, build every row's model, and sort each table by id."""
    built = {}
    by_id: dict[str, object] = {}
    for table, (columns, parent, model) in TABLES.items():
        rows, row_name = tables[table]
        parent_at = columns.index(parent) if parent else None
        parent_ids, by_id = by_id, {}
        for i, row in enumerate(rows):
            row_id = row[0]
            try:
                if row_id in by_id:
                    raise ValueError(f'duplicate {columns[0]} "{row_id}"')
                if parent_at is not None and row[parent_at] not in parent_ids:
                    raise ValueError(
                        f'{columns[0].removesuffix("_id")} "{row_id}" references unknown '
                        f'{parent.removesuffix("_id")} "{row[parent_at]}"'
                    )
                by_id[row_id] = model(*row)
            except ValueError as exc:
                raise DataError(f"{row_name(i)}: {exc}") from exc
        built[table] = tuple(by_id[row_id] for row_id in sorted(by_id))
    return SurveyDataset(**built)


def _open(path: Path, **kwargs) -> IO[str]:
    """Open a dataset file as text; utf-8-sig drops the byte-order mark spreadsheet exports prepend."""
    try:
        return open(path, encoding="utf-8-sig", **kwargs)
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _read_csv(path: Path, columns: Sequence[str]) -> _Rows:
    def row_name(i: int) -> str:  # the header is row 1
        return f"{path.name} row {i + 2}"

    header = None
    rows = []
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path.name}: missing header row")
            if header != list(columns):
                raise DataError(
                    f"{path.name}: expected header {','.join(columns)}, got {','.join(header)}"
                )
            for row in reader:
                if len(row) != len(columns):
                    raise DataError(f"{row_name(len(rows))}: expected {len(columns)} fields, got {len(row)}")
                rows.append(row)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit(), 131,072 characters
            raise DataError(f"{row_name(-1 if header is None else len(rows))}: {exc}") from exc
    return rows, row_name


# JSON names of the value types a dataset cell may not hold.
_NON_CELL_TYPES = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}


def _json_rows(name: str, payload: dict, table: str, columns: Sequence[str]) -> _Rows:
    """One array of a single-JSON dataset as CSV-like rows; numbers become their text."""
    def row_name(i: int) -> str:
        return f"{name}: {table}[{i}]"

    items = payload.get(table)
    if not isinstance(items, list):
        raise DataError(f'{name}: missing or non-array "{table}"')
    rows = []
    for i, obj in enumerate(items):
        if not isinstance(obj, dict):
            raise DataError(f"{row_name(i)} is not an object")
        missing = [c for c in columns if c not in obj and c != "collected_at"]
        if missing:
            raise DataError(f"{row_name(i)} missing column(s) {','.join(missing)}")
        row = []
        for column in columns:
            value = obj.get(column, "")
            if type(value) in _NON_CELL_TYPES:
                raise DataError(
                    f'{row_name(i)}, column "{column}": expected a string, '
                    f"got {_NON_CELL_TYPES[type(value)]}"
                )
            row.append(str(value))
        rows.append(row)
    return rows, row_name


def load_dataset(path: Path | str) -> SurveyDataset:
    """Load and validate a dataset; derived fields (word_count, cohort) are populated.

    A directory is read as a CSV bundle, any other path as single JSON.
    """
    p = Path(path)
    if p.is_dir():
        return _build_dataset({t: _read_csv(p / f"{t}.csv", cols) for t, (cols, _, _) in TABLES.items()})
    with _open(p) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise DataError(f"{p.name}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{p.name}: the top level must be a JSON object")
    return _build_dataset({t: _json_rows(p.name, payload, t, cols) for t, (cols, _, _) in TABLES.items()})


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
    """The one writer of output files: makes the parent directory, writes UTF-8 with "\n". A path
    it cannot write, say under a file or at a directory, is a ConfigError naming it."""
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {p}: {exc.strerror}") from None


def write_report(report: Mapping, path: Path | str) -> None:
    """Write a report dict as its path's suffix says: .json, .md or .csv; all byte-stable."""
    suffix = Path(path).suffix
    if suffix == ".json":
        write_json(path, report)
    elif suffix == ".csv":
        rows = report_to_csv_rows(report)
        write_csv(path, rows[0], rows[1:])
    elif suffix == ".md":
        write_text(path, report_to_markdown(report))
    else:
        raise ValueError(f"{path}: unknown report format (expected .json, .md or .csv)")
