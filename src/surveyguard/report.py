"""Aggregation of verdicts and similarity scores into reportable tables.

Two cohort-averaging conventions exist because aggregate tables in the wild
use both: an unweighted mean of per-study percentages, and a count-weighted
pooled rate. Every report names the convention it used. All internal math is
exact (integer counts and rationals); rounding to two decimals (half-up)
happens only at render time.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .model import Cohort
from .scoring import FLAG_EMPTY, FLAG_IRRELEVANT, ScoredResponse, flag_irrelevant, meets_threshold


class AverageConvention(str, Enum):
    UNWEIGHTED_MEAN = "unweighted_mean"
    POOLED_WEIGHTED = "pooled_weighted"


def as_exact(value: float | int | str | Fraction) -> Fraction:
    """Interpret a value exactly; floats are taken at their printed decimal value.

    This makes feeding already-rounded table cells (e.g. 13.91) behave as the
    decimal they display, not as the nearest binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {value}")
        return Fraction(str(value))
    return Fraction(value)


def render_two_decimals(value: Fraction) -> str:
    """Exact two-decimal rendering with round-half-up, locale-independent."""
    if value < 0:
        raise ValueError(f"negative value: {value}")
    hundredths = value * 100
    whole = hundredths.numerator // hundredths.denominator
    if (hundredths - whole) * 2 >= 1:
        whole += 1
    return f"{whole // 100}.{whole % 100:02d}"


@dataclass(frozen=True)
class Percent:
    """A percentage kept as an exact rational, optionally backed by counts."""

    value: Fraction
    flagged: int | None = None
    total: int | None = None

    @property
    def rendered(self) -> str:
        return render_two_decimals(self.value)

    def to_dict(self) -> dict:
        if self.flagged is not None and self.total is not None:
            return {"num": self.flagged, "den": self.total, "rendered": self.rendered}
        return {
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "rendered": self.rendered,
        }


def percentage(flagged: int, total: int) -> Percent:
    """flagged/total as an exact percentage."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= flagged <= total:
        raise ValueError(f"flagged must be in [0, total], got {flagged}/{total}")
    return Percent(value=Fraction(100 * flagged, total), flagged=flagged, total=total)


def average_unweighted(values: Sequence[float | int | str | Fraction | Percent]) -> Percent:
    """Arithmetic mean of per-study percentage values."""
    if not values:
        raise ValueError("empty input")
    fractions = [v.value if isinstance(v, Percent) else as_exact(v) for v in values]
    return Percent(value=sum(fractions, Fraction(0)) / len(fractions))


def average_pooled(pairs: Sequence[tuple[int, int]]) -> Percent:
    """Count-weighted pooled rate: sum(flagged) / sum(total)."""
    if not pairs:
        raise ValueError("empty input")
    flagged = 0
    total = 0
    for f, t in pairs:
        if t < 1:
            raise ValueError(f"total must be >= 1, got {t}")
        if not 0 <= f <= t:
            raise ValueError(f"flagged must be in [0, total], got {f}/{t}")
        flagged += f
        total += t
    return percentage(flagged, total)


def average(convention: AverageConvention, percents: Sequence[Percent]) -> Percent:
    """Average per-study percentages under the named convention."""
    if convention == AverageConvention.UNWEIGHTED_MEAN:
        return average_unweighted(percents)
    return average_pooled([(p.flagged, p.total) for p in percents])


@dataclass(frozen=True)
class CohortComparison:
    pre_average: Percent
    post_average: Percent
    convention: AverageConvention

    def to_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "pre_2022": self.pre_average.to_dict(),
            "post_2022": self.post_average.to_dict(),
        }


@dataclass(frozen=True)
class StudyStat:
    """One study's detection outcome, ready for cohort aggregation."""

    study_id: str
    cohort: Cohort
    percent: Percent


def cohort_compare(
    stats: Sequence[StudyStat],
    convention: AverageConvention = AverageConvention.UNWEIGHTED_MEAN,
) -> CohortComparison:
    """Average per-study results within each cohort under the stated convention."""
    by_cohort: dict[Cohort, list[StudyStat]] = {Cohort.PRE_2022: [], Cohort.POST_2022: []}
    for stat in stats:
        by_cohort[stat.cohort].append(stat)
    for cohort, members in by_cohort.items():
        if not members:
            raise ValueError(f"cohort {cohort.value} has no studies")
    if convention == AverageConvention.POOLED_WEIGHTED:
        for m in by_cohort[Cohort.PRE_2022] + by_cohort[Cohort.POST_2022]:
            if m.percent.flagged is None or m.percent.total is None:
                raise ValueError(f"study {m.study_id}: pooled averaging needs (flagged, total) counts")
    return CohortComparison(
        pre_average=average(convention, [m.percent for m in by_cohort[Cohort.PRE_2022]]),
        post_average=average(convention, [m.percent for m in by_cohort[Cohort.POST_2022]]),
        convention=convention,
    )


# ---------------------------------------------------------------------------
# Threshold sweep


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    strategy: str
    per_study: Mapping[str, Percent]
    cohort_averages: Mapping[Cohort, Percent]


@dataclass(frozen=True)
class SweepTable:
    thresholds: tuple[float, ...]
    strategies: tuple[str, ...]
    convention: AverageConvention
    study_order: tuple[str, ...]
    cohorts: Mapping[str, Cohort]
    rows: tuple[SweepRow, ...]

    def to_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "thresholds": list(self.thresholds),
            "strategies": list(self.strategies),
            "study_order": list(self.study_order),
            "cohorts": {sid: c.value for sid, c in self.cohorts.items()},
            "rows": [
                {
                    "threshold": row.threshold,
                    "strategy": row.strategy,
                    "per_study": {sid: p.to_dict() for sid, p in row.per_study.items()},
                    "averages": {c.value: p.to_dict() for c, p in row.cohort_averages.items()},
                }
                for row in self.rows
            ],
        }


def _detected_counts(
    responses: Sequence[ScoredResponse], th: float, exclude_empty: bool
) -> tuple[int, int]:
    flagged = 0
    total = 0
    for scored in responses:
        if exclude_empty and FLAG_EMPTY in scored.flags:
            continue
        total += 1
        flagged += meets_threshold(scored, th)
    return flagged, total


def threshold_sweep(
    scored_by_strategy: Mapping[str, Mapping[str, Sequence[ScoredResponse]]],
    thresholds: Sequence[float],
    strategies: Sequence[str],
    cohorts: Mapping[str, Cohort],
    convention: AverageConvention = AverageConvention.POOLED_WEIGHTED,
    exclude_empty: bool = False,
) -> SweepTable:
    """One row per (threshold, strategy) with per-study and per-cohort percentages.

    Empty responses count in denominators (and never as detections) unless
    exclude_empty is set.
    """
    if not strategies:
        raise ValueError("empty strategy list")
    if not thresholds:
        raise ValueError("empty threshold list")
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    for strategy in strategies:
        if strategy not in scored_by_strategy or not scored_by_strategy[strategy]:
            raise ValueError(f'no scored responses for strategy "{strategy}"')

    study_ids = sorted({sid for s in strategies for sid in scored_by_strategy[s]})
    for sid in study_ids:
        if sid not in cohorts:
            raise ValueError(f'no cohort known for study "{sid}"')
    study_order = tuple(
        sorted(study_ids, key=lambda sid: (cohorts[sid] != Cohort.PRE_2022, sid))
    )

    rows = []
    for th in thresholds:
        for strategy in strategies:
            per_study = {}
            for sid in study_order:
                responses = scored_by_strategy[strategy].get(sid, ())
                if not responses:
                    continue
                flagged, total = _detected_counts(responses, th, exclude_empty)
                if total == 0:
                    continue
                per_study[sid] = percentage(flagged, total)
            if not per_study:
                raise ValueError(f'no scorable responses for strategy "{strategy}"')
            averages = {}
            for cohort in (Cohort.PRE_2022, Cohort.POST_2022):
                members = [pct for sid, pct in per_study.items() if cohorts[sid] == cohort]
                if members:
                    averages[cohort] = average(convention, members)
            rows.append(
                SweepRow(
                    threshold=float(th),
                    strategy=strategy,
                    per_study=per_study,
                    cohort_averages=averages,
                )
            )
    return SweepTable(
        thresholds=tuple(float(t) for t in thresholds),
        strategies=tuple(strategies),
        convention=convention,
        study_order=study_order,
        cohorts={sid: cohorts[sid] for sid in study_order},
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Histogram


@dataclass(frozen=True)
class HistogramSpec:
    """Half-open bins [e_i, e_{i+1}) over [-1, 1], last bin closed at 1."""

    bin_edges: tuple[float, ...]
    counts: Mapping[str, tuple[int, ...]]  # cohort value -> per-bin counts

    def to_rows(self) -> list[tuple[float, float, str, int]]:
        rows = []
        for cohort in sorted(self.counts):
            for i, count in enumerate(self.counts[cohort]):
                rows.append((self.bin_edges[i], self.bin_edges[i + 1], cohort, count))
        return rows


def bin_count(bin_width: float) -> int:
    """Number of histogram bins over [-1, 1]; bin_width must divide the span."""
    width = as_exact(bin_width)
    if width <= 0:
        raise ValueError(f"invalid bin width: {bin_width}")
    n_bins_exact = Fraction(2) / width
    if n_bins_exact.denominator != 1:
        raise ValueError(f"invalid bin width: {bin_width} does not divide the [-1, 1] span")
    return int(n_bins_exact)


def build_histogram(
    scores_by_cohort: Mapping[Cohort, Sequence[float]], bin_width: float = 0.05
) -> HistogramSpec:
    """Bin similarity scores per cohort; bin_width must divide the [-1, 1] span."""
    n_bins = bin_count(bin_width)
    width = as_exact(bin_width)
    edges = tuple(float(-1 + i * width) for i in range(n_bins + 1))
    counts = {}
    for cohort, scores in scores_by_cohort.items():
        bins = [0] * n_bins
        for score in scores:
            if not -1.0 - 1e-6 <= score <= 1.0 + 1e-6:
                raise ValueError(f"similarity score out of range: {score}")
            if score >= 1.0:
                index = n_bins - 1  # last bin is closed at 1
            elif score <= -1.0:
                index = 0
            else:
                # Exact rational arithmetic so half-open edges hold exactly.
                index = int((Fraction(score) + 1) / width)
                index = min(max(index, 0), n_bins - 1)
            bins[index] += 1
        counts[cohort.value] = tuple(bins)
    return HistogramSpec(bin_edges=edges, counts=counts)


# ---------------------------------------------------------------------------
# Case extraction


@dataclass(frozen=True)
class CaseRow:
    response_id: str
    score: float
    best_signature_id: str | None
    response_text: str
    signature_text: str

    def to_dict(self) -> dict:
        return {
            "response_id": self.response_id,
            "score": self.score,
            "best_signature_id": self.best_signature_id,
            "response_text": self.response_text,
            "signature_text": self.signature_text,
        }


@dataclass(frozen=True)
class CaseExtract:
    high_cases: tuple[CaseRow, ...]  # sorted descending by score
    low_cases: tuple[CaseRow, ...]  # everything flagged irrelevant, ascending

    def to_dict(self) -> dict:
        return {
            "high": [c.to_dict() for c in self.high_cases],
            "low": [c.to_dict() for c in self.low_cases],
        }


def extract_cases(
    scored: Sequence[ScoredResponse],
    response_texts: Mapping[str, str],
    signature_texts: Mapping[str, str],
    k_high: int,
    low_th: float = 0.0,
) -> CaseExtract:
    """Top-k responses by final score, plus every irrelevance-flagged response."""
    if k_high < 0:
        raise ValueError("k_high must be >= 0")

    def row(s: ScoredResponse) -> CaseRow:
        assert s.final_score is not None
        return CaseRow(
            response_id=s.response_id,
            score=s.final_score,
            best_signature_id=s.best_signature_id,
            response_text=response_texts.get(s.response_id, ""),
            signature_text=signature_texts.get(s.best_signature_id or "", ""),
        )

    with_scores = [s for s in scored if s.final_score is not None]
    high = sorted(with_scores, key=lambda s: (-s.final_score, s.response_id))[:k_high]
    low = sorted(
        (s for s in with_scores if FLAG_IRRELEVANT in s.flags or flag_irrelevant(s, low_th)),
        key=lambda s: (s.final_score, s.response_id),
    )
    return CaseExtract(
        high_cases=tuple(row(s) for s in high),
        low_cases=tuple(row(s) for s in low),
    )


# ---------------------------------------------------------------------------
# Combined report


@dataclass(frozen=True)
class DetectionReport:
    """Merged, render-ready report: provenance plus whichever sections exist."""

    provenance: Mapping[str, object]
    llm_detection: Sequence[Mapping[str, object]] = ()
    signature_detection: Mapping[str, object] | None = None

    def to_dict(self) -> dict:
        out: dict = {"provenance": dict(self.provenance)}
        if self.llm_detection:
            out["llm_detection"] = [dict(d) for d in self.llm_detection]
        if self.signature_detection is not None:
            out["signature_detection"] = dict(self.signature_detection)
        return out


def sweep_markdown_lines(sweep: Mapping) -> list[str]:
    """Markdown table from a SweepTable dict: one row per (threshold, strategy)."""
    study_order = list(sweep["study_order"])
    cohorts = sweep["cohorts"]
    pre = [sid for sid in study_order if cohorts[sid] == Cohort.PRE_2022.value]
    post = [sid for sid in study_order if cohorts[sid] == Cohort.POST_2022.value]
    header = ["th", "strategy"]
    header += pre + (["pre avg"] if pre else [])
    header += post + (["post avg"] if post else [])
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for row in sweep["rows"]:
        cells = [f"{row['threshold']:g}", str(row["strategy"])]
        for sid in pre:
            cell = row["per_study"].get(sid)
            cells.append(f"{cell['rendered']}%" if cell else "-")
        if pre:
            avg = row["averages"].get(Cohort.PRE_2022.value)
            cells.append(f"{avg['rendered']}%" if avg else "-")
        for sid in post:
            cell = row["per_study"].get(sid)
            cells.append(f"{cell['rendered']}%" if cell else "-")
        if post:
            avg = row["averages"].get(Cohort.POST_2022.value)
            cells.append(f"{avg['rendered']}%" if avg else "-")
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def sweep_csv_rows(sweep: Mapping) -> list[list[str]]:
    """[threshold, strategy, study, num, den, percent] rows from a SweepTable dict.

    Rows follow the dict's own order: per (threshold, strategy) row, its
    studies, then its cohort averages as "average_<cohort>".
    """
    rows = []
    for row in sweep["rows"]:
        cells = list(row["per_study"].items())
        cells += [(f"average_{cohort}", pct) for cohort, pct in row["averages"].items()]
        for name, pct in cells:
            rows.append(
                [
                    f"{row['threshold']:g}",
                    str(row["strategy"]),
                    name,
                    str(pct.get("num", "")),
                    str(pct.get("den", "")),
                    pct["rendered"],
                ]
            )
    return rows


def detector_markdown_lines(section: Mapping) -> list[str]:
    """Markdown table from a detector dump dict: one model row across studies."""
    studies = section["studies"]
    header = ["model"] + [s["study_id"] for s in studies]
    values = [str(section["model_id"])] + [f"{s['percentage']['rendered']}%" for s in studies]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
        "| " + " | ".join(values) + " |",
    ]
    comparison = section.get("cohort_comparison")
    if comparison:
        lines.append("")
        lines.append(
            f"Cohort averages ({comparison['convention']}): "
            f"pre-2022 {comparison['pre_2022']['rendered']}%, "
            f"post-2022 {comparison['post_2022']['rendered']}%"
        )
    return lines


def report_to_markdown(report: DetectionReport) -> str:
    lines = ["# AI-content detection report", ""]
    lines.append("## Provenance")
    lines.append("")
    for key in sorted(report.provenance):
        lines.append(f"- {key}: {_fmt_provenance(report.provenance[key])}")
    lines.append("")
    for section in report.llm_detection:
        lines.append(f"## Zero-shot LLM detection ({section['model_id']})")
        lines.append("")
        lines.extend(detector_markdown_lines(section))
        lines.append("")
    if report.signature_detection is not None:
        sweep = report.signature_detection.get("sweep")
        if sweep:
            lines.append("## Signature-based detection")
            lines.append("")
            lines.extend(sweep_markdown_lines(sweep))
            lines.append("")
        cases = report.signature_detection.get("cases")
        if cases:
            for strategy in sorted(cases):
                extract = cases[strategy]
                lines.append(f"### Cases ({strategy})")
                lines.append("")
                lines.append("Top similarity scores:")
                lines.append("")
                for case in extract["high"]:
                    lines.append(
                        f"- {case['response_id']} score {case['score']:.4f} "
                        f"(signature {case['best_signature_id']})"
                    )
                lines.append("")
                lines.append("Flagged irrelevant (score at or below the low threshold):")
                lines.append("")
                if extract["low"]:
                    for case in extract["low"]:
                        lines.append(f"- {case['response_id']} score {case['score']:.4f}")
                else:
                    lines.append("- none")
                lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _fmt_provenance(value: object) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k}={_fmt_provenance(v)}" for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_provenance(v) for v in value) + "]"
    return str(value)


def report_to_csv_rows(report: DetectionReport) -> list[list[str]]:
    """Flat rows for spreadsheet use: one per table cell."""
    rows = [["section", "model_or_strategy", "threshold", "study_or_cohort", "num", "den", "percent"]]
    for section in report.llm_detection:
        for study in section["studies"]:  # type: ignore[index]
            pct = study["percentage"]
            rows.append(
                [
                    "llm_detection",
                    str(section["model_id"]),
                    "",
                    study["study_id"],
                    str(pct.get("num", "")),
                    str(pct.get("den", "")),
                    pct["rendered"],
                ]
            )
    if report.signature_detection is not None:
        sweep = report.signature_detection.get("sweep")
        if sweep:
            for th, strategy, *cell in sweep_csv_rows(sweep):
                rows.append(["signature_detection", strategy, th, *cell])
    return rows
