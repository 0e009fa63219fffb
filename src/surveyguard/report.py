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
from .scoring import FLAG_EMPTY, FLAG_IRRELEVANT, flag_irrelevant, meets_threshold


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
    for f, t in pairs:
        percentage(f, t)  # each pair must be a percentage on its own
    flagged, total = map(sum, zip(*pairs))
    return percentage(flagged, total)


def average(convention: AverageConvention, percents: Sequence[Percent]) -> Percent:
    """Average per-study percentages under the named convention."""
    if convention == AverageConvention.UNWEIGHTED_MEAN:
        return average_unweighted(percents)
    if any(p.flagged is None or p.total is None for p in percents):
        raise ValueError("pooled averaging needs (flagged, total) counts")
    return average_pooled([(p.flagged, p.total) for p in percents])


def cohort_averages(
    per_study: Mapping[str, Percent], cohorts: Mapping[str, Cohort], convention: AverageConvention
) -> dict:
    """Each cohort's average of its studies' percentages as a Percent dict, keyed by
    cohort value, pre-2022 first; a cohort with no study in per_study is left out."""
    averages = {}
    for cohort in (Cohort.PRE_2022, Cohort.POST_2022):
        members = [pct for sid, pct in per_study.items() if cohorts[sid] == cohort]
        if members:
            averages[cohort.value] = average(convention, members).to_dict()
    return averages


# ---------------------------------------------------------------------------
# Threshold sweep


def threshold_sweep(
    rows_by_strategy: Mapping[str, Sequence[Mapping]],
    thresholds: Sequence[float],
    strategies: Sequence[str],
    cohorts: Mapping[str, Cohort],
    convention: AverageConvention = AverageConvention.POOLED_WEIGHTED,
    exclude_empty: bool = False,
) -> dict:
    """One row per (threshold, strategy) with per-study and per-cohort percentages.

    Takes each strategy's scored rows, which name their study_id, and returns
    the sweep.json dict. Each row holds "per_study" in study_order and
    "averages" keyed by cohort value, pre-2022 first; every percentage is a
    Percent dict. Empty responses count in denominators (and never as
    detections) unless exclude_empty is set.
    """
    if not strategies:
        raise ValueError("empty strategy list")
    if not thresholds:
        raise ValueError("empty threshold list")
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    counted: dict[tuple[str, str], list[Mapping]] = {}  # the denominator rows per (strategy, study)
    for strategy in strategies:
        if not rows_by_strategy.get(strategy):
            raise ValueError(f'no scored responses for strategy "{strategy}"')
        for row in rows_by_strategy[strategy]:
            group = counted.setdefault((strategy, row["study_id"]), [])
            if not (exclude_empty and FLAG_EMPTY in row["flags"]):
                group.append(row)

    study_ids = sorted({sid for _, sid in counted})
    for sid in study_ids:
        if sid not in cohorts:
            raise ValueError(f'no cohort known for study "{sid}"')
    study_order = sorted(study_ids, key=lambda sid: (cohorts[sid] != Cohort.PRE_2022, sid))

    rows = []
    for th in thresholds:
        for strategy in strategies:
            per_study = {}
            for sid in study_order:
                group = counted.get((strategy, sid))
                if group:
                    per_study[sid] = percentage(sum(meets_threshold(r, th) for r in group), len(group))
            if not per_study:
                raise ValueError(f'no scorable responses for strategy "{strategy}"')
            rows.append(
                {
                    "threshold": float(th),
                    "strategy": strategy,
                    "per_study": {sid: pct.to_dict() for sid, pct in per_study.items()},
                    "averages": cohort_averages(per_study, cohorts, convention),
                }
            )
    return {
        "convention": convention.value,
        "thresholds": [float(t) for t in thresholds],
        "strategies": list(strategies),
        "study_order": study_order,
        "cohorts": {sid: cohorts[sid].value for sid in study_order},
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Histogram


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
) -> list[tuple[float, float, str, int]]:
    """Bin similarity scores per cohort; bin_width must divide the [-1, 1] span.

    Bins are half-open [e_i, e_{i+1}) over [-1, 1], the last one closed at 1.
    Returns (bin_start, bin_end, cohort value, count) rows, by cohort value
    and then by bin.
    """
    n_bins = bin_count(bin_width)
    width = as_exact(bin_width)
    edges = [float(-1 + i * width) for i in range(n_bins + 1)]
    rows = []
    for cohort, scores in sorted(scores_by_cohort.items(), key=lambda item: item[0].value):
        bins = [0] * n_bins
        for score in scores:
            if not -1.0 - 1e-6 <= score <= 1.0 + 1e-6:
                raise ValueError(f"similarity score out of range: {score}")
            if score >= 1.0:
                index = n_bins - 1  # last bin is closed at 1
            elif score <= -1.0:
                index = 0
            else:
                a, b = score.as_integer_ratio()  # exact integers, so half-open edges hold exactly
                index = (a + b) * width.denominator // (b * width.numerator)
                index = min(max(index, 0), n_bins - 1)
            bins[index] += 1
        rows += [(edges[i], edges[i + 1], cohort.value, count) for i, count in enumerate(bins)]
    return rows


# ---------------------------------------------------------------------------
# Case extraction


def extract_cases(
    rows: Sequence[Mapping],
    response_texts: Mapping[str, str],
    signature_texts: Mapping[str, str],
    k_high: int,
    low_th: float = 0.0,
) -> dict:
    """Top-k scored rows by final score, plus every irrelevance-flagged row.

    Returns {"high": cases by descending score, "low": irrelevant cases by
    ascending score}; ties go to the smaller response id.
    """
    if k_high < 0:
        raise ValueError("k_high must be >= 0")

    def case(row: Mapping) -> dict:
        return {
            "response_id": row["response_id"],
            "score": row["final_score"],
            "best_signature_id": row["best_signature_id"],
            "response_text": response_texts.get(row["response_id"], ""),
            "signature_text": signature_texts.get(row["best_signature_id"] or "", ""),
        }

    with_scores = [r for r in rows if r["final_score"] is not None]
    high = sorted(with_scores, key=lambda r: (-r["final_score"], r["response_id"]))[:k_high]
    low = sorted(
        (r for r in with_scores if FLAG_IRRELEVANT in r["flags"] or flag_irrelevant(r, low_th)),
        key=lambda r: (r["final_score"], r["response_id"]),
    )
    return {"high": [case(r) for r in high], "low": [case(r) for r in low]}


# ---------------------------------------------------------------------------
# Rendering. Every renderer reads the dicts the aggregations return, which are
# also what `report` reads back from the dumps.


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Header, separator and one line per row of a markdown table."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


def _percent_cell(pct: Mapping | None) -> str:
    return f"{pct['rendered']}%" if pct else "-"


def _count_cells(pct: Mapping) -> list[str]:
    """[num, den, rendered] cells of a Percent dict; an unweighted mean has no counts."""
    return [str(pct.get("num", "")), str(pct.get("den", "")), pct["rendered"]]


def sweep_markdown_lines(sweep: Mapping) -> list[str]:
    """Markdown table from a sweep dict: one row per (threshold, strategy)."""
    groups = []  # (cohort value, its studies in order, average column label)
    for cohort, label in ((Cohort.PRE_2022, "pre avg"), (Cohort.POST_2022, "post avg")):
        sids = [sid for sid in sweep["study_order"] if sweep["cohorts"][sid] == cohort.value]
        if sids:
            groups.append((cohort.value, sids, label))
    header = ["th", "strategy"]
    for _, sids, label in groups:
        header += [*sids, label]
    rows = []
    for row in sweep["rows"]:
        cells = [f"{row['threshold']:g}", str(row["strategy"])]
        for cohort, sids, _ in groups:
            cells += [_percent_cell(row["per_study"].get(sid)) for sid in sids]
            cells.append(_percent_cell(row["averages"].get(cohort)))
        rows.append(cells)
    return _markdown_table(header, rows)


def sweep_csv_rows(sweep: Mapping) -> list[list[str]]:
    """[threshold, strategy, study, num, den, percent] rows from a sweep dict.

    Rows follow the dict's own order: per (threshold, strategy) row, its
    studies, then its cohort averages as "average_<cohort>".
    """
    rows = []
    for row in sweep["rows"]:
        cells = list(row["per_study"].items())
        cells += [(f"average_{cohort}", pct) for cohort, pct in row["averages"].items()]
        for name, pct in cells:
            rows.append([f"{row['threshold']:g}", str(row["strategy"]), name, *_count_cells(pct)])
    return rows


def detector_markdown_lines(section: Mapping) -> list[str]:
    """Markdown table from a detector dump dict: one model row across studies."""
    studies = section["studies"]
    lines = _markdown_table(
        ["model"] + [s["study_id"] for s in studies],
        [[str(section["model_id"])] + [_percent_cell(s["percentage"]) for s in studies]],
    )
    comparison = section.get("cohort_comparison")
    if comparison:
        lines += ["", f"Cohort averages {comparison_text(comparison)}"]
    return lines


def comparison_text(comparison: Mapping) -> str:
    """A detector dump's cohort_comparison as "(<convention>): pre-2022 x%, post-2022 y%"."""
    return (
        f"({comparison['convention']}): pre-2022 {comparison['pre_2022']['rendered']}%, "
        f"post-2022 {comparison['post_2022']['rendered']}%"
    )


def report_to_markdown(report: Mapping) -> str:
    """report.md from the report dict: provenance, then whichever sections it has."""
    lines = ["# AI-content detection report", ""]
    lines.append("## Provenance")
    lines.append("")
    provenance = report["provenance"]
    for key in sorted(provenance):
        lines.append(f"- {key}: {_fmt_provenance(provenance[key])}")
    lines.append("")
    for section in report.get("llm_detection", ()):
        lines.append(f"## Zero-shot LLM detection ({section['model_id']})")
        lines.append("")
        lines.extend(detector_markdown_lines(section))
        lines.append("")
    signature = report.get("signature_detection", {})
    sweep = signature.get("sweep")
    if sweep:
        lines.append("## Signature-based detection")
        lines.append("")
        lines.extend(sweep_markdown_lines(sweep))
        lines.append("")
    cases = signature.get("cases", {})
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


def report_to_csv_rows(report: Mapping) -> list[list[str]]:
    """Flat rows for spreadsheet use: one per table cell."""
    rows = [["section", "model_or_strategy", "threshold", "study_or_cohort", "num", "den", "percent"]]
    for section in report.get("llm_detection", ()):
        for study in section["studies"]:
            cells = _count_cells(study["percentage"])
            rows.append(["llm_detection", str(section["model_id"]), "", study["study_id"], *cells])
    sweep = report.get("signature_detection", {}).get("sweep")
    if sweep:
        for th, strategy, *cell in sweep_csv_rows(sweep):
            rows.append(["signature_detection", strategy, th, *cell])
    return rows
