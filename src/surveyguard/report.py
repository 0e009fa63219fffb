"""Aggregation of verdicts and similarity scores into reportable tables.

Two cohort-averaging conventions exist because aggregate tables in the wild
use both: an unweighted mean of per-study percentages, and a count-weighted
pooled rate. Every report names the convention it used. All internal math is
exact (integer counts and rationals); rounding to two decimals (half-up)
happens only at render time.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from enum import Enum
from fractions import Fraction

import numpy as np

from .model import Cohort
from .scoring import meets_threshold


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


def percentage(flagged: int, total: int) -> dict:
    """flagged/total as the percent dict artifacts hold: {"num", "den", "rendered"}."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= flagged <= total:
        raise ValueError(f"flagged must be in [0, total], got {flagged}/{total}")
    return {"num": flagged, "den": total, "rendered": render_two_decimals(Fraction(100 * flagged, total))}


def percent_value(pct: Mapping) -> Fraction:
    """The exact percentage a percent dict holds: 100*num/den, or its "n/d" value."""
    return Fraction(100 * pct["num"], pct["den"]) if "num" in pct else Fraction(pct["value"])


def average_unweighted(values: Sequence[float | int | str | Fraction | Mapping]) -> dict:
    """Arithmetic mean of per-study percentages (percent dicts or bare numbers), as
    {"value": "n/d", "rendered"}."""
    if not values:
        raise ValueError("empty input")
    exact = [percent_value(v) if isinstance(v, Mapping) else as_exact(v) for v in values]
    mean = sum(exact, Fraction(0)) / len(exact)
    return {"value": f"{mean.numerator}/{mean.denominator}", "rendered": render_two_decimals(mean)}


def average_pooled(pairs: Sequence[tuple[int, int]]) -> dict:
    """Count-weighted pooled rate: sum(flagged) / sum(total)."""
    if not pairs:
        raise ValueError("empty input")
    for f, t in pairs:
        percentage(f, t)  # each pair must be a percentage on its own
    flagged, total = map(sum, zip(*pairs))
    return percentage(flagged, total)


def average(convention: AverageConvention, percents: Sequence[Mapping]) -> dict:
    """Average per-study percent dicts under the named convention."""
    if convention == AverageConvention.UNWEIGHTED_MEAN:
        return average_unweighted(percents)
    if any("num" not in p for p in percents):
        raise ValueError("pooled averaging needs (flagged, total) counts")
    return average_pooled([(p["num"], p["den"]) for p in percents])


def cohort_averages(
    per_study: Mapping[str, Mapping], cohorts: Mapping[str, Cohort], convention: AverageConvention
) -> dict:
    """Each cohort's average of its studies' percent dicts, keyed by
    cohort value, pre-2022 first; a cohort with no study in per_study is left out."""
    averages = {}
    for cohort in (Cohort.PRE_2022, Cohort.POST_2022):
        members = [pct for sid, pct in per_study.items() if cohorts[sid] == cohort]
        if members:
            averages[cohort.value] = average(convention, members)
    return averages


# ---------------------------------------------------------------------------
# Threshold sweep


def threshold_sweep(
    scores_by_strategy: Mapping[str, Mapping],
    thresholds: Sequence[float],
    strategies: Sequence[str],
    cohorts: Mapping[str, Cohort],
    exclude_empty: bool = False,
) -> dict:
    """One row per (threshold, strategy) with per-study and per-cohort percentages.

    Takes each strategy's score columns as ``score`` keeps them (it reads
    final_score, empty, and study, an index into study_ids) and returns the
    sweep.json dict. Each row holds "per_study" in study_order and pooled
    "averages" keyed by cohort value, pre-2022 first; every percentage is a
    percent dict. Empty responses count in denominators (and never as
    detections) unless exclude_empty is set.
    """
    if not strategies:
        raise ValueError("empty strategy list")
    if not thresholds:
        raise ValueError("empty threshold list")
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    counts: dict[tuple[str, str], list[int]] = {}  # (strategy, study) -> [denominator, count at each th]
    for strategy in strategies:
        scores = scores_by_strategy.get(strategy)
        if not scores or not len(scores["study"]):
            raise ValueError(f'no scored responses for strategy "{strategy}"')
        study, size = scores["study"], len(scores["study_ids"])
        counted = study[~scores["empty"]] if exclude_empty else study
        flagged = [study[meets_threshold(scores["final_score"], th)] for th in thresholds]
        table = np.stack([np.bincount(s, minlength=size) for s in (counted, *flagged)], axis=1).tolist()
        for i in np.flatnonzero(np.bincount(study, minlength=size)).tolist():
            counts[strategy, scores["study_ids"][i]] = table[i]

    study_ids = sorted({sid for _, sid in counts})
    for sid in study_ids:
        if sid not in cohorts:
            raise ValueError(f'no cohort known for study "{sid}"')
    study_order = sorted(study_ids, key=lambda sid: (cohorts[sid] != Cohort.PRE_2022, sid))

    rows = []
    for t, th in enumerate(thresholds):
        for strategy in strategies:
            per_study = {}
            for sid in study_order:
                total, *flagged = counts.get((strategy, sid), (0,))
                if total:
                    per_study[sid] = percentage(flagged[t], total)
            if not per_study:
                raise ValueError(f'no scorable responses for strategy "{strategy}"')
            rows.append(
                {
                    "threshold": float(th),
                    "strategy": strategy,
                    "per_study": per_study,
                    "averages": cohort_averages(per_study, cohorts, AverageConvention.POOLED_WEIGHTED),
                }
            )
    return {
        "convention": AverageConvention.POOLED_WEIGHTED.value,
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


def bin_indices(scores: np.ndarray, bin_width: float) -> np.ndarray:
    """Each score's histogram bin: the exact rational floor of (score + 1) / bin_width, with 1
    (and above) in the last bin and -1 (and below) in the first.

    The bins are half-open [e_i, e_{i+1}). Each edge's float, float(e_i), is the nearest double to
    e_i, so a double s is >= e_i iff s >= float(e_i), except that s == float(e_i) < e_i is below it.
    """
    width = as_exact(bin_width)
    n_bins = bin_count(bin_width)
    exact = [-1 + i * width for i in range(n_bins + 1)]
    edges = np.array([float(e) for e in exact])
    below = np.array([Fraction(float(e)) < e for e in exact])  # edges whose float rounded down
    index = np.searchsorted(edges, scores, side="right") - 1
    edge = index.clip(0, n_bins)  # the edge at or below each score
    index -= (scores == edges[edge]) & below[edge]
    return index.clip(0, n_bins - 1)


def build_histogram(
    scores_by_cohort: Mapping[Cohort, np.ndarray], bin_width: float = 0.05
) -> list[tuple[float, float, str, int]]:
    """Bin similarity scores per cohort (see ``bin_indices``); bin_width must divide the [-1, 1]
    span.

    Bins are half-open [e_i, e_{i+1}) over [-1, 1], the last one closed at 1.
    Returns (bin_start, bin_end, cohort value, count) rows, by cohort value
    and then by bin.
    """
    n_bins = bin_count(bin_width)
    width = as_exact(bin_width)
    edges = [float(-1 + i * width) for i in range(n_bins + 1)]
    rows = []
    for cohort, scores in sorted(scores_by_cohort.items(), key=lambda item: item[0].value):
        scores = np.asarray(scores, dtype=np.float64)
        in_range = (scores >= -1.0 - 1e-6) & (scores <= 1.0 + 1e-6)  # NaN is out of range too
        if not in_range.all():
            raise ValueError(f"similarity score out of range: {scores[~in_range][0]}")
        bins = np.bincount(bin_indices(scores, bin_width), minlength=n_bins).tolist()
        rows += [(edges[i], edges[i + 1], cohort.value, count) for i, count in enumerate(bins)]
    return rows


# ---------------------------------------------------------------------------
# Case extraction


def extract_cases(
    scores: Mapping,
    response_text: Callable[[str], str],
    signature_texts: Mapping[str, str],
    k_high: int,
) -> dict:
    """Top-k scored responses by final score, plus every one ``score`` flagged irrelevant.

    Takes a strategy's score columns as ``score`` keeps them (response_id in id
    order, final_score, empty, irrelevant, and best, an index into
    signature_ids), and looks up the texts of the cases it returns only.
    Returns {"high": cases by descending score, "low": irrelevant cases by
    ascending score}; ties go to the smaller response id.
    """
    if k_high < 0:
        raise ValueError("k_high must be >= 0")
    final = scores["final_score"]

    def case(i: int) -> dict:
        rid, best = scores["response_id"][i], scores["signature_ids"][scores["best"][i]]
        return {
            "response_id": rid,
            "score": final[i].item(),
            "best_signature_id": best,
            "response_text": response_text(rid),
            "signature_text": signature_texts.get(best, ""),
        }

    scored = np.flatnonzero(~scores["empty"])  # in id order, which a stable sort keeps among ties
    high = scored[np.argsort(-final[scored], kind="stable")][:k_high]
    low = np.flatnonzero(scores["irrelevant"])
    low = low[np.argsort(final[low], kind="stable")]
    return {"high": [case(i) for i in high.tolist()], "low": [case(i) for i in low.tolist()]}


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
    """[num, den, rendered] cells of a percent dict; an unweighted mean has no counts."""
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
