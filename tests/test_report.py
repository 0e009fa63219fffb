import json
import math
import random
from fractions import Fraction

import pytest

from surveyguard.gateway import DiskCache, ProviderGateway
from surveyguard.model import Cohort
from surveyguard.providers import MockEmbeddingProvider
from surveyguard.report import (
    AverageConvention,
    Percent,
    average_pooled,
    average_unweighted,
    build_histogram,
    cohort_averages,
    extract_cases,
    percentage,
    render_two_decimals,
    sweep_csv_rows,
    sweep_markdown_lines,
    threshold_sweep,
)
from surveyguard.scoring import FLAG_IRRELEVANT, empty_scored, flag_irrelevant, score_response


def scored(rid: str, final: float) -> dict:
    return {
        "response_id": rid,
        "final_score": final,
        "best_signature_id": "s",
        "flags": [],
        "per_signature": [{"signature_id": "s", "score": final}],
    }


def with_irrelevance(row: dict, low_th: float) -> dict:
    """The row with the "irrelevant" flag that score sets when it applies."""
    if flag_irrelevant(row, low_th):
        row["flags"].append(FLAG_IRRELEVANT)
    return row


def sweep_input(data: dict) -> dict:
    """{strategy: {study_id: rows}} as threshold_sweep's {strategy: rows}, each row naming its study."""
    return {
        strategy: [{**row, "study_id": sid} for sid, rows in studies.items() for row in rows]
        for strategy, studies in data.items()
    }


class TestRendering:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction("6.155"), "6.16"),  # half-up at the midpoint
            (Fraction("0.625"), "0.63"),
            (Fraction(100, 3), "33.33"),
            (Fraction(0), "0.00"),
            (Fraction(100), "100.00"),
            (Fraction("15.882"), "15.88"),
        ],
    )
    def test_two_decimal_half_up(self, value, expected):
        assert render_two_decimals(value) == expected

    def test_decimal_point_never_locale_dependent(self):
        assert "." in render_two_decimals(Fraction("1.5"))
        assert "," not in render_two_decimals(Fraction("1234.5"))


class TestPercentage:
    def test_count_backed_cells(self):
        assert percentage(27, 170).rendered == "15.88"
        assert percentage(0, 160).rendered == "0.00"
        assert percentage(1, 3).rendered == "33.33"

    def test_exact_rational_kept(self):
        pct = percentage(27, 170)
        assert pct.to_dict() == {"num": 27, "den": 170, "rendered": "15.88"}
        assert pct.value == Fraction(2700, 170)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            percentage(1, 0)
        with pytest.raises(ValueError):
            percentage(5, 3)
        with pytest.raises(ValueError):
            percentage(-1, 3)


class TestAverages:
    def test_unweighted_mean_of_pre_cohort_row(self):
        assert average_unweighted([13.91, 1.18, 7.03, 2.50]).rendered == "6.16"

    def test_unweighted_mean_of_post_cohort_row(self):
        assert average_unweighted([48.71, 18.18, 24.76]).rendered == "30.55"

    def test_unweighted_singleton(self):
        assert average_unweighted([7.03]).rendered == "7.03"

    def test_unweighted_accepts_percent_objects(self):
        assert average_unweighted([percentage(1, 4), percentage(3, 4)]).rendered == "50.00"

    def test_pooled_pre_cohort_counts(self):
        assert average_pooled([(27, 170), (23, 313), (21, 160)]).rendered == "11.04"

    def test_pooled_post_cohort_counts(self):
        assert average_pooled([(15, 1166), (0, 198), (25, 520)]).rendered == "2.12"

    def test_pooled_zeroes(self):
        assert average_pooled([(0, 10), (0, 10)]).rendered == "0.00"

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            average_unweighted([])
        with pytest.raises(ValueError):
            average_pooled([])

    def test_averages_lie_between_min_and_max(self):
        rng = random.Random(13)
        for _ in range(100):
            pairs = [(rng.randrange(0, 50), rng.randrange(50, 200)) for _ in range(rng.randrange(1, 8))]
            percents = [percentage(f, t) for f, t in pairs]
            values = [p.value for p in percents]
            pooled = average_pooled(pairs).value
            unweighted = average_unweighted(percents).value
            assert min(values) <= pooled <= max(values)
            assert min(values) <= unweighted <= max(values)


COHORTS = {"s1": Cohort.PRE_2022, "s2": Cohort.POST_2022}


class TestCohortAverages:
    def test_unweighted_reproduces_row_averages(self):
        pre = [13.91, 1.18, 7.03, 2.50]
        post = [48.71, 18.18, 24.76]
        per_study = {f"post{i}": Percent(value=Fraction(str(v))) for i, v in enumerate(post)}
        per_study |= {f"pre{i}": Percent(value=Fraction(str(v))) for i, v in enumerate(pre)}
        cohorts = {sid: Cohort.PRE_2022 if sid.startswith("pre") else Cohort.POST_2022 for sid in per_study}
        averages = cohort_averages(per_study, cohorts, AverageConvention.UNWEIGHTED_MEAN)
        assert list(averages) == ["pre_2022", "post_2022"]
        assert averages["pre_2022"]["rendered"] == "6.16"
        assert averages["post_2022"]["rendered"] == "30.55"

    def test_symmetric_fixture(self):
        per_study = {"s1": percentage(3, 10), "s2": percentage(3, 10)}
        averages = cohort_averages(per_study, COHORTS, AverageConvention.POOLED_WEIGHTED)
        assert averages["pre_2022"] == averages["post_2022"]

    def test_single_study_per_cohort(self):
        per_study = {"s1": percentage(1, 8), "s2": percentage(6, 8)}
        averages = cohort_averages(per_study, COHORTS, AverageConvention.UNWEIGHTED_MEAN)
        assert averages["pre_2022"]["rendered"] == "12.50"
        assert averages["post_2022"]["rendered"] == "75.00"

    def test_a_cohort_with_no_study_is_left_out(self):
        averages = cohort_averages({"s1": percentage(1, 8)}, COHORTS, AverageConvention.UNWEIGHTED_MEAN)
        assert list(averages) == ["pre_2022"]

    def test_pooled_requires_counts(self):
        per_study = {"s1": Percent(value=Fraction(5)), "s2": percentage(1, 2)}
        with pytest.raises(ValueError, match="counts"):
            cohort_averages(per_study, COHORTS, AverageConvention.POOLED_WEIGHTED)


class TestThresholdSweep:
    def test_step_function_at_single_score(self):
        data = {"basic": {"s1": [scored(f"r{i}", 0.72) for i in range(4)], "s2": [scored("rx", 0.72)]}}
        table = threshold_sweep(sweep_input(data), [0.7, 0.75, 0.8, 0.85, 0.9], ["basic"], COHORTS)
        by_threshold = {row["threshold"]: row for row in table["rows"]}
        assert by_threshold[0.7]["per_study"]["s1"]["rendered"] == "100.00"
        for th in (0.75, 0.8, 0.85, 0.9):
            assert by_threshold[th]["per_study"]["s1"]["rendered"] == "0.00"

    def test_staircase_counts(self):
        finals = [0.71, 0.76, 0.81, 0.86, 0.91]
        data = {"basic": {"s1": [scored(f"r{i}", f) for i, f in enumerate(finals)]}}
        table = threshold_sweep(
            sweep_input(data), [0.7, 0.75, 0.8, 0.85, 0.9], ["basic"], {"s1": Cohort.PRE_2022}
        )
        counts = [row["per_study"]["s1"]["num"] for row in table["rows"]]
        assert counts == [5, 4, 3, 2, 1]

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ValueError, match="empty strategy list"):
            threshold_sweep(sweep_input({"basic": {"s1": [scored("r", 0.5)]}}), [0.7], [], COHORTS)

    def test_unsorted_thresholds_rejected(self):
        data = {"basic": {"s1": [scored("r", 0.5)]}}
        with pytest.raises(ValueError, match="sorted ascending"):
            threshold_sweep(sweep_input(data), [0.9, 0.7], ["basic"], COHORTS)

    def test_missing_strategy_rejected(self):
        with pytest.raises(ValueError, match="sentiment"):
            threshold_sweep(sweep_input({"basic": {"s1": [scored("r", 0.5)]}}), [0.7], ["sentiment"], COHORTS)

    def test_monotone_per_strategy_study_column(self):
        rng = random.Random(17)
        for _ in range(30):
            data = {
                strat: {
                    sid: [scored(f"{sid}-r{i}", rng.uniform(-1, 1)) for i in range(rng.randrange(1, 12))]
                    for sid in ("s1", "s2")
                }
                for strat in ("basic", "sentiment")
            }
            thresholds = sorted(rng.uniform(-0.9, 1.0) for _ in range(4))
            table = threshold_sweep(sweep_input(data), thresholds, ["basic", "sentiment"], COHORTS)
            for strat in ("basic", "sentiment"):
                for sid in ("s1", "s2"):
                    column = [
                        Fraction(100 * row["per_study"][sid]["num"], row["per_study"][sid]["den"])
                        for row in table["rows"]
                        if row["strategy"] == strat
                    ]
                    assert all(a >= b for a, b in zip(column, column[1:]))

    def test_pooled_average_is_default_convention(self):
        data = {
            "basic": {
                "s1": [scored(f"a{i}", 0.95) for i in range(3)] + [scored("a9", 0.1)],
                "s2": [scored("b0", 0.95)],
            }
        }
        table = threshold_sweep(sweep_input(data), [0.9], ["basic"], COHORTS)
        row = table["rows"][0]
        assert table["convention"] == AverageConvention.POOLED_WEIGHTED.value
        assert row["averages"][Cohort.PRE_2022.value] == {"num": 3, "den": 4, "rendered": "75.00"}

    def test_empty_flag_handling(self):
        data = {"basic": {"s1": [scored("r0", 0.9), empty_scored("r1")], "s2": [scored("r2", 0.9)]}}
        included = threshold_sweep(sweep_input(data), [0.8], ["basic"], COHORTS)
        assert included["rows"][0]["per_study"]["s1"]["den"] == 2
        excluded = threshold_sweep(sweep_input(data), [0.8], ["basic"], COHORTS, exclude_empty=True)
        assert excluded["rows"][0]["per_study"]["s1"]["den"] == 1

    def test_csv_rows_follow_the_sweep_order(self):
        cohorts = {"a": Cohort.POST_2022, "b": Cohort.PRE_2022}
        data = {"basic": {"a": [scored("r0", 0.9)], "b": [scored("r1", 0.2), scored("r2", 0.8)]}}
        table = threshold_sweep(sweep_input(data), [0.7, 0.9], ["basic"], cohorts)
        rows = sweep_csv_rows(table)
        assert rows[:4] == [
            ["0.7", "basic", "b", "1", "2", "50.00"],
            ["0.7", "basic", "a", "1", "1", "100.00"],
            ["0.7", "basic", "average_pre_2022", "1", "2", "50.00"],
            ["0.7", "basic", "average_post_2022", "1", "1", "100.00"],
        ]
        assert [r[0] for r in rows] == ["0.7"] * 4 + ["0.9"] * 4

    def test_markdown_rows(self):
        data = {"basic": {"s1": [scored("r0", 0.9)], "s2": [scored("r1", 0.2)]}}
        table = threshold_sweep(sweep_input(data), [0.7, 0.9], ["basic"], COHORTS)
        lines = sweep_markdown_lines(table)
        assert len(lines) == 2 + 2  # header+separator plus one row per (threshold, strategy)
        assert lines[0].startswith("| th | strategy | s1 | pre avg | s2 | post avg |")


def counts(rows) -> dict[str, list[int]]:
    """Per-bin counts by cohort from build_histogram's rows."""
    out: dict[str, list[int]] = {}
    for _start, _end, cohort, count in rows:
        out.setdefault(cohort, []).append(count)
    return out


class TestHistogram:
    def test_score_of_one_lands_in_closed_last_bin(self):
        hist = counts(build_histogram({Cohort.PRE_2022: [1.0]}, bin_width=0.05))
        assert hist["pre_2022"][-1] == 1
        assert sum(hist["pre_2022"]) == 1

    def test_half_open_bins_with_width_half(self):
        rows = build_histogram({Cohort.PRE_2022: [-1.0, 0.0, 0.999]}, bin_width=0.5)
        assert counts(rows)["pre_2022"] == [1, 0, 1, 1]
        assert [start for start, *_ in rows] + [rows[-1][1]] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_counts_conserved_for_random_scores(self):
        rng = random.Random(23)
        scores = [rng.uniform(-1, 1) for _ in range(500)]
        hist = counts(build_histogram({Cohort.POST_2022: scores}, bin_width=0.05))
        assert sum(hist["post_2022"]) == 500
        assert len(hist["post_2022"]) == 40

    @pytest.mark.parametrize("bin_width", [0.05, 0.1, 0.25, 0.5, 1, 2])
    def test_bins_are_the_exact_rational_floor_at_and_beside_every_edge(self, bin_width):
        width = Fraction(str(bin_width))
        n_bins = int(2 / width)
        edges = [float(-1 + i * width) for i in range(n_bins + 1)]
        rng = random.Random(5)
        scores = [rng.uniform(-1, 1) for _ in range(2000)]
        scores += [s for e in edges for s in (e, math.nextafter(e, -2), math.nextafter(e, 2)) if -1 <= s <= 1]
        expected = [0] * n_bins
        for score in scores:
            expected[min(int((Fraction(score) + 1) / width), n_bins - 1)] += 1
        assert counts(build_histogram({Cohort.PRE_2022: scores}, bin_width))["pre_2022"] == expected

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="invalid bin width"):
            build_histogram({Cohort.PRE_2022: [0.0]}, bin_width=0.3)
        with pytest.raises(ValueError, match="invalid bin width"):
            build_histogram({Cohort.PRE_2022: [0.0]}, bin_width=-0.1)

    def test_rows_for_csv_export(self):
        rows = build_histogram({Cohort.PRE_2022: [0.1], Cohort.POST_2022: [0.6]}, bin_width=0.5)
        assert (0.0, 0.5, "pre_2022", 1) in rows
        assert (0.5, 1.0, "post_2022", 1) in rows
        assert len(rows) == 8


class TestExtractCases:
    def make_scored(self):
        rows = [scored("r1", 0.95), scored("r2", 0.40), scored("r3", -0.20), scored("r4", 0.80)]
        return [with_irrelevance(s, 0.0) for s in rows]

    def test_k_zero_keeps_low_list(self):
        extract = extract_cases(self.make_scored(), {}, {}, k_high=0, low_th=0.0)
        assert extract["high"] == []
        assert [c["response_id"] for c in extract["low"]] == ["r3"]

    def test_k_larger_than_corpus_returns_all_sorted(self):
        extract = extract_cases(self.make_scored(), {}, {}, k_high=99, low_th=0.0)
        assert [c["response_id"] for c in extract["high"]] == ["r1", "r4", "r2", "r3"]

    def test_verbatim_match_tops_cases_with_score_one(self, tmp_path):
        provider = MockEmbeddingProvider(seed=0, dim=8)
        gateway = ProviderGateway(cache=DiskCache(tmp_path / "cache"), embedding_provider=provider)
        text = "I use it to plan meals."
        pairs = [("sig-a", gateway.embed(text)), ("sig-b", gateway.embed("Different answer."))]
        top = score_response("r-copy", gateway.embed(text), pairs)
        other = score_response("r-other", gateway.embed("Something else entirely."), pairs)
        extract = extract_cases(
            [top, other],
            {"r-copy": text, "r-other": "Something else entirely."},
            {"sig-a": text, "sig-b": "Different answer."},
            k_high=1,
        )
        best = extract["high"][0]
        assert best["response_id"] == "r-copy"
        assert best["score"] == pytest.approx(1.0, abs=1e-12)
        assert best["signature_text"] == best["response_text"]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            extract_cases([], {}, {}, k_high=-1)


class TestReturnValuesAreDumps:
    def test_sweep_cohorts_and_cases_survive_a_json_round_trip(self):
        data = {"basic": {"s1": [scored("r0", 0.9), scored("r1", -0.2)], "s2": [scored("r2", 0.75)]}}
        per_study = {"s1": percentage(1, 3), "s2": percentage(2, 3)}
        values = [
            threshold_sweep(sweep_input(data), [0.7, 0.8], ["basic"], COHORTS),
            cohort_averages(per_study, COHORTS, AverageConvention.UNWEIGHTED_MEAN),
            cohort_averages(per_study, COHORTS, AverageConvention.POOLED_WEIGHTED),
            extract_cases(
                [with_irrelevance(s, 0.0) for s in data["basic"]["s1"]],
                {"r0": "text", "r1": "other"},
                {"s": "signature"},
                k_high=1,
            ),
        ]
        for value in values:
            assert json.loads(json.dumps(value, allow_nan=False)) == value
