import random

import pytest

from surveyguard.model import (
    Cohort,
    SurveyQuestion,
    SurveyResponse,
    SurveyStudy,
    assign_cohort,
    compute_length_stats,
    word_count,
)


def response_with_words(rid: str, n: int) -> SurveyResponse:
    return SurveyResponse(response_id=rid, question_id="q1", text=" ".join(["w"] * n))


class TestLengthStats:
    def test_hand_computed_sample_std(self):
        # sample variance of [10, 20, 30] is (100 + 0 + 100) / 2 = 100
        responses = [response_with_words(f"r{i}", n) for i, n in enumerate([10, 20, 30])]
        mean, std_dev = compute_length_stats(responses)
        assert mean == pytest.approx(20.0)
        assert std_dev == pytest.approx(10.0)

    def test_single_element(self):
        assert compute_length_stats([response_with_words("r0", 7)]) == (7.0, 0.0)

    def test_constant_list(self):
        assert compute_length_stats([response_with_words(f"r{i}", 5) for i in range(4)]) == (5.0, 0.0)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            compute_length_stats([])

    def test_permutation_invariant(self):
        rng = random.Random(42)
        responses = [response_with_words(f"r{i}", rng.randrange(0, 60)) for i in range(25)]
        reference = compute_length_stats(responses)
        for _ in range(10):
            shuffled = responses[:]
            rng.shuffle(shuffled)
            assert compute_length_stats(shuffled) == reference

    def test_length_is_the_count_of_whitespace_delimited_words(self):
        texts = ["one two  three", "  padded  ", "", "a\nb\tc d"]
        responses = [SurveyResponse(response_id=f"r{i}", question_id="q", text=t) for i, t in enumerate(texts)]
        for r in responses:
            assert compute_length_stats([r])[0] == word_count(r.text) == len(r.text.split())


class TestCohort:
    @pytest.mark.parametrize(
        "month_year,expected",
        [
            ("2021-09", Cohort.PRE_2022),
            ("2023-07", Cohort.POST_2022),
            ("2021-12", Cohort.PRE_2022),  # boundary: strictly before 2022
            ("2022-01", Cohort.POST_2022),
            ("1999-01", Cohort.PRE_2022),
        ],
    )
    def test_assignment(self, month_year, expected):
        assert assign_cohort(month_year) == expected

    @pytest.mark.parametrize("bad", ["07/23", "2021-13", "2021-00", "", "2021", "21-07", "2021-7"])
    def test_bad_date(self, bad):
        with pytest.raises(ValueError, match="bad date"):
            assign_cohort(bad)

    def test_study_derives_cohort(self):
        study = SurveyStudy(study_id="s1", label="x", collected_month_year="2021-06")
        assert study.cohort == Cohort.PRE_2022
        study = SurveyStudy(study_id="s2", label="x", collected_month_year="2024-06")
        assert study.cohort == Cohort.POST_2022

    def test_pure_function_of_month(self):
        a = SurveyStudy(study_id="a", label="x", collected_month_year="2021-03", platform="mturk")
        b = SurveyStudy(study_id="b", label="y", collected_month_year="2021-03", platform="prolific")
        assert a.cohort == b.cohort


class TestValidation:
    def test_question_requires_text(self):
        with pytest.raises(ValueError):
            SurveyQuestion(question_id="q1", study_id="s1", text="")

    def test_empty_response_text_is_legal(self):
        r = SurveyResponse(response_id="r1", question_id="q1", text="")
        assert compute_length_stats([r]) == (0.0, 0.0)
