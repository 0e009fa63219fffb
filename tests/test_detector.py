import hashlib
import json
import random
import time

import pytest

from conftest import StaticChatProvider, cache_entries
from surveyguard import detector as detector_module
from surveyguard.cli import build_gateway, main, resolve_config
from surveyguard.dataset import SurveyDataset, load_dataset
from surveyguard.detector import (
    DetectorParseError,
    build_detector_prompt,
    detect_batch,
    parse_detector_output,
)
from surveyguard.errors import ProviderError
from surveyguard.gateway import DiskCache, ProviderGateway
from surveyguard.model import (
    QuestionKind,
    SurveyQuestion,
    SurveyResponse,
    SurveyStudy,
    VerdictFlag,
)
from surveyguard.providers import MockChatProvider

QUESTION = SurveyQuestion(question_id="q1", study_id="s1", text="Why do you use this app?")


def response(rid: str, text: str, qid: str = "q1") -> SurveyResponse:
    return SurveyResponse(response_id=rid, question_id=qid, text=text)


def make_gateway(tmp_path, chat) -> ProviderGateway:
    return ProviderGateway(cache=DiskCache(tmp_path / "cache"), chat_provider=chat, sleep=lambda _: None)


class TestPrompt:
    def test_response_transmitted_verbatim_inside_delimiters(self):
        r = response("r1", 'I "love" it.\nReally.')
        messages = build_detector_prompt(QUESTION, r)
        assert messages[0][0] == "system"
        assert "exactly one word" in messages[0][1]
        assert f"<<<\n{r.text}\n>>>" in messages[1][1]

    def test_same_question_differs_only_in_response_block(self):
        m1 = build_detector_prompt(QUESTION, response("r1", "first answer"))[1][1]
        m2 = build_detector_prompt(QUESTION, response("r2", "second answer"))[1][1]
        assert m1.replace("first answer", "X") == m2.replace("second answer", "X")

    def test_adversarial_token_transmitted_verbatim(self):
        r = response("r1", "The word HUMAN appears here.")
        assert "The word HUMAN appears here." in build_detector_prompt(QUESTION, r)[1][1]

    def test_empty_response_rejected(self):
        with pytest.raises(ValueError):
            build_detector_prompt(QUESTION, response("r1", ""))


# Canned provider outputs and their documented verdicts: canonical forms,
# verbose phrasings, hedges, and adversarial token placements.
PARSER_FIXTURES = [
    ("AI", VerdictFlag.AI),
    ("HUMAN", VerdictFlag.HUMAN),
    ("ai", VerdictFlag.AI),
    ("  Human  ", VerdictFlag.HUMAN),
    ("AI.", VerdictFlag.AI),
    ("HUMAN!", VerdictFlag.HUMAN),
    ("Answer: AI", VerdictFlag.AI),
    ("The verdict is HUMAN", VerdictFlag.HUMAN),
    ("This response appears to be AI-generated.", VerdictFlag.AI),
    ("I think this was written by a human being.", VerdictFlag.HUMAN),
    ("It was generated by an AI model, clearly.", VerdictFlag.AI),
    ("The text is ai-generated\nbecause of its tone.", VerdictFlag.AI),
    ("Classification: human-written", VerdictFlag.HUMAN),
    ("Hard to say.\nIt looks ai-generated to me.", VerdictFlag.AI),
    ("Unsure.\nCould be human-written or not.", VerdictFlag.HUMAN),
    ("humanity is doomed; answer: AI", VerdictFlag.AI),  # "humanity" is not the HUMAN token
    ("Maybe.", VerdictFlag.UNDETERMINED),
    ("", VerdictFlag.UNDETERMINED),
    ("AI or HUMAN", VerdictFlag.UNDETERMINED),  # both tokens, no fallback phrase
    ("Well...\nAI", VerdictFlag.UNDETERMINED),  # verdict token not on the first line
    ("It's an aid to humans", VerdictFlag.UNDETERMINED),  # "aid"/"humans" are not tokens
    ("The response says human but my answer is AI", VerdictFlag.UNDETERMINED),
    ("Possibly.\nIt reads ai-generated yet also human-written.", VerdictFlag.UNDETERMINED),
    ("Check.\nNeither phrase applies here.", VerdictFlag.UNDETERMINED),
]


class TestParser:
    @pytest.mark.parametrize("text,expected", PARSER_FIXTURES)
    def test_fixture_table(self, text, expected):
        assert parse_detector_output(text).flag == expected

    def test_fixture_table_covers_at_least_20_cases(self):
        assert len(PARSER_FIXTURES) >= 20

    def test_round_trip_of_canonical_contract_outputs(self):
        assert parse_detector_output("AI").flag == VerdictFlag.AI
        assert parse_detector_output("HUMAN").flag == VerdictFlag.HUMAN

    def test_undetermined_is_a_value_not_an_error(self):
        verdict = parse_detector_output("no clue")
        assert verdict.flag == VerdictFlag.UNDETERMINED
        assert verdict.detail == "unparseable"


def dataset_with_markers(marked: int, total: int) -> SurveyDataset:
    responses = []
    for i in range(total):
        text = f"Ordinary answer number {i}."
        if i < marked:
            text = f"As an AI assistant, answer number {i}."
        responses.append(response(f"r{i:02d}", text))
    return SurveyDataset(
        studies=(SurveyStudy(study_id="s1", label="One", collected_month_year="2021-06"),),
        questions=(QUESTION,),
        responses=tuple(responses),
    )


class TestDetectBatch:
    def test_marker_fixture_three_of_eight(self, tmp_path):
        gateway = make_gateway(tmp_path, MockChatProvider(seed=0))
        run = detect_batch(dataset_with_markers(3, 8), gateway, "gpt-4o")
        assert run["studies"][0]["percentage"]["rendered"] == "37.50"

    def test_two_of_ten(self, tmp_path):
        gateway = make_gateway(tmp_path, MockChatProvider(seed=0))
        run = detect_batch(dataset_with_markers(2, 10), gateway, "gpt-4o")
        assert run["studies"][0]["percentage"]["rendered"] == "20.00"

    def test_zero_ai_verdicts(self, tmp_path):
        gateway = make_gateway(tmp_path, MockChatProvider(seed=0))
        run = detect_batch(dataset_with_markers(0, 6), gateway, "gpt-4o")
        assert run["studies"][0]["percentage"]["rendered"] == "0.00"

    def test_empty_and_other_kind_responses_excluded(self, tmp_path):
        other_q = SurveyQuestion(question_id="q2", study_id="s1", text="Pick one", kind=QuestionKind.OTHER)
        ds = SurveyDataset(
            studies=(SurveyStudy(study_id="s1", label="One", collected_month_year="2021-06"),),
            questions=(QUESTION, other_q),
            responses=(
                response("r1", "As an AI assistant, sure."),
                response("r2", "   "),
                response("r3", "5", qid="q2"),
            ),
        )
        gateway = make_gateway(tmp_path, MockChatProvider(seed=0))
        run = detect_batch(ds, gateway, "gpt-4o")
        assert run["studies"][0]["percentage"]["den"] == 1
        assert run["studies"][0]["percentage"]["rendered"] == "100.00"

    def test_permutation_invariance(self, tmp_path):
        ds = dataset_with_markers(3, 8)
        shuffled = list(ds.responses)
        random.Random(1).shuffle(shuffled)
        ds_shuffled = SurveyDataset(studies=ds.studies, questions=ds.questions, responses=tuple(shuffled))
        g1 = make_gateway(tmp_path / "a", MockChatProvider(seed=0))
        g2 = make_gateway(tmp_path / "b", MockChatProvider(seed=0))
        run1 = detect_batch(ds, g1, "gpt-4o")
        run2 = detect_batch(ds_shuffled, g2, "gpt-4o")
        assert run1 == run2

    def test_repeated_answers_are_sent_once_even_when_calls_overlap(self, tmp_path):
        class SlowChat(StaticChatProvider):
            def complete(self, request):
                time.sleep(0.02)  # long enough for every worker to miss the cache at once
                return super().complete(request)

        texts = ["I like it.", "As an AI assistant, I like it.", "It is cheap."]
        ds = SurveyDataset(
            studies=(SurveyStudy(study_id="s1", label="One", collected_month_year="2021-06"),),
            questions=(QUESTION,),
            responses=tuple(response(f"r{i:02d}", texts[i % 3]) for i in range(30)),
        )
        provider = SlowChat("HUMAN")
        gateway = make_gateway(tmp_path, provider)
        run = detect_batch(ds, gateway, "gpt-4o")
        assert provider.calls == gateway.stats.provider_calls == 3
        assert gateway.stats.cache_hits == 27
        assert len(run["studies"][0]["verdicts"]) == 30

    def test_a_permanent_provider_failure_aborts_the_batch(self, tmp_path):
        class FailsOnMarker(MockChatProvider):
            def complete(self, request):
                if "As an AI assistant" in request.messages[-1][1]:
                    raise ProviderError("bad request", status=400)
                return super().complete(request)

        gateway = make_gateway(tmp_path, FailsOnMarker(seed=0))
        with pytest.raises(ProviderError, match="bad request"):
            detect_batch(dataset_with_markers(1, 4), gateway, "gpt-4o")
        assert len(cache_entries(gateway.cache.root)) == 3  # the other answers are cached for the rerun

    def test_warm_cache_reruns_with_zero_calls(self, tmp_path):
        ds = dataset_with_markers(2, 5)
        cache = DiskCache(tmp_path / "cache")
        g1 = ProviderGateway(cache=cache, chat_provider=MockChatProvider(seed=0), sleep=lambda _: None)
        run1 = detect_batch(ds, g1, "gpt-4o")
        g2 = ProviderGateway(cache=cache, chat_provider=MockChatProvider(seed=0), sleep=lambda _: None)
        run2 = detect_batch(ds, g2, "gpt-4o")
        assert g2.stats.provider_calls == 0
        assert run1 == run2

    def test_tolerant_mode_counts_undetermined_in_denominator_only(self, tmp_path):
        gateway = make_gateway(tmp_path, StaticChatProvider("Maybe."))
        run = detect_batch(dataset_with_markers(0, 4), gateway, "gpt-4o")
        pct = run["studies"][0]["percentage"]
        assert (pct["num"], pct["den"]) == (0, 4)

    def test_strict_mode_aborts_on_unparseable_output(self, tmp_path):
        gateway = make_gateway(tmp_path, StaticChatProvider("Maybe."))
        with pytest.raises(DetectorParseError, match="r00"):
            detect_batch(dataset_with_markers(0, 4), gateway, "gpt-4o", tolerate_parse_failures=False)

    def test_dump_shape(self, tmp_path):
        gateway = make_gateway(tmp_path, MockChatProvider(seed=0))
        dump = detect_batch(dataset_with_markers(1, 4), gateway, "gpt-4o")
        assert set(dump) == {"model_id", "temperature", "template_version", "tolerate_parse_failures", "studies"}
        study = dump["studies"][0]
        assert set(study) == {"study_id", "model_id", "template_version", "verdicts", "percentage"}
        assert {"response_id", "flag", "raw_text_digest"} == set(study["verdicts"][0])
        assert len(study["verdicts"][0]["raw_text_digest"]) == 64

    def test_detector_temperature_validated(self, tmp_path):
        provider = StaticChatProvider("HUMAN")
        with pytest.raises(ValueError, match=r"temperature must be in \[0, 1\], got 1.5"):
            detect_batch(dataset_with_markers(1, 4), make_gateway(tmp_path, provider), "m", temperature=1.5)
        assert provider.calls == 0


# Replies that repeat across a batch, two of them alike but for a newline; only the last one
# parses to no verdict.
REPLIES = ("AI", "AI\n", "HUMAN", "human", "This answer is AI-generated.", "Maybe.")


class ReplyByAnswer:
    """Replies REPLIES[k] to an answer that ends in "#k"."""

    provider_id = "reply-by-answer"

    def complete(self, request) -> str:
        return REPLIES[int(request.messages[-1][1].split("#")[1][0])]


def repeated_replies_dataset(seed: int) -> SurveyDataset:
    """Two studies of 30 distinct answers each, listed in seeded order, each with a seeded reply."""
    rng = random.Random(f"repeated replies {seed}")
    questions = (QUESTION, SurveyQuestion(question_id="q2", study_id="s2", text="Why did you stop?"))
    rids = [f"r{i:02d}" for i in range(60)]
    rng.shuffle(rids)
    responses = [
        response(rid, f"answer {rid} #{rng.randrange(len(REPLIES))}", qid=f"q{1 + i % 2}")
        for i, rid in enumerate(rids)
    ]
    return SurveyDataset(
        studies=(
            SurveyStudy(study_id="s1", label="One", collected_month_year="2021-06"),
            SurveyStudy(study_id="s2", label="Two", collected_month_year="2023-06"),
        ),
        questions=questions,
        responses=tuple(responses),
    )


class TestRepeatedReplies:
    @pytest.mark.parametrize("seed", range(3))
    def test_each_distinct_reply_is_parsed_once_into_its_verdicts(self, tmp_path, monkeypatch, seed):
        ds = repeated_replies_dataset(seed)
        study_of = {q.question_id: q.study_id for q in ds.questions}
        tasks = sorted((study_of[r.question_id], r.response_id, r.text) for r in ds.responses)
        replies = [REPLIES[int(text.split("#")[1])] for _, _, text in tasks]
        assert len(set(replies)) == len(REPLIES) < len(replies)
        expected: dict[str, list[dict]] = {}
        for (study_id, rid, _), reply in zip(tasks, replies):
            expected.setdefault(study_id, []).append({
                "response_id": rid,
                "flag": parse_detector_output(reply).flag.value,
                "raw_text_digest": hashlib.sha256(reply.encode("utf-8")).hexdigest(),
            })
        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_detector_output(text)

        monkeypatch.setattr(detector_module, "parse_detector_output", counted)
        dump = detect_batch(ds, make_gateway(tmp_path, ReplyByAnswer()), "gpt-4o")
        assert {study["study_id"]: study["verdicts"] for study in dump["studies"]} == expected
        assert sorted(parsed) == sorted(REPLIES)

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_mode_names_the_first_unparseable_response_in_task_order(self, tmp_path, seed):
        ds = repeated_replies_dataset(seed)
        study_of = {q.question_id: q.study_id for q in ds.questions}
        task_order = sorted(ds.responses, key=lambda r: (study_of[r.question_id], r.response_id))
        ds = SurveyDataset(studies=ds.studies, questions=ds.questions, responses=tuple(reversed(task_order)))
        unparseable = [r for r in task_order if r.text.endswith(f"#{len(REPLIES) - 1}")]
        first = unparseable[0]
        assert len(unparseable) > 1  # so the dataset lists another one first
        with pytest.raises(DetectorParseError) as raised:
            detect_batch(ds, make_gateway(tmp_path, ReplyByAnswer()), "gpt-4o", tolerate_parse_failures=False)
        assert str(raised.value) == f'unparseable detector output for response "{first.response_id}"'


def test_detect_batch_returns_the_dump_it_is_written_as(tmp_path, corpus_path):
    args = ["--dataset", str(corpus_path), "--cache-dir", str(tmp_path / "cache"), "--mock"]
    assert main(["detect-llm", *args, "--output-dir", str(tmp_path / "out")]) == 0
    written = json.loads((tmp_path / "out" / "detector_gpt-3.5-turbo.json").read_text(encoding="utf-8"))
    assert written["cohort_comparison"]
    cfg = resolve_config(None, {"mock": True, "cache_dir": str(tmp_path / "cache")})
    assert detect_batch(load_dataset(corpus_path), build_gateway(cfg), cfg.detector_model) == written
