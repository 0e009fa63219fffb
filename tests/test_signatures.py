import json
from itertools import product

import pytest

from conftest import StaticChatProvider, cache_entries
from surveyguard.errors import ProviderError
from surveyguard.gateway import DiskCache, ProviderGateway, build_cache_key
from surveyguard.model import SurveyQuestion
from surveyguard.providers import MockChatProvider
from surveyguard.signatures import (
    SENTIMENT_TEMPLATE,
    PromptStrategy,
    Sentiment,
    Signature,
    SignatureGenerationError,
    StrategyKind,
    build_basic_prompt,
    build_sentiment_prompt,
    build_signature_request,
    dedupe_signatures,
    generate_signatures,
    load_signature_set,
    save_signature_set,
    signature_store_path,
)

QUESTION = SurveyQuestion(question_id="q1", study_id="s1", text="Why do you use this app?")
MODELS = ["gpt-3.5-turbo", "gpt-4", "gpt-4o", "gpt-4o-mini"]
TEMPS = [0.0, 0.25, 0.5, 0.75, 1.0]


def make_gateway(tmp_path, chat=None) -> ProviderGateway:
    return ProviderGateway(
        cache=DiskCache(tmp_path / "cache"),
        chat_provider=chat or MockChatProvider(seed=0),
        sleep=lambda _: None,
    )


class TestPromptBuilders:
    def test_basic_prompt_is_single_verbatim_user_message(self):
        messages = build_basic_prompt(QUESTION)
        assert messages == (("user", "Why do you use this app?"),)

    def test_basic_prompt_preserves_whitespace(self):
        q = SurveyQuestion(question_id="q2", study_id="s1", text="  padded question  ")
        assert build_basic_prompt(q) == (("user", "  padded question  "),)

    def test_basic_prompt_leaves_quotes_and_newlines_unescaped(self):
        text = 'Line "one"\nline two?'
        q = SurveyQuestion(question_id="q3", study_id="s1", text=text)
        assert build_basic_prompt(q)[0][1] == text

    def test_sentiment_prompt_contains_word_and_question(self):
        messages = build_sentiment_prompt(QUESTION, Sentiment.POSITIVE)
        assert len(messages) == 1
        role, text = messages[0]
        assert role == "user"
        assert "positive" in text
        assert "Why do you use this app?" in text
        assert text == SENTIMENT_TEMPLATE.format(sentiment="positive", question=QUESTION.text)

    def test_sentiment_variants_differ_only_in_sentiment_word(self):
        negative = build_sentiment_prompt(QUESTION, Sentiment.NEGATIVE)[0][1]
        neutral = build_sentiment_prompt(QUESTION, Sentiment.NEUTRAL)[0][1]
        assert negative.replace("negative", "{s}") == neutral.replace("neutral", "{s}")

    def test_strategy_invariant(self):
        with pytest.raises(ValueError):
            PromptStrategy(kind=StrategyKind.SENTIMENT)
        with pytest.raises(ValueError):
            PromptStrategy(kind=StrategyKind.BASIC, sentiment=Sentiment.POSITIVE)


class TestGridSizes:
    def test_default_basic_grid_yields_20(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.BASIC, MODELS, TEMPS, gateway)
        assert len(result.signatures) == 20
        assert result.failures == ()

    def test_minimal_grid_yields_1(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.BASIC, ["gpt-4"], [0.0], gateway)
        assert len(result.signatures) == 1

    def test_sentiment_grid_yields_60_by_enumeration(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.SENTIMENT, MODELS, TEMPS, gateway)
        expected = len(list(product(MODELS, TEMPS, list(Sentiment))))
        assert expected == 60
        assert len(result.signatures) == expected

    def test_empty_grid_rejected(self, tmp_path):
        gateway = make_gateway(tmp_path)
        with pytest.raises(ValueError):
            generate_signatures(QUESTION, StrategyKind.BASIC, [], TEMPS, gateway)


class TestGenerationFailures:
    def test_empty_completion_recorded_as_failure(self, tmp_path):
        class MostlyEmpty:
            provider_id = "mostly-empty"

            def complete(self, request):
                return "answer" if request.temperature == 0.0 else "   "

        gateway = make_gateway(tmp_path, chat=MostlyEmpty())
        # 2 of 4 cells empty: not a majority, so the set survives with failures
        result = generate_signatures(
            QUESTION, StrategyKind.BASIC, ["m1"], [0.0, 0.25], gateway
        )
        assert len(result.signatures) == 1
        assert len(result.failures) == 1
        assert result.failures[0].error == "empty completion"

    def test_majority_failure_aborts_question(self, tmp_path):
        class MostlyBroken:
            provider_id = "mostly-broken"

            def complete(self, request):
                if request.temperature > 0.0:
                    raise ProviderError("boom", status=500)
                return "fine"

        gateway = make_gateway(tmp_path, chat=MostlyBroken())
        with pytest.raises(SignatureGenerationError, match="q1"):
            generate_signatures(QUESTION, StrategyKind.BASIC, ["m1"], TEMPS, gateway)


class TestDedupe:
    def sig(self, sid, model, temp, text, sentiment=None):
        strategy = (
            PromptStrategy(kind=StrategyKind.SENTIMENT, sentiment=sentiment)
            if sentiment
            else PromptStrategy(kind=StrategyKind.BASIC)
        )
        return Signature(
            signature_id=sid,
            question_id="q1",
            strategy=strategy,
            model_id=model,
            temperature=temp,
            text=text,
        )

    def build_set(self, signatures):
        from surveyguard.signatures import GridDescriptor, SignatureSet

        return SignatureSet(
            question_id="q1",
            strategy_kind=StrategyKind.BASIC,
            signatures=tuple(signatures),
            grid=GridDescriptor(models=("m1", "m2"), temperatures=(0.0, 0.5), sentiments=()),
        )

    def test_identical_texts_merge_keeping_smallest_key(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m2|t0", "m2", 0.0, "I use it daily."),
                self.sig("q1|basic|m1|t0.5", "m1", 0.5, "I use it daily."),
            ]
        )
        deduped = dedupe_signatures(s)
        assert len(deduped.signatures) == 1
        assert deduped.duplicates_removed == 1
        assert deduped.signatures[0].model_id == "m1"

    def test_all_distinct_unchanged(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m1|t0", "m1", 0.0, "alpha"),
                self.sig("q1|basic|m2|t0", "m2", 0.0, "beta"),
            ]
        )
        deduped = dedupe_signatures(s)
        assert deduped.signatures == s.signatures
        assert deduped.duplicates_removed == 0

    def test_trailing_newline_merges(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m1|t0", "m1", 0.0, "same words"),
                self.sig("q1|basic|m2|t0", "m2", 0.0, "same words\n"),
            ]
        )
        assert len(dedupe_signatures(s).signatures) == 1

    def test_internal_whitespace_collapse_merges(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m1|t0", "m1", 0.0, "same  words"),
                self.sig("q1|basic|m2|t0", "m2", 0.0, "same words"),
            ]
        )
        assert len(dedupe_signatures(s).signatures) == 1


class TestDeterminismAndStore:
    def test_warm_cache_regeneration_is_byte_identical(self, tmp_path):
        cache_dir = tmp_path / "shared-cache"

        def run(out_name):
            gateway = ProviderGateway(
                cache=DiskCache(cache_dir), chat_provider=MockChatProvider(seed=0), sleep=lambda _: None
            )
            result = generate_signatures(QUESTION, StrategyKind.BASIC, MODELS, TEMPS, gateway)
            path = save_signature_set(result, tmp_path / out_name)
            return path.read_bytes(), gateway.stats.provider_calls

        first_bytes, first_calls = run("first")
        second_bytes, second_calls = run("second")
        assert first_bytes == second_bytes
        assert first_calls == 20
        assert second_calls == 0

    def test_replaying_recorded_cells_reproduces_cached_requests(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.SENTIMENT, ["m1"], [0.0, 0.5], gateway)
        for sig in result.signatures:
            request = build_signature_request(
                QUESTION, sig.model_id, sig.temperature, sig.strategy.sentiment
            )
            key = build_cache_key(request, gateway.chat_provider.provider_id)
            entry = json.loads(cache_entries(gateway.cache.root)[key.digest])
            assert entry["request"]["messages"] == [list(m) for m in request.messages]
            assert entry["response"]["text"] == sig.text

    def test_save_load_round_trip(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.BASIC, ["m1", "m2"], [0.0], gateway)
        result = dedupe_signatures(result)
        save_signature_set(result, tmp_path / "store")
        loaded = load_signature_set(tmp_path / "store", StrategyKind.BASIC, "q1")
        assert loaded.signatures == result.signatures
        assert loaded.grid == result.grid
        assert loaded.template_version == result.template_version
        assert loaded.duplicates_removed == result.duplicates_removed

    def test_signatures_sorted_by_model_temperature_sentiment(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(
            QUESTION, StrategyKind.SENTIMENT, ["m2", "m1"], [0.5, 0.0], gateway
        )
        keys = [s.sort_key for s in result.signatures]
        assert keys == sorted(keys)

    def test_store_filename_sanitized_for_odd_ids(self, tmp_path):
        path = signature_store_path(tmp_path, StrategyKind.BASIC, "weird id/with:stuff")
        assert path.name.startswith("q-")
        assert path.name.endswith(".json")

    def test_forced_duplicates_dedupe_to_one(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=StaticChatProvider("Identical answer."))
        result = generate_signatures(QUESTION, StrategyKind.BASIC, MODELS, TEMPS, gateway)
        assert len(result.signatures) == 20
        deduped = dedupe_signatures(result)
        assert len(deduped.signatures) == 1
        assert deduped.duplicates_removed == 19
