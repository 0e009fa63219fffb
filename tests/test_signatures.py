import json
import re
import shutil
from itertools import product

import pytest

from conftest import FIXTURE_CORPUS, StaticChatProvider, cache_entries, entry_request
from surveyguard.cli import main
from surveyguard.errors import DataError, ProviderError
from surveyguard.gateway import DiskCache, ProviderGateway, build_cache_key, canonical_json
from surveyguard.model import SurveyQuestion
from surveyguard.providers import MockChatProvider, MockEmbeddingProvider
from surveyguard.signatures import (
    SENTIMENT_TEMPLATE,
    Sentiment,
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



class TestGridSizes:
    def test_default_basic_grid_yields_20(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.BASIC, MODELS, TEMPS, gateway)
        assert len(result["signatures"]) == 20
        assert result["failures"] == []

    def test_minimal_grid_yields_1(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.BASIC, ["gpt-4"], [0.0], gateway)
        assert len(result["signatures"]) == 1

    def test_sentiment_grid_yields_60_by_enumeration(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(QUESTION, StrategyKind.SENTIMENT, MODELS, TEMPS, gateway)
        expected = len(list(product(MODELS, TEMPS, list(Sentiment))))
        assert expected == 60
        assert len(result["signatures"]) == expected

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
        assert len(result["signatures"]) == 1
        assert len(result["failures"]) == 1
        assert result["failures"][0]["error"] == "empty completion"

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
    def sig(self, sid, model, temp, text):
        return {"signature_id": sid, "model_id": model, "temperature": temp, "sentiment": None, "text": text}

    def build_set(self, signatures):
        return {
            "question_id": "q1",
            "strategy": "basic",
            "template_version": "sig-v1",
            "grid": {"models": ["m1", "m2"], "temperatures": [0.0, 0.5], "sentiments": []},
            "signatures": signatures,
            "failures": [],
            "duplicates_removed": 0,
        }

    def test_identical_texts_merge_keeping_smallest_key(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m2|t0", "m2", 0.0, "I use it daily."),
                self.sig("q1|basic|m1|t0.5", "m1", 0.5, "I use it daily."),
            ]
        )
        deduped = dedupe_signatures(s)
        assert len(deduped["signatures"]) == 1
        assert deduped["duplicates_removed"] == 1
        assert deduped["signatures"][0]["model_id"] == "m1"

    def test_all_distinct_unchanged(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m1|t0", "m1", 0.0, "alpha"),
                self.sig("q1|basic|m2|t0", "m2", 0.0, "beta"),
            ]
        )
        deduped = dedupe_signatures(s)
        assert deduped["signatures"] == s["signatures"]
        assert deduped["duplicates_removed"] == 0

    def test_trailing_newline_merges(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m1|t0", "m1", 0.0, "same words"),
                self.sig("q1|basic|m2|t0", "m2", 0.0, "same words\n"),
            ]
        )
        assert len(dedupe_signatures(s)["signatures"]) == 1

    def test_internal_whitespace_collapse_merges(self):
        s = self.build_set(
            [
                self.sig("q1|basic|m1|t0", "m1", 0.0, "same  words"),
                self.sig("q1|basic|m2|t0", "m2", 0.0, "same words"),
            ]
        )
        assert len(dedupe_signatures(s)["signatures"]) == 1


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
        for sig in result["signatures"]:
            request = build_signature_request(
                QUESTION, sig["model_id"], sig["temperature"], Sentiment(sig["sentiment"])
            )
            key = build_cache_key(request, gateway.chat_provider.provider_id)[0]
            entry = cache_entries(gateway.cache.root)[key.hex()]
            assert entry_request(entry)["messages"] == [list(m) for m in request.messages]
            assert entry.partition(b"\n")[2].decode("utf-8") == sig["text"]

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_save_load_round_trip(self, tmp_path, kind):
        gateway = make_gateway(tmp_path, chat=StaticChatProvider("Identical answer."))
        result = dedupe_signatures(generate_signatures(QUESTION, kind, ["m1", "m2"], [0.0], gateway))
        assert result["duplicates_removed"] > 0
        path = save_signature_set(result, tmp_path / "store")
        assert load_signature_set(tmp_path / "store", kind, "q1") == result
        assert path.read_text(encoding="utf-8") == canonical_json(result) + "\n"

    def test_signatures_sorted_by_model_temperature_sentiment(self, tmp_path):
        gateway = make_gateway(tmp_path)
        result = generate_signatures(
            QUESTION, StrategyKind.SENTIMENT, ["m2", "m1"], [0.5, 0.0], gateway
        )
        keys = [(s["model_id"], s["temperature"], s["sentiment"]) for s in result["signatures"]]
        assert keys == sorted(keys)

    def test_store_filename_sanitized_for_odd_ids(self, tmp_path):
        path = signature_store_path(tmp_path, StrategyKind.BASIC, "weird id/with:stuff")
        assert path.name.startswith("q-")
        assert path.name.endswith(".json")

    def test_forced_duplicates_dedupe_to_one(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=StaticChatProvider("Identical answer."))
        result = generate_signatures(QUESTION, StrategyKind.BASIC, MODELS, TEMPS, gateway)
        assert len(result["signatures"]) == 20
        deduped = dedupe_signatures(result)
        assert len(deduped["signatures"]) == 1
        assert deduped["duplicates_removed"] == 19


def _first_row(**changes):
    """A store edit: the first signature row with changes applied."""
    return lambda store: {**store, "signatures": [{**store["signatures"][0], **changes}, *store["signatures"][1:]]}


# name: (strategy, edit returning the bad store's JSON value)
BAD_STORES = {
    "basic store with a sentiment row": ("basic", _first_row(sentiment="positive")),
    "sentiment row without a sentiment": ("sentiment", _first_row(sentiment=None)),
    "empty text": ("basic", _first_row(text="")),
    "duplicate grid cell": (
        "basic",
        lambda store: {**store, "signatures": [*store["signatures"], {**store["signatures"][0], "signature_id": "dup"}]},
    ),
    "temperature not a number": ("basic", _first_row(temperature="x")),
    "no template_version": ("basic", lambda store: {k: v for k, v in store.items() if k != "template_version"}),
    "unknown grid sentiment": ("sentiment", lambda store: {**store, "grid": {**store["grid"], "sentiments": ["angry"]}}),
    "duplicates_removed not a number": ("basic", lambda store: {**store, "duplicates_removed": "x"}),
    "top level is an array": ("basic", lambda store: [store]),
    "failure row without error": (
        "basic",
        lambda store: {**store, "failures": [{"model_id": "m", "temperature": 0.0, "sentiment": None}]},
    ),
}


@pytest.fixture(scope="module")
def generated_run(tmp_path_factory):
    """An output directory holding basic and sentiment stores for the fixture corpus."""
    root = tmp_path_factory.mktemp("stores")
    for strategy in ("basic", "sentiment"):
        code = main([
            "gen-signatures", "--strategy", strategy, "--models", "gpt-4o", "--temps", "0,0.5",
            "--dataset", str(FIXTURE_CORPUS), "--cache-dir", str(root / "cache"),
            "--output-dir", str(root / "out"), "--mock",
        ])
        assert code == 0
    return root


def _score(root, out_dir, strategy) -> int:
    return main([
        "score", "--strategy", strategy, "--dataset", str(FIXTURE_CORPUS),
        "--cache-dir", str(root / "cache"), "--output-dir", str(out_dir), "--mock",
    ])


@pytest.mark.parametrize("case", sorted(BAD_STORES))
def test_bad_signature_store_is_a_data_error_naming_the_file(case, generated_run, tmp_path, capsys):
    strategy, edit = BAD_STORES[case]
    out_dir = tmp_path / "out"
    shutil.copytree(generated_run / "out", out_dir)
    kind = StrategyKind(strategy)
    path = signature_store_path(out_dir / "signatures", kind, "q1")
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")

    with pytest.raises(DataError, match=re.escape(str(path))):
        load_signature_set(out_dir / "signatures", kind, "q1")
    capsys.readouterr()
    assert _score(generated_run, out_dir, strategy) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "copied_from",
    [(StrategyKind.SENTIMENT, "q2"), (StrategyKind.BASIC, "q1")],
    ids=["another strategy", "another question"],
)
def test_a_store_in_another_store_s_place_is_a_data_error_before_any_call(
    copied_from, generated_run, tmp_path, capsys, monkeypatch
):
    out_dir = tmp_path / "out"
    shutil.copytree(generated_run / "out", out_dir)
    path = signature_store_path(out_dir / "signatures", StrategyKind.BASIC, "q2")
    shutil.copyfile(signature_store_path(out_dir / "signatures", *copied_from), path)
    requests = []
    monkeypatch.setattr(MockEmbeddingProvider, "embed_many", lambda self, texts: requests.append(texts))
    code = main([
        "score", "--strategy", "basic", "--dataset", str(FIXTURE_CORPUS),
        "--cache-dir", str(tmp_path / "cache"), "--output-dir", str(out_dir), "--mock",
    ])
    assert code == 2
    assert str(path) in capsys.readouterr().err
    assert requests == []  # every store is loaded before the first embedding request


def test_legacy_store_without_failures_or_duplicates_removed_loads(generated_run, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(generated_run / "out", out_dir)
    for kind in StrategyKind:
        path = signature_store_path(out_dir / "signatures", kind, "q1")
        store = json.loads(path.read_text(encoding="utf-8"))
        del store["failures"], store["duplicates_removed"]
        path.write_text(json.dumps(store), encoding="utf-8")
        assert _score(generated_run, out_dir, kind.value) == 0


def test_missing_store_is_a_data_error_naming_the_question(tmp_path):
    with pytest.raises(DataError, match='no signature store for question "q1"'):
        load_signature_set(tmp_path, StrategyKind.BASIC, "q1")
