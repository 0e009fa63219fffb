import hashlib
import json

import numpy as np
import pytest

from surveyguard import providers
from surveyguard.errors import ConfigError, DataError, ProviderError, TransientProviderError
from surveyguard.gateway import (
    EMBED_BATCH,
    ChatRequest,
    DiskCache,
    EmbeddingVector,
    ProviderGateway,
    PurposeTag,
    build_cache_key,
    embed_key_material,
)
from surveyguard.providers import (
    MockChatProvider,
    MockEmbeddingProvider,
    OpenAICompatEmbeddingProvider,
    StaticChatProvider,
)


def chat_request(temperature=0.5, text="Why?", model="gpt-4o") -> ChatRequest:
    return ChatRequest(
        model_id=model,
        temperature=temperature,
        messages=(("user", text),),
        purpose=PurposeTag.GENERATE_SIGNATURE,
    )


def make_gateway(tmp_path, chat=None, embed=None, **kwargs) -> ProviderGateway:
    return ProviderGateway(
        cache=DiskCache(tmp_path / "cache"),
        chat_provider=chat,
        embedding_provider=embed,
        sleep=lambda _: None,
        **kwargs,
    )


class TestChatRequest:
    def test_temperature_out_of_range_rejected_before_any_call(self):
        with pytest.raises(ValueError, match="temperature"):
            chat_request(temperature=1.5)

    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError, match="messages"):
            ChatRequest(model_id="m", temperature=0.0, messages=(), purpose=PurposeTag.DETECT)


class TestCacheKey:
    def test_identical_requests_identical_digests(self):
        a = build_cache_key(chat_request(), "prov")
        b = build_cache_key(chat_request(), "prov")
        assert a == b

    def test_temperature_changes_digest(self):
        a = build_cache_key(chat_request(temperature=0.25), "prov")
        b = build_cache_key(chat_request(temperature=0.5), "prov")
        assert a != b

    def test_digest_is_64_hex_chars(self):
        digest = build_cache_key(chat_request(), "prov").digest
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_provider_and_text_feed_embed_keys(self):
        assert build_cache_key("hello", "p1") != build_cache_key("hello", "p2")
        assert build_cache_key("hello", "p1") != build_cache_key("world", "p1")

    def test_message_change_changes_digest(self):
        # a template bump rewrites the message text, so old cache entries never match
        v1 = chat_request(text="Answer plainly.\n\nWhy?")
        v2 = chat_request(text="Answer briefly.\n\nWhy?")
        assert build_cache_key(v1, "prov") != build_cache_key(v2, "prov")


class TestChatCaching:
    def test_second_identical_request_is_cached_with_zero_calls(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        first = gateway.chat(chat_request())
        assert first.cached is False
        assert gateway.stats.provider_calls == 1
        second = gateway.chat(chat_request())
        assert second.cached is True
        assert second.text == first.text
        assert gateway.stats.provider_calls == 1

    def test_canned_provider_passthrough(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=StaticChatProvider("AI"))
        assert gateway.chat(chat_request()).text == "AI"

    def test_warm_cache_across_gateway_instances(self, tmp_path):
        first = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        text = first.chat(chat_request()).text
        warm = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        result = warm.chat(chat_request())
        assert result.cached is True
        assert result.text == text
        assert warm.stats.provider_calls == 0

    def test_no_chat_provider_configured(self, tmp_path):
        gateway = make_gateway(tmp_path)
        with pytest.raises(ConfigError, match="no chat provider"):
            gateway.chat(chat_request())

    def test_cache_entry_contains_request_material(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        request = chat_request()
        gateway.chat(request)
        key = build_cache_key(request, "mock-chat-0")
        entry = json.loads(gateway.cache.path_for(key).read_text(encoding="utf-8"))
        assert entry["request"]["messages"] == [["user", "Why?"]]
        assert entry["request"]["temperature"] == 0.5
        assert "text" in entry["response"]


class TestEmbedding:
    def test_same_text_same_vector(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=8))
        assert gateway.embed("hello world") == gateway.embed("hello world")

    def test_different_texts_differ_in_at_least_one_coordinate(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=8))
        a = gateway.embed("hello world")
        b = gateway.embed("goodbye world")
        assert any(x != y for x, y in zip(a.values, b.values))

    def test_mock_matches_documented_hash_construction(self, tmp_path):
        # independent re-implementation of the documented construction
        def expected(seed: int, dim: int, text: str) -> list[float]:
            out = []
            for i in range(dim):
                material = f"{seed}|{i}|{text}".encode("utf-8")
                u = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
                out.append(u / 2.0**64 * 2.0 - 1.0)
            return out

        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=7, dim=5))
        vector = gateway.embed("sample text")
        assert list(vector.values) == expected(7, 5, "sample text")

    def test_empty_text_rejected(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=4))
        with pytest.raises(DataError, match="empty text"):
            gateway.embed("   \n ")

    def test_dimension_drift_is_fatal(self, tmp_path):
        class DriftingProvider:
            provider_id = "drifty"

            def __init__(self):
                self.n = 0

            def embed_many(self, texts):
                self.n += 1
                return [[0.1] * (4 if self.n == 1 else 5) for _ in texts]

        gateway = make_gateway(tmp_path, embed=DriftingProvider())
        gateway.embed("first")
        with pytest.raises(ConfigError, match="dimension drift"):
            gateway.embed("second")

    def test_vector_invariants(self):
        v = EmbeddingVector(values=(0.5, -0.5), provider_id="p", dim=2)
        assert v.dim == len(v.values)
        with pytest.raises(ValueError):
            EmbeddingVector(values=(0.5,), provider_id="p", dim=2)
        with pytest.raises(ValueError):
            EmbeddingVector(values=(float("nan"),), provider_id="p", dim=1)

    def test_vector_values_are_a_read_only_copy(self):
        source = np.array([0.5, -0.5])
        v = EmbeddingVector(values=source, provider_id="p", dim=2)
        source[0] = 9.0
        assert v.values.dtype == np.float64 and v.values.tolist() == [0.5, -0.5]
        with pytest.raises(ValueError, match="read-only"):
            v.values[0] = 1.0

    def test_vector_equality(self):
        v = EmbeddingVector(values=[0.5, -0.5], provider_id="p", dim=2)
        assert v == EmbeddingVector(values=(0.5, -0.5), provider_id="p", dim=2)
        assert v != EmbeddingVector(values=(0.5, 0.5), provider_id="p", dim=2)
        assert v != EmbeddingVector(values=(0.5, -0.5), provider_id="q", dim=2)
        assert v != (0.5, -0.5)

    @pytest.mark.parametrize(
        "values, dim",
        [((0.5, float("nan")), 2), ((float("inf"),), 1), ((0.5, 0.5), 3), (((0.5, 0.5),), 1)],
        ids=["nan", "inf", "wrong-dim", "not-1d"],
    )
    def test_vector_rejects_non_finite_values_and_a_wrong_dim(self, values, dim):
        with pytest.raises(ValueError):
            EmbeddingVector(values=values, provider_id="p", dim=dim)



class RecordingEmbeddingProvider:
    """Mock vectors; records each request's texts and can misbehave on demand."""

    def __init__(self, dim=4, drop_last=False, transient_failures=0):
        self.mock = MockEmbeddingProvider(seed=0, dim=dim)
        self.provider_id = self.mock.provider_id
        self.drop_last = drop_last
        self.transient_failures = transient_failures
        self.requests: list[list[str]] = []

    def embed_many(self, texts):
        self.requests.append(list(texts))
        if len(self.requests) <= self.transient_failures:
            raise TransientProviderError("rate limited", status=429)
        vectors = self.mock.embed_many(texts)
        return vectors[:-1] if self.drop_last else vectors


class TestEmbedMany:
    def test_input_order_is_kept_with_duplicates(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        texts = ["b", "a", "b", "c", "a"]
        vectors = gateway.embed_many(texts)
        assert [list(v.values) for v in vectors] == [provider.mock.embed(t) for t in texts]
        assert provider.requests == [["b", "a", "c"]]
        assert gateway.stats.provider_calls == 1
        assert (gateway.stats.cache_misses, gateway.stats.cache_hits) == (3, 2)

    def test_one_more_miss_than_a_batch_makes_two_provider_calls(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        gateway.embed_many([f"text {i}" for i in range(EMBED_BATCH + 1)])
        assert gateway.stats.provider_calls == 2
        assert [len(texts) for texts in provider.requests] == [EMBED_BATCH, 1]
        assert gateway.cache.entry_count() == EMBED_BATCH + 1

    def test_batch_is_retried_as_a_unit(self, tmp_path):
        provider = RecordingEmbeddingProvider(transient_failures=1)
        gateway = make_gateway(tmp_path, embed=provider)
        gateway.embed_many(["a", "b"])
        assert provider.requests == [["a", "b"], ["a", "b"]]
        assert gateway.stats.provider_calls == 2

    def test_wrong_vector_count_raises_and_stores_nothing(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=RecordingEmbeddingProvider(drop_last=True))
        with pytest.raises(ProviderError, match="2 vectors for 3 texts"):
            gateway.embed_many(["a", "b", "c"])
        assert gateway.cache.entry_count() == 0

    def test_empty_text_rejected_before_any_call(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        with pytest.raises(DataError, match="empty text"):
            gateway.embed_many(["fine", " \n"])
        assert provider.requests == []
        assert gateway.stats.provider_calls == 0

    def test_embed_and_embed_many_share_cache_entries(self, tmp_path):
        cold = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=4))
        single = cold.embed("one")
        batch = cold.embed_many(["two", "three"])
        warm = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=4))
        assert warm.embed_many(["one"]) == [single]
        assert [warm.embed("two"), warm.embed("three")] == batch
        assert warm.stats.provider_calls == 0


class TestOpenAIEmbeddingAdapter:
    """Offline: the HTTP call is replaced, so only request shape and parsing run."""

    def adapter(self, monkeypatch, items):
        sent = []

        def fake_post(url, payload, api_key, timeout):
            sent.append((url, payload))
            return {"data": items}

        monkeypatch.setattr(providers, "_post_json", fake_post)
        monkeypatch.setenv("SURVEYGUARD_TEST_KEY", "secret")
        adapter = OpenAICompatEmbeddingProvider(
            model="m", base_url="http://embeddings.test/v1", api_key_env="SURVEYGUARD_TEST_KEY"
        )
        return adapter, sent

    def test_sends_list_input_and_orders_by_index(self, monkeypatch):
        items = [
            {"index": 2, "embedding": [2.0]},
            {"index": 0, "embedding": [0.0]},
            {"index": 1, "embedding": [1.0]},
        ]
        adapter, sent = self.adapter(monkeypatch, items)
        assert adapter.embed_many(["a", "b", "c"]) == [[0.0], [1.0], [2.0]]
        assert sent == [("http://embeddings.test/v1/embeddings", {"model": "m", "input": ["a", "b", "c"]})]

    def test_single_embed_uses_the_same_request(self, monkeypatch):
        adapter, sent = self.adapter(monkeypatch, [{"index": 0, "embedding": [0.5, -0.25]}])
        assert adapter.embed("a") == [0.5, -0.25]
        assert sent[0][1]["input"] == ["a"]

    @pytest.mark.parametrize(
        "items",
        [
            [{"index": 0, "embedding": [0.0]}],
            [{"index": 0, "embedding": [0.0]}, {"index": 0, "embedding": [1.0]}],
            [{"embedding": [0.0]}, {"embedding": [1.0]}],
        ],
        ids=["short", "repeated-index", "no-index"],
    )
    def test_mismatched_data_is_a_provider_error(self, monkeypatch, items):
        adapter, _ = self.adapter(monkeypatch, items)
        with pytest.raises(ProviderError):
            adapter.embed_many(["a", "b"])


class FlakyChatProvider:
    provider_id = "flaky"

    def __init__(self, fail_times: int, transient: bool = True):
        self.fail_times = fail_times
        self.transient = transient
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.fail_times:
            if self.transient:
                raise TransientProviderError("rate limited", status=429)
            raise ProviderError("bad request", status=400)
        return "recovered"


class TestRetries:
    def test_transient_failures_then_success(self, tmp_path):
        provider = FlakyChatProvider(fail_times=2)
        gateway = make_gateway(tmp_path, chat=provider)
        assert gateway.chat(chat_request()).text == "recovered"
        assert provider.calls == 3
        assert gateway.stats.provider_calls == 3

    def test_exhausted_retries_raise_typed_failure(self, tmp_path):
        provider = FlakyChatProvider(fail_times=10)
        gateway = make_gateway(tmp_path, chat=provider)
        with pytest.raises(ProviderError) as excinfo:
            gateway.chat(chat_request())
        assert excinfo.value.attempts == 3
        assert excinfo.value.status == 429
        assert provider.calls == 3

    def test_non_transient_error_fails_immediately(self, tmp_path):
        provider = FlakyChatProvider(fail_times=10, transient=False)
        gateway = make_gateway(tmp_path, chat=provider)
        with pytest.raises(ProviderError):
            gateway.chat(chat_request())
        assert provider.calls == 1

    def test_failed_calls_store_nothing(self, tmp_path):
        provider = FlakyChatProvider(fail_times=10)
        gateway = make_gateway(tmp_path, chat=provider)
        with pytest.raises(ProviderError):
            gateway.chat(chat_request())
        assert gateway.cache.entry_count() == 0


class TestDiskCache:
    def test_store_is_at_most_once_per_key(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        key = build_cache_key("text", "prov")
        assert cache.store(key, {"response": {"values": [1.0]}}) is True
        assert cache.store(key, {"response": {"values": [2.0]}}) is False
        assert cache.load(key) == {"response": {"values": [1.0]}}

    def test_entry_count_ignores_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.store(build_cache_key("a", "p"), {"x": 1})
        (cache.root / ".tmp-leftover").write_text("x", encoding="utf-8")
        assert cache.entry_count() == 1

    def test_entries_are_compact_and_pretty_printed_ones_still_hit(self, tmp_path):
        provider_id = "mock-embed-0-d4"
        values = MockEmbeddingProvider(seed=0, dim=4).embed("legacy")
        cache = DiskCache(tmp_path / "cache")
        legacy = {
            "request": embed_key_material("legacy", provider_id),
            "response": {"values": values, "dim": 4},
            "stored_at": "2024-01-01T00:00:00+00:00",
        }
        cache.path_for(build_cache_key("legacy", provider_id)).write_text(
            json.dumps(legacy, sort_keys=True, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        assert list(gateway.embed("legacy").values) == values
        assert gateway.stats.provider_calls == 0

        gateway.embed("fresh")
        stored = cache.path_for(build_cache_key("fresh", provider_id)).read_text(encoding="utf-8")
        assert stored.count("\n") == 1 and stored.endswith("\n")
