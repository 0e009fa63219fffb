import hashlib
import io
import json
import os
import random
import sys
import threading
import time
import urllib.error
from datetime import datetime
from email.message import Message
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PACK_MAGIC,
    VECTOR_MAGIC,
    StaticChatProvider,
    cache_entries,
    cache_file_bytes,
    parse_cache_file,
    read_pack,
    rewrite_cache,
)
from surveyguard import gateway as gateway_module
from surveyguard import providers
from surveyguard.errors import ConfigError, DataError, ProviderError, TransientProviderError
from surveyguard.gateway import (
    EMBED_BATCH,
    MAX_IN_FLIGHT,
    PACK_ENTRIES,
    ChatRequest,
    DiskCache,
    ProviderGateway,
    PurposeTag,
    build_cache_key,
    chat_key_material,
    embed_key_material,
)
from surveyguard.providers import (
    REQUEST_TIMEOUT_S,
    MockChatProvider,
    MockEmbeddingProvider,
    OpenAICompatChatProvider,
    OpenAICompatEmbeddingProvider,
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

    def test_key_is_the_32_byte_digest(self):
        key = build_cache_key(chat_request(), "prov")
        assert isinstance(key, bytes) and len(key) == 32

    def test_provider_and_text_feed_embed_keys(self):
        assert build_cache_key("hello", "p1") != build_cache_key("hello", "p2")
        assert build_cache_key("hello", "p1") != build_cache_key("world", "p1")

    def test_message_change_changes_digest(self):
        # a template bump rewrites the message text, so old cache entries never match
        v1 = chat_request(text="Answer plainly.\n\nWhy?")
        v2 = chat_request(text="Answer briefly.\n\nWhy?")
        assert build_cache_key(v1, "prov") != build_cache_key(v2, "prov")


# Texts whose JSON string form is not the text between quotes, and a long one.
KEY_TEXTS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\U0001f600", "long text " * 360]
KEY_PROVIDERS = ["mock-embed-0-d16", 'quo"ted', "prövider-ü"]


def reference_digest(material: dict) -> str:
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestCacheKeyEquivalence:
    @pytest.mark.parametrize("provider_id", KEY_PROVIDERS)
    def test_embed_keys_are_the_digest_of_the_canonical_material(self, provider_id):
        assert len(KEY_TEXTS[-1]) == 3600
        for text in KEY_TEXTS + ["a " + "".join(KEY_TEXTS[:-1]) + " z"]:
            material = {"kind": "embed", "provider_id": provider_id, "text": text}
            assert build_cache_key(text, provider_id).hex() == reference_digest(material), repr(text)

    @pytest.mark.parametrize("provider_id", KEY_PROVIDERS)
    def test_chat_keys_are_the_digest_of_the_canonical_material(self, provider_id):
        for text in KEY_TEXTS:
            request = chat_request(text=text, model=f"model {text}")
            material = {
                "kind": "chat",
                "provider_id": provider_id,
                "model_id": f"model {text}",
                "temperature": 0.5,
                "purpose": "generate_signature",
                "messages": [["user", text]],
            }
            assert build_cache_key(request, provider_id).hex() == reference_digest(material), repr(text)


class TestChatCaching:
    def test_second_identical_request_is_cached_with_zero_calls(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        first = gateway.chat(chat_request())
        assert (gateway.stats.provider_calls, gateway.stats.cache_misses, gateway.stats.cache_hits) == (1, 1, 0)
        assert gateway.chat(chat_request()) == first
        assert (gateway.stats.provider_calls, gateway.stats.cache_misses, gateway.stats.cache_hits) == (1, 1, 1)

    def test_canned_provider_passthrough(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=StaticChatProvider("AI"))
        assert gateway.chat(chat_request()) == "AI"

    def test_warm_cache_across_gateway_instances(self, tmp_path):
        first = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        text = first.chat(chat_request())
        warm = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        assert warm.chat(chat_request()) == text
        assert (warm.stats.provider_calls, warm.stats.cache_hits) == (0, 1)

    def test_no_chat_provider_configured(self, tmp_path):
        gateway = make_gateway(tmp_path)
        with pytest.raises(ConfigError, match="no chat provider"):
            gateway.chat(chat_request())

    def test_cache_entry_contains_request_material(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        request = chat_request()
        gateway.chat(request)
        key = build_cache_key(request, "mock-chat-0")
        entry = json.loads(cache_entries(gateway.cache.root)[key.hex()])
        assert entry["request"]["messages"] == [["user", "Why?"]]
        assert entry["request"]["temperature"] == 0.5
        assert "text" in entry["response"]


class TestEmbedding:
    def test_same_text_same_vector(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=8))
        assert gateway.embed("hello world").tobytes() == gateway.embed("hello world").tobytes()

    def test_different_texts_differ_in_at_least_one_coordinate(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=8))
        a = gateway.embed("hello world")
        b = gateway.embed("goodbye world")
        assert any(x != y for x, y in zip(a, b))

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
        assert list(vector) == expected(7, 5, "sample text")

    @pytest.mark.parametrize("seed", [0, 7, -3])
    @pytest.mark.parametrize("dim", [1, 16, 256, 1536])
    def test_mock_batch_is_embed_bit_for_bit(self, seed, dim):
        provider = MockEmbeddingProvider(seed=seed, dim=dim)
        texts = ["plain", "naïve café, 日本語 ✓", "line\u2028separator", "long answer " * 300]
        assert len(texts[-1].encode("utf-8")) >= 3000
        batch = provider.embed_many(texts)
        assert [[float(v).hex() for v in row] for row in batch] == [
            [v.hex() for v in provider.embed(text)] for text in texts
        ]

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

    def test_vector_values_are_a_read_only_copy(self, tmp_path):
        class MutatingProvider(FixedEmbeddingProvider):
            def embed_many(self, texts):
                self.returned = [np.array(self.values) for _ in texts]
                return self.returned

        provider = MutatingProvider([0.5, -0.5])
        vector = make_gateway(tmp_path, embed=provider).embed("x")
        provider.returned[0][0] = 9.0
        assert vector.dtype == np.float64 and vector.tolist() == [0.5, -0.5]
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0
        warm = make_gateway(tmp_path, embed=provider).embed("x")
        assert warm.tolist() == [0.5, -0.5] and not warm.flags.writeable

    @pytest.mark.parametrize(
        "values", [[0.5, float("nan")], [float("inf")], [0.5, -float("inf")]], ids=["nan", "inf", "-inf"]
    )
    def test_a_reply_with_a_non_finite_value_stores_nothing_of_its_batch(self, tmp_path, values):
        class OneBadReplyProvider(FixedEmbeddingProvider):
            def embed_many(self, texts):
                return [list(self.values) if text == "bad" else [0.5] * len(self.values) for text in texts]

        gateway = make_gateway(tmp_path, embed=OneBadReplyProvider(values))
        with pytest.raises(ValueError, match="non-finite"):
            gateway.embed_many(["fine", "bad", "also fine"])
        assert gateway.cache.entry_count() == 0


class RecordingEmbeddingProvider:
    """Mock vectors; records each request's texts and thread, and can misbehave on demand.

    A request containing ``fail_on`` fails for good; ``delay(texts)`` is slept per request.
    """

    def __init__(self, dim=4, drop_last=False, transient_failures=0, fail_on=None, delay=None):
        self.mock = MockEmbeddingProvider(seed=0, dim=dim)
        self.provider_id = self.mock.provider_id
        self.drop_last = drop_last
        self.transient_failures = transient_failures
        self.fail_on = fail_on
        self.delay = delay or (lambda texts: 0.0)
        self.requests: list[list[str]] = []
        self.threads: list[int] = []
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def embed_many(self, texts):
        with self._lock:
            self.requests.append(list(texts))
            self.threads.append(threading.get_ident())
            attempt = len(self.requests)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay(texts))
            if attempt <= self.transient_failures:
                raise TransientProviderError("rate limited", status=429)
            if self.fail_on in texts:
                raise ProviderError("bad request", status=400)
            vectors = self.mock.embed_many(texts)
            return vectors[:-1] if self.drop_last else vectors
        finally:
            with self._lock:
                self.in_flight -= 1


class TestEmbedMany:
    def test_input_order_is_kept_with_duplicates(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        texts = ["b", "a", "b", "c", "a"]
        vectors = gateway.embed_many(texts)
        assert [list(v) for v in vectors] == [provider.mock.embed(t) for t in texts]
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

    def test_batches_overlap_and_come_back_in_input_order(self, tmp_path):
        # The first batch sleeps longest, so it finishes after the other two.
        provider = RecordingEmbeddingProvider(delay=lambda texts: 0.06 if "text 0" in texts else 0.03)
        gateway = make_gateway(tmp_path, embed=provider)
        texts = [f"text {i}" for i in range(3 * EMBED_BATCH)]
        vectors = gateway.embed_many(texts)
        assert [list(v) for v in vectors] == [provider.mock.embed(t) for t in texts]
        assert sorted(len(batch) for batch in provider.requests) == [EMBED_BATCH] * 3
        assert provider.peak == 3

    def test_a_batch_that_fails_for_good_raises_after_the_others_are_stored(self, tmp_path):
        provider = RecordingEmbeddingProvider(fail_on="bad")
        gateway = make_gateway(tmp_path, embed=provider)
        with pytest.raises(ProviderError, match="bad request"):
            gateway.embed_many(["bad"] + [f"text {i}" for i in range(2 * EMBED_BATCH)])
        assert len(provider.requests) == 3
        assert gateway.cache.entry_count() == EMBED_BATCH + 1
        warm = make_gateway(tmp_path, embed=RecordingEmbeddingProvider())
        warm.embed_many([f"text {i}" for i in range(2 * EMBED_BATCH)])
        assert warm.stats.provider_calls == 1  # only the failed batch's texts are missing

    def test_each_text_is_sent_once_under_fast_thread_switching(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        texts = [f"text {i % (12 * EMBED_BATCH)}" for i in range(24 * EMBED_BATCH)]
        vectors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: vectors.extend(gateway.embed_many(texts)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert sorted(t for batch in provider.requests for t in batch) == sorted(set(texts))
        assert [list(v) for v in vectors] == [provider.mock.embed(t) for t in texts]
        assert gateway.cache.entry_count() == 12 * EMBED_BATCH
        stats = gateway.stats
        assert (stats.provider_calls, stats.cache_misses, stats.cache_hits) == (12, 768, 768)

    def test_a_store_pass_sends_each_text_once_under_fast_thread_switching(self, tmp_path):
        provider = RecordingEmbeddingProvider(delay=lambda texts: 0.001)
        gateway = make_gateway(tmp_path, embed=provider)
        distinct = 6 * EMBED_BATCH
        # each text twice in a row, while its batch fills, then again once it may be stored
        texts = [f"text {i // 2}" for i in range(2 * distinct)]
        texts += [f"text {i}" for i in reversed(range(distinct))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: gateway.store_embeddings(texts))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert sorted(t for batch in provider.requests for t in batch) == sorted(set(texts))
        stats = gateway.stats
        assert (stats.provider_calls, stats.cache_misses, stats.cache_hits) == (6, distinct, 2 * distinct)
        vectors = gateway.stored_embeddings(texts)
        assert [list(v) for v in vectors] == [provider.mock.embed(t) for t in texts]

    def test_a_store_pass_only_looks_for_cached_texts_and_the_read_back_counts_nothing(
        self, tmp_path, monkeypatch
    ):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        gateway.store_embeddings(["a", "b"])
        with monkeypatch.context() as patch:
            loads = []
            patch.setattr(DiskCache, "load", lambda cache, key: loads.append(key))
            gateway.store_embeddings(["b", "c", "a"])
        assert loads == []
        assert provider.requests == [["a", "b"], ["c"]]
        counts = (gateway.stats.provider_calls, gateway.stats.cache_misses, gateway.stats.cache_hits)
        assert counts == (2, 3, 2)
        vectors = gateway.stored_embeddings(["c", "a", "c"])
        assert [list(v) for v in vectors] == [provider.mock.embed(t) for t in ("c", "a", "c")]
        assert (gateway.stats.provider_calls, gateway.stats.cache_misses, gateway.stats.cache_hits) == counts
        with pytest.raises(DataError, match="no stored embedding"):
            gateway.stored_embeddings(["never stored"])

    def test_embed_and_embed_many_share_cache_entries(self, tmp_path):
        cold = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=4))
        single = cold.embed("one")
        batch = cold.embed_many(["two", "three"])
        warm = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=4))
        assert warm.embed_many(["one"])[0].tobytes() == single.tobytes()
        assert [warm.embed("two").tobytes(), warm.embed("three").tobytes()] == [v.tobytes() for v in batch]
        assert warm.stats.provider_calls == 0


class TestOpenAIEmbeddingAdapter:
    """Offline: the HTTP call is replaced, so only request shape and parsing run."""

    def adapter(self, monkeypatch, items):
        sent = []

        def fake_post(url, payload, api_key):
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
        assert gateway.chat(chat_request()) == "recovered"
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

    BACKOFF_S = 1.0 + 0.5 * random.Random(0).random()  # the first retry's wait, jitter seeded 0

    @pytest.mark.parametrize(
        "retry_after, waited",
        [
            ("7", 7.0),  # longer than the backoff: the server's wait
            ("1", BACKOFF_S),  # shorter: the backoff
            ("86400", REQUEST_TIMEOUT_S),  # capped
            ("Wed, 21 Oct 2015 07:28:00 GMT", BACKOFF_S),  # an HTTP-date is not read
            ("soon", BACKOFF_S),
            ("1.5", BACKOFF_S),  # delay-seconds is a whole number
            (None, BACKOFF_S),
        ],
    )
    def test_a_429_waits_the_longer_of_retry_after_and_the_backoff(
        self, tmp_path, monkeypatch, retry_after, waited
    ):
        headers = Message()
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        replies = [
            urllib.error.HTTPError("http://chat.test/v1", 429, "Too Many Requests", headers, io.BytesIO(b"")),
            io.BytesIO(json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode("utf-8")),
        ]

        def urlopen(request, timeout):
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setattr(providers.urllib.request, "urlopen", urlopen)
        monkeypatch.setenv("SURVEYGUARD_TEST_KEY", "secret")
        slept = []
        chat = OpenAICompatChatProvider(base_url="http://chat.test/v1", api_key_env="SURVEYGUARD_TEST_KEY")
        gateway = ProviderGateway(cache=DiskCache(tmp_path / "cache"), chat_provider=chat, sleep=slept.append)
        assert gateway.chat(chat_request()) == "ok"
        assert slept == [waited]

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

    def test_an_entry_committed_elsewhere_during_a_store_is_kept(self, tmp_path, monkeypatch):
        cache, elsewhere = DiskCache(tmp_path / "cache"), DiskCache(tmp_path / "cache")
        key = build_cache_key("text", "prov")
        canonical = gateway_module.canonical_json

        def commit_while_storing(entry):  # another process stores and commits the key mid-write
            monkeypatch.setattr(gateway_module, "canonical_json", canonical)
            elsewhere.store(key, {"response": {"values": [9.0]}})
            elsewhere.flush()
            return canonical(entry)

        monkeypatch.setattr(gateway_module, "canonical_json", commit_while_storing)
        assert cache.store(key, {"response": {"values": [1.0]}}) is True  # pending: it cannot know yet
        cache.flush()
        assert cache.load(key) == {"response": {"values": [9.0]}}
        assert sorted(p.name for p in cache.packs.iterdir()) == ["00000000", "00000001"]

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_first_commit_of_a_key_is_what_every_later_reader_gets(self, tmp_path, first):
        caches = [DiskCache(tmp_path / "cache"), DiskCache(tmp_path / "cache")]
        key = build_cache_key("text", "prov")
        for value, cache in enumerate(caches):
            assert cache.store(key, {"response": {"values": [float(value)]}}) is True
        caches[first].flush()
        caches[1 - first].flush()
        readers = [*caches, DiskCache(tmp_path / "cache")]
        assert [r.load(key) for r in readers] == [{"response": {"values": [float(first)]}}] * 3
        assert [r.entry_count() for r in readers] == [1, 1, 1]

    def test_store_commits_full_packs_and_flush_commits_the_rest(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        for i in range(PACK_ENTRIES + 1):
            cache.store(build_cache_key(f"t{i}", "p"), {"response": {"text": f"t{i}"}})
        assert [len(read_pack(p)[1]) for p in cache.packs.iterdir()] == [PACK_ENTRIES]
        cache.flush()
        cache.flush()  # nothing pending: no pack
        assert [len(read_pack(p)[1]) for p in sorted(cache.packs.iterdir())] == [PACK_ENTRIES, 1]
        reader = DiskCache(tmp_path / "cache")
        assert reader.load(build_cache_key("t64", "p")) == {"response": {"text": "t64"}}

    def test_entry_count_ignores_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.store(build_cache_key("a", "p"), {"response": {"text": "a"}})
        cache.store(build_cache_key("b", "p"), {"response": {"values": np.zeros(2), "dim": 2}})
        (cache.root / ".tmp-leftover").write_bytes(VECTOR_MAGIC)
        (cache.root / "subdir").mkdir()
        (cache.root / "subdir" / "nested").write_bytes(b"{}\n")
        assert cache.entry_count() == 2

    def test_new_entries_are_vectors_and_compact_or_pretty_legacy_json_still_hits(self, tmp_path):
        provider_id = "mock-embed-0-d4"
        cache = DiskCache(tmp_path / "cache")
        legacy = {}
        for text in ("compact", "pretty"):
            entry = {
                "request": embed_key_material(text, provider_id),
                "response": {"values": MockEmbeddingProvider(seed=0, dim=4).embed(text), "dim": 4},
                "stored_at": "2024-01-01T00:00:00+00:00",
            }
            path = cache.root / build_cache_key(text, provider_id).hex()
            pretty = (json.dumps(entry, sort_keys=True, indent=2) + "\n").encode()
            path.write_bytes(pretty if text == "pretty" else cache_file_bytes(entry))
            legacy[path] = path.read_bytes()
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        vectors = gateway.embed_many(["compact", "pretty"])
        assert [list(v) for v in vectors] == [provider.mock.embed(t) for t in ("compact", "pretty")]
        assert gateway.stats.provider_calls == 0
        assert {path: path.read_bytes() for path in legacy} == legacy  # read, not migrated

        gateway.embed("fresh")
        stored = cache_entries(cache.root)[build_cache_key("fresh", provider_id).hex()]
        header, body = parse_cache_file(stored)
        assert stored.startswith(VECTOR_MAGIC)
        assert header["request"] == embed_key_material("fresh", provider_id)
        assert header["response"] == {"dim": 4}
        assert body == np.array(provider.mock.embed("fresh"), dtype="<f8").tobytes()


PACK_DAMAGE = {  # each turns the bytes of a pack of two chat entries into a bad pack,
    # and says whether the error can name the damaged (last) entry
    "bad-magic": (lambda data: b"\x00" + data[1:], False),
    "short-table": (lambda data: data[: len(PACK_MAGIC) + 4 + 40], False),
    "truncated-body": (lambda data: data[:-1], True),
    "entry-not-json": (lambda data: data[:-2] + b"]\n", True),
}


class TestPacks:
    def test_a_cold_batch_makes_packs_and_no_file_per_key(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=RecordingEmbeddingProvider())
        gateway.embed_many([f"text {i}" for i in range(3 * EMBED_BATCH)])
        files = [p for p in gateway.cache.root.rglob("*") if p.is_file()]
        assert 1 <= len(files) <= 3
        assert {p.parent for p in files} == {gateway.cache.packs}
        assert DiskCache(tmp_path / "cache").entry_count() == 3 * EMBED_BATCH

    def test_concurrent_stores_are_each_committed_once_under_fast_thread_switching(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        keys = [build_cache_key(f"text {i}", "p") for i in range(8 * PACK_ENTRIES + 5)]

        def store(part):
            for key in keys[part::8]:
                cache.store(key, {"response": {"text": key.hex()}})

        threads = [threading.Thread(target=store, args=(part,)) for part in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cache.flush()
        packed = [digest for pack in cache.packs.iterdir() for digest in read_pack(pack)[1]]
        assert sorted(packed) == sorted(key.hex() for key in keys)
        reader = DiskCache(tmp_path / "cache")
        assert all(reader.load(key) == {"response": {"text": key.hex()}} for key in keys)

    @pytest.mark.parametrize("damage, names_entry", PACK_DAMAGE.values(), ids=PACK_DAMAGE.keys())
    def test_a_bad_pack_is_a_data_error_naming_it(self, tmp_path, damage, names_entry):
        requests = [chat_request(text=t) for t in ("a", "b")]
        make_gateway(tmp_path, chat=EchoChatProvider()).chat_many(requests)
        (pack,) = (tmp_path / "cache" / "packs").iterdir()
        last = list(read_pack(pack)[1])[-1]
        pack.write_bytes(damage(pack.read_bytes()))
        provider = EchoChatProvider()
        with pytest.raises(DataError) as raised:
            make_gateway(tmp_path, chat=provider).chat_many(requests)
        message = str(raised.value)
        assert str(pack) in message
        assert (last in message) == names_entry
        assert provider.calls == []

    def test_a_key_in_a_pack_and_in_a_legacy_file_counts_once_and_reads_from_the_pack(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        key = build_cache_key("a", "p")
        cache.store(key, {"response": {"text": "packed"}})
        cache.flush()
        (cache.root / key.hex()).write_text('{"response": {"text": "legacy"}}\n', encoding="utf-8")
        (cache.root / build_cache_key("b", "p").hex()).write_text("{}\n", encoding="utf-8")
        assert DiskCache(tmp_path / "cache").load(key) == {"response": {"text": "packed"}}
        assert DiskCache(tmp_path / "cache").entry_count() == 2


class TestMissesOpenNoFile:
    def test_a_cold_pass_makes_no_file_call_per_miss(self, tmp_path, monkeypatch):
        def file_calls(count: int) -> int:
            gateway = make_gateway(tmp_path / str(count), embed=RecordingEmbeddingProvider())
            calls = []
            def counted(name, original):
                return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

            with monkeypatch.context() as patch:
                for owner, name in ((os, "stat"), (Path, "is_file"), (Path, "read_bytes")):
                    patch.setattr(owner, name, counted(name, getattr(owner, name)))
                gateway.store_embeddings([f"fresh {i}" for i in range(count)])
            assert gateway.stats.cache_misses == count
            return len(calls)

        assert file_calls(8 * EMBED_BATCH) == file_calls(EMBED_BATCH)

    def test_a_file_entry_written_after_the_cache_opens_is_still_read(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        entry = {
            "request": embed_key_material("old", provider.provider_id),
            "response": {"values": provider.mock.embed("old"), "dim": 4},
        }
        path = gateway.cache.root / build_cache_key("old", provider.provider_id).hex()
        path.write_bytes(cache_file_bytes(entry))
        gateway.store_embeddings(["old", "new"])
        assert provider.requests == [["new"]]
        assert list(gateway.stored_embeddings(["old"])[0]) == provider.mock.embed("old")


class FixedEmbeddingProvider:
    """Returns the same vector for every text."""

    provider_id = "fixed"

    def __init__(self, values):
        self.values = values

    def embed_many(self, texts):
        return [list(self.values) for _ in texts]


class TestVectorEntries:
    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        values = [-0.0, 5e-324, 2.5e-310, 1.7e308, -1.7e308, 0.1]
        make_gateway(tmp_path, embed=FixedEmbeddingProvider(values)).embed("x")
        warm = make_gateway(tmp_path, embed=FixedEmbeddingProvider([1.0]))
        vector = warm.embed("x")
        assert warm.stats.provider_calls == 0
        assert vector.tobytes() == np.array(values, dtype=np.float64).tobytes()

    def test_a_d256_entry_is_its_raw_vector_plus_a_short_header(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=256))
        gateway.embed("I mostly agree, but the price went up too fast for my family.")
        (path,) = gateway.cache.packs.iterdir()
        assert path.stat().st_size <= 8 * 256 + 400

    def test_chat_entries_are_one_line_of_canonical_json(self, tmp_path):
        text = 'Naïve — "quoted"\nsecond line\u2028'
        gateway = make_gateway(tmp_path, chat=StaticChatProvider(text))
        request = chat_request(text="Pourquoi ?\n— réponds")
        gateway.chat(request)
        stored = cache_entries(gateway.cache.root)[build_cache_key(request, "static-chat").hex()]
        entry = json.loads(stored)
        assert entry == {"request": chat_key_material(request, "static-chat"), "response": {"text": text}}
        (pack,) = gateway.cache.packs.iterdir()
        assert datetime.fromisoformat(read_pack(pack)[0]).utcoffset().total_seconds() == 0  # one per pack
        canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        assert stored == canonical.encode("utf-8")

    def test_drift_between_two_well_formed_cached_entries_is_a_config_error(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        cache = DiskCache(tmp_path / "cache")
        # One entry in the vector form, one as legacy JSON: each is self-consistent.
        for text, values in (("a", np.ones(4)), ("b", [0.5, 0.5, 0.5])):
            material = embed_key_material(text, provider.provider_id)
            entry = {"request": material, "response": {"values": values, "dim": len(values)}}
            cache.store(build_cache_key(text, provider.provider_id), entry)
        cache.flush()
        gateway = make_gateway(tmp_path, embed=provider)
        with pytest.raises(ConfigError, match="dimension drift"):
            gateway.embed_many(["a", "b"])
        assert provider.requests == []


class EchoChatProvider:
    """Replies with the prompt text; "bad" fails for good and "boom" is a bug."""

    provider_id = "echo"

    def __init__(self, delay=lambda text: 0.0):
        self.delay = delay
        self.calls: list[str] = []
        self.threads: list[int] = []
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def complete(self, request):
        text = request.messages[-1][1]
        with self._lock:
            self.calls.append(text)
            self.threads.append(threading.get_ident())
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay(text))
            if text == "bad":
                raise ProviderError("bad request", status=400)
            if text == "boom":
                raise RuntimeError("provider bug")
            return f"re: {text}"
        finally:
            with self._lock:
                self.in_flight -= 1


class TestChatMany:
    def test_results_come_back_in_input_order(self, tmp_path):
        # Earlier requests sleep longer, so they finish after later ones.
        provider = EchoChatProvider(delay=lambda text: 0.002 * (12 - int(text[1:])))
        gateway = make_gateway(tmp_path, chat=provider)
        results = gateway.chat_many([chat_request(text=f"q{i}") for i in range(12)])
        assert results == [f"re: q{i}" for i in range(12)]

    def test_a_repeated_request_is_sent_once_and_counted_as_a_hit(self, tmp_path):
        provider = EchoChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        a, b = chat_request(text="a"), chat_request(text="b")
        results = gateway.chat_many([a, b, a, a])
        assert sorted(provider.calls) == ["a", "b"]
        assert results == ["re: a", "re: b", "re: a", "re: a"]
        assert (gateway.stats.provider_calls, gateway.stats.cache_misses) == (2, 2)
        assert gateway.stats.cache_hits == 2

    def test_a_permanent_failure_takes_its_slot_and_the_others_are_cached(self, tmp_path):
        provider = EchoChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        requests = [chat_request(text=t) for t in ("x", "bad", "y")]
        results = gateway.chat_many(requests)
        assert isinstance(results[1], ProviderError) and results[1].status == 400
        assert [results[0], results[2]] == ["re: x", "re: y"]
        assert gateway.cache.entry_count() == 2
        hits = gateway.stats.cache_hits
        assert gateway.chat_many([requests[0], requests[2]]) == ["re: x", "re: y"]
        assert gateway.stats.cache_hits == hits + 2
        assert sorted(provider.calls) == ["bad", "x", "y"]

    def test_any_other_exception_propagates_after_the_other_requests(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=EchoChatProvider())
        with pytest.raises(RuntimeError, match="provider bug"):
            gateway.chat_many([chat_request(text=t) for t in ("x", "boom", "y")])
        assert gateway.cache.entry_count() == 2

    def test_entries_finished_before_a_raise_are_committed(self, tmp_path):
        with pytest.raises(RuntimeError, match="provider bug"):
            make_gateway(tmp_path, chat=EchoChatProvider()).chat_many(
                [chat_request(text=t) for t in ("x", "boom", "y")]
            )
        provider = EchoChatProvider()
        warm = make_gateway(tmp_path, chat=provider)  # a new cache reads only committed packs
        assert warm.chat_many([chat_request(text=t) for t in ("x", "y")]) == ["re: x", "re: y"]
        assert (warm.stats.cache_hits, warm.stats.cache_misses) == (2, 0)
        assert provider.calls == []

    def test_at_most_max_in_flight_calls_overlap(self, tmp_path):
        provider = EchoChatProvider(delay=lambda text: 0.02)
        gateway = make_gateway(tmp_path, chat=provider)
        results = gateway.chat_many([chat_request(text=f"q{i}") for i in range(40)])
        assert len(provider.calls) == len(results) == 40
        assert provider.peak == MAX_IN_FLIGHT

    def test_each_distinct_request_is_taken_once_under_fast_thread_switching(self, tmp_path):
        provider = EchoChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        requests = [chat_request(text=f"q{i % 150}") for i in range(600)]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: results.extend(gateway.chat_many(requests)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert sorted(provider.calls) == sorted(f"q{i}" for i in range(150))
        assert results == [f"re: {r.messages[-1][1]}" for r in requests]
        stats = gateway.stats
        assert (stats.provider_calls, stats.cache_misses, stats.cache_hits) == (150, 150, 450)

    def test_one_miss_is_sent_from_the_calling_thread(self, tmp_path):
        chat, embed = EchoChatProvider(), RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, chat=chat, embed=embed)
        gateway.chat_many([chat_request(text="a"), chat_request(text="a")])
        gateway.embed_many(["a", "b", "a"])
        assert chat.threads == embed.threads == [threading.get_ident()]

    def test_no_requests_make_no_calls(self, tmp_path):
        provider = EchoChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        assert gateway.chat_many([]) == []
        assert provider.calls == []


CORRUPT_CHAT_ENTRIES = [
    '{"response": {"text": "trunc', "[]", "null", '{"request": {}}', '{"response": {"text": 5}}'
]


def _legacy(digest: str, layout: str) -> set[str]:
    return {digest} if layout == "legacy" else set()


class TestUnreadableCacheEntries:
    @pytest.mark.parametrize(
        "content, send",
        [pytest.param(c, lambda g: g.chat(chat_request()), id=c) for c in CORRUPT_CHAT_ENTRIES]
        + [  # every lookup comes before any send, so the fresh request is not sent either
            pytest.param(
                c, lambda g: g.chat_many([chat_request(text="fresh"), chat_request()]), id=f"many-{c}"
            )
            for c in CORRUPT_CHAT_ENTRIES
        ],
    )
    @pytest.mark.parametrize("layout", ["packed", "legacy"])
    def test_chat_entry_is_a_data_error_naming_its_file(self, tmp_path, content, send, layout):
        provider = EchoChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        digest = build_cache_key(chat_request(), provider.provider_id).hex()
        path = rewrite_cache(gateway.cache.root, {digest: content.encode()}, _legacy(digest, layout))[digest]
        with pytest.raises(DataError, match=digest) as raised:
            send(gateway)
        assert str(path) in str(raised.value)
        assert provider.calls == []

    @pytest.mark.parametrize("layout", ["packed", "legacy"])
    @pytest.mark.parametrize(
        "content",
        [
            '{"response": {"values": [0.1,',
            '{"stored_at": "x"}',
            '{"response": "v"}',
            '{"response": {"values": [0.1, NaN], "dim": 2}}',
            '{"response": {"values": [0.1, 0.2], "dim": 3}}',
            '{"response": {"values": [[0.1, 0.2]], "dim": 1}}',
        ],
    )
    def test_embed_entry_is_a_data_error_naming_its_file(self, tmp_path, content, layout):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        digest = build_cache_key("text", provider.provider_id).hex()
        path = rewrite_cache(gateway.cache.root, {digest: content.encode()}, _legacy(digest, layout))[digest]
        with pytest.raises(DataError, match=digest) as raised:
            gateway.embed_many(["other", "text"])
        assert str(path) in str(raised.value)
        assert provider.requests == []
