import errno
import hashlib
import io
import json
import os
import random
import struct
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
    StaticChatProvider,
    cache_entries,
    entry_request,
    read_pack,
    rewrite_cache,
    write_v1_pack,
)
from surveyguard import gateway as gateway_module
from surveyguard import providers
from surveyguard.errors import ConfigError, DataError, ProviderError, TransientProviderError
from surveyguard.gateway import (
    EMBED_BATCH,
    MAX_IN_FLIGHT,
    PACK_ENTRIES,
    START_IN_FLIGHT,
    ChatRequest,
    DiskCache,
    ProviderGateway,
    PurposeTag,
    build_cache_key,
    canonical_json,
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


def store(cache: DiskCache, text: str, response: bytes) -> bool:
    """Store ``response`` as the entry of ``text``'s embed key for provider "p"."""
    return cache.store(*build_cache_key(text, "p"), response)


def load_entry(cache: DiskCache, text: str) -> bytes | None:
    """The response bytes of ``text``'s entry as the gateway reads them: through ``read``, then ``load``."""
    key, key_text = build_cache_key(text, "p")
    return cache.load(key, key_text, dict(cache.read([key])).get(0))


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
        a = build_cache_key(chat_request(), "prov")[0]
        b = build_cache_key(chat_request(), "prov")[0]
        assert a == b

    def test_temperature_changes_digest(self):
        a = build_cache_key(chat_request(temperature=0.25), "prov")[0]
        b = build_cache_key(chat_request(temperature=0.5), "prov")[0]
        assert a != b

    def test_key_is_the_32_byte_digest_of_the_key_text(self):
        key, text = build_cache_key(chat_request(), "prov")
        assert isinstance(key, bytes) and len(key) == 32 and hashlib.sha256(text).digest() == key

    def test_provider_and_text_feed_embed_keys(self):
        assert build_cache_key("hello", "p1")[0] != build_cache_key("hello", "p2")[0]
        assert build_cache_key("hello", "p1")[0] != build_cache_key("world", "p1")[0]

    def test_message_change_changes_digest(self):
        # a template bump rewrites the message text, so old cache entries never match
        v1 = chat_request(text="Answer plainly.\n\nWhy?")
        v2 = chat_request(text="Answer briefly.\n\nWhy?")
        assert build_cache_key(v1, "prov")[0] != build_cache_key(v2, "prov")[0]


# Texts whose JSON string form is not the text between quotes, and a long one.
KEY_TEXTS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\U0001f600", "long text " * 360]
KEY_PROVIDERS = ["mock-embed-0-d16", 'quo"ted', "prövider-ü"]


KEY_TEMPERATURES = [0.0, 0.1 + 0.2, 1.0, -0.0]


def reference_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def reference_digest(material: dict) -> str:
    return hashlib.sha256(reference_json(material).encode()).hexdigest()


def chat_material(request: ChatRequest, provider_id: str) -> dict:
    """The chat key material, written out field by field."""
    return {
        "kind": "chat",
        "provider_id": provider_id,
        "model_id": request.model_id,
        "temperature": request.temperature,
        "purpose": request.purpose.value,
        "messages": [list(message) for message in request.messages],
    }


# Pieces of seeded message strings: what JSON escapes (quotes, backslashes, C0 controls, NUL),
# what it must not (DEL, U+2028, U+2029, non-BMP), and the separators the key's frame joins on.
KEY_PIECES = [
    '"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "\U0001f600", "\U0010ffff", "é", "a", " ",
    "],[", '"",""', "\\u0000",
]


def seeded_request(rng: random.Random) -> ChatRequest:
    """One to three messages of seeded pieces, role and text alike, at one of the edge temperatures."""
    def piece_string(most: int) -> str:
        return "".join(rng.choices(KEY_PIECES, k=rng.randrange(most)))

    roles = ["system", "user", "assistant", piece_string(4)]
    messages = tuple((rng.choice(roles), piece_string(12)) for _ in range(rng.randint(1, 3)))
    model_id = rng.choice(["gpt-4o", 'mo"del\\', "m\u2028\U0001f600"])
    return ChatRequest(model_id, rng.choice([0.0, -0.0, 1e-05, 1.0]), messages, rng.choice(list(PurposeTag)))


def key_requests(n: int = 0) -> list[ChatRequest]:
    """A request per key text, with one message or a system+user pair; the n-th set of purpose
    and temperature first, the others in turn."""
    requests = []
    for i, text in enumerate(KEY_TEXTS):
        messages = (("user", text),) if i % 2 else (("system", f"Be brief. {text}"), ("user", text))
        temperature = KEY_TEMPERATURES[(n + i) % len(KEY_TEMPERATURES)]
        purpose = list(PurposeTag)[(n + i) % 2]
        requests.append(ChatRequest(f"model {text}", temperature, messages, purpose))
    return requests


class TestCacheKeyEquivalence:
    @pytest.mark.parametrize("provider_id", KEY_PROVIDERS)
    def test_embed_keys_are_the_digest_of_the_canonical_material(self, provider_id):
        assert len(KEY_TEXTS[-1]) == 3600
        for text in KEY_TEXTS + ["a " + "".join(KEY_TEXTS[:-1]) + " z"]:
            material = {"kind": "embed", "provider_id": provider_id, "text": text}
            key, key_text = build_cache_key(text, provider_id)
            assert key.hex() == reference_digest(material), repr(text)
            assert key_text == reference_json(material).encode(), repr(text)

    @pytest.mark.parametrize("provider_id", KEY_PROVIDERS)
    @pytest.mark.parametrize("purpose", list(PurposeTag))
    @pytest.mark.parametrize("temperature", KEY_TEMPERATURES, ids=repr)
    def test_chat_keys_are_the_digest_of_the_canonical_material(self, provider_id, purpose, temperature):
        for text in KEY_TEXTS:
            for messages in ((("user", text),), (("system", f"Be brief. {text}"), ("user", text))):
                request = ChatRequest(f"model {text}", temperature, messages, purpose)
                key, key_text = build_cache_key(request, provider_id)
                assert key.hex() == reference_digest(chat_material(request, provider_id)), repr(text)
                assert key_text == reference_json(chat_material(request, provider_id)).encode(), repr(text)

    @pytest.mark.parametrize("seed", range(4))
    def test_chat_key_text_is_the_canonical_json_of_its_material(self, seed):
        rng = random.Random(f"chat keys {seed}")
        for _ in range(250):
            request, provider_id = seeded_request(rng), rng.choice(KEY_PROVIDERS)
            expected = canonical_json(chat_key_material(request, provider_id)).encode("utf-8")
            assert build_cache_key(request, provider_id)[1] == expected, request

    @pytest.mark.parametrize("pair", [("\ud800", "x"), ("user", "a\udfff b")], ids=["role", "text"])
    def test_a_lone_surrogate_raises_the_same_error_on_both_paths(self, pair):
        request = ChatRequest("gpt-4o", 0.0, (("system", "s"), pair), PurposeTag.DETECT)
        with pytest.raises(UnicodeEncodeError) as framed:
            build_cache_key(request, "prov")
        with pytest.raises(UnicodeEncodeError) as canonical:
            canonical_json(chat_key_material(request, "prov")).encode("utf-8")
        assert str(framed.value) == str(canonical.value)
        assert framed.value.object == canonical.value.object

    @pytest.mark.parametrize("provider_id", KEY_PROVIDERS)
    def test_stored_entries_are_the_canonical_request_line_and_the_response(self, tmp_path, provider_id):
        chat, embed = EchoChatProvider(), FixedEmbeddingProvider([0.5, -0.25, 5e-324])
        chat.provider_id = embed.provider_id = provider_id
        gateway = make_gateway(tmp_path, chat=chat, embed=embed)
        requests = key_requests(0) + key_requests(1)
        texts = [text for text in KEY_TEXTS if text.strip()] + ["a " + "".join(KEY_TEXTS[:-1]) + " z"]
        assert all(isinstance(reply, str) for reply in gateway.chat_many(requests))
        gateway.store_embeddings(texts)
        stored = cache_entries(gateway.cache.root)
        assert len(stored) == len(requests) + len(texts)
        for request in requests:
            expected = f"{reference_json(chat_material(request, provider_id))}\nre: {request.messages[-1][1]}"
            assert stored[build_cache_key(request, provider_id)[0].hex()] == expected.encode()
        body = np.array(embed.values, dtype="<f8").tobytes()
        for text in texts:
            material = {"kind": "embed", "provider_id": provider_id, "text": text}
            expected = (reference_json(material) + "\n").encode() + body
            assert stored[build_cache_key(text, provider_id)[0].hex()] == expected, repr(text)


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

    @pytest.mark.parametrize("method", ["embed", "store_embeddings", "stored_embeddings"])
    def test_no_embedding_provider_configured(self, tmp_path, method):
        gateway = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        text = "hello" if method == "embed" else ["hello"]
        with pytest.raises(ConfigError, match="no embedding provider"):
            getattr(gateway, method)(text)

    def test_cache_entry_contains_request_material(self, tmp_path):
        gateway = make_gateway(tmp_path, chat=MockChatProvider(seed=0))
        request = chat_request()
        gateway.chat(request)
        key = build_cache_key(request, "mock-chat-0")[0]
        entry = cache_entries(gateway.cache.root)[key.hex()]
        assert entry_request(entry)["messages"] == [["user", "Why?"]]
        assert entry_request(entry)["temperature"] == 0.5
        assert entry.partition(b"\n")[2] == gateway.chat(request).encode()


# The mock embedder's bits at seed 7: float.hex per coordinate at d=16, and the sha256 of those
# strings joined by "," over all four texts at larger dims. A change here moves every mock score.
MOCK_TEXTS = ["plain", "naïve café, 日本語 ✓", "line\u2028separator", "long answer " * 300]
MOCK_BITS_D16 = [
    [
        "0x1.3a829de36f7e0p-2", "-0x1.279c208904b74p-1", "-0x1.3edca6749371bp-1", "0x1.50b18d1783412p-1",
        "-0x1.32c3306122220p-4", "-0x1.07e93409baeb4p-1", "0x1.0332bea563b00p-4", "-0x1.3543b5cdcc762p-1",
        "0x1.428a43c33df4cp-2", "0x1.891ea4f60d086p-1", "0x1.0a516e33ec344p-2", "-0x1.1865f6b289e00p-10",
        "-0x1.2a52dc90f1c60p-6", "0x1.7de74e296ea20p-2", "0x1.2c1bd38fb2d88p-2", "-0x1.67c4c3af36e00p-4",
    ],
    [
        "0x1.d92a90526370ep-1", "-0x1.8a8fd30368f10p-2", "0x1.30f4346c77594p-1", "-0x1.c658f1bb4f4f6p-2",
        "0x1.f98cbfec36918p-1", "-0x1.c32e2f4187041p-1", "-0x1.09e7488792966p-1", "-0x1.6411b7c3d328ep-2",
        "0x1.e6cc42cd65012p-1", "0x1.d7b70aec24400p-6", "0x1.785930af01cb0p-2", "-0x1.a5d0d30a7a18ep-1",
        "0x1.eac4a62782680p-1", "-0x1.8314c69f312ccp-3", "0x1.f954d8f11ab28p-3", "0x1.4f1ce27e2a12cp-2",
    ],
    [
        "-0x1.e5a40552601aep-1", "-0x1.ad7377a94ec48p-1", "-0x1.44cacfe5c3b64p-1", "0x1.adc0f97dba874p-1",
        "0x1.675d8f25fe2b2p-1", "-0x1.d07dbdc82e0a6p-1", "-0x1.e2bd9dd7722c4p-1", "-0x1.bf55c6a5818b2p-1",
        "0x1.455c634df8770p-3", "-0x1.e090874a526f8p-3", "-0x1.f06e24bf48360p-4", "-0x1.7dc9801a6b200p-1",
        "0x1.68e03f566efd0p-3", "-0x1.d31ef63a0d080p-6", "0x1.f0a096dac5e30p-1", "-0x1.0783cef4cfd1ap-1",
    ],
    [
        "0x1.142be83831f6ep-1", "0x1.def5fc21f022ep-1", "-0x1.05cf53821c61ap-1", "0x1.ebd8b3d1a4b40p-1",
        "-0x1.8eaaf5f841c56p-2", "-0x1.27c7bab5291e0p-1", "0x1.b0a205d607800p-10", "0x1.b3e8a97cfcb04p-2",
        "-0x1.d3f6feb3af756p-1", "-0x1.97a0cf204ea38p-2", "0x1.010175005e434p-1", "0x1.8c14c09fd4580p-7",
        "-0x1.4570c65816944p-2", "0x1.229463d776decp-2", "0x1.d7f74cb428568p-3", "0x1.802f73b1ea858p-1",
    ],
]
MOCK_BITS_SHA256 = {
    256: "8edc6e8adb1406a2ba20de96d33b1755d280d72e5432a243838f3f1852eb469a",
    1536: "32f0a02614c65d124a962f0bbe90d9b44713471b52ad9385a92294b5d80765cb",
}


class TestEmbedding:
    def test_same_text_same_vector(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=8))
        assert gateway.embed("hello world").tobytes() == gateway.embed("hello world").tobytes()

    def test_different_texts_differ_in_at_least_one_coordinate(self, tmp_path):
        gateway = make_gateway(tmp_path, embed=MockEmbeddingProvider(seed=0, dim=8))
        a = gateway.embed("hello world")
        b = gateway.embed("goodbye world")
        assert any(x != y for x, y in zip(a, b))

    @pytest.mark.parametrize("seed", [0, 7, -3])
    @pytest.mark.parametrize("dim", [1, 5, 16])
    def test_mock_matches_documented_hash_construction(self, tmp_path, seed, dim):
        # independent re-implementation of the documented construction
        def expected(text: str) -> list[float]:
            digest = hashlib.shake_256(f"{seed}|{text}".encode("utf-8")).digest(8 * dim)
            words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 8 * dim, 8)]
            return [u / 2.0**64 * 2.0 - 1.0 for u in words]

        provider = MockEmbeddingProvider(seed=seed, dim=dim)
        assert [row.tolist() for row in provider.embed_many(MOCK_TEXTS)] == [expected(t) for t in MOCK_TEXTS]
        assert make_gateway(tmp_path, embed=provider).embed("sample text").tolist() == expected("sample text")

    @pytest.mark.parametrize("dim", [1, 16, 256, 1536])
    def test_mock_bits_are_pinned(self, dim):
        assert len(MOCK_TEXTS[-1].encode("utf-8")) >= 3000
        vectors = MockEmbeddingProvider(seed=7, dim=dim).embed_many(MOCK_TEXTS)
        rows = [[float(v).hex() for v in row] for row in vectors]
        if dim <= 16:  # a shorter SHAKE digest is a prefix of a longer one
            assert rows == [row[:dim] for row in MOCK_BITS_D16]
        else:
            joined = ",".join(h for row in rows for h in row)
            assert hashlib.sha256(joined.encode()).hexdigest() == MOCK_BITS_SHA256[dim]

    def test_mock_equal_texts_give_equal_vectors(self):
        same, other, again = MockEmbeddingProvider(seed=7, dim=64).embed_many(["same", "other", "same"])
        fresh = MockEmbeddingProvider(seed=7, dim=64).embed_many(["same"])[0]
        assert same.tobytes() == again.tobytes() == fresh.tobytes() != other.tobytes()

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
        "values, problem",
        [
            ([0.5, float("nan")], "non-finite"),
            ([float("inf")], "non-finite"),
            ([0.5, -float("inf")], "non-finite"),
            ([], "not a non-empty list"),
        ],
        ids=["nan", "inf", "-inf", "empty"],
    )
    def test_a_reply_with_a_bad_vector_stores_nothing_of_its_batch(self, tmp_path, values, problem):
        class OneBadReplyProvider(FixedEmbeddingProvider):
            def embed_many(self, texts):
                fine = [0.5] * max(len(self.values), 1)
                return [list(self.values) if text == "bad" else fine for text in texts]

        gateway = make_gateway(tmp_path, embed=OneBadReplyProvider(values))
        with pytest.raises(ValueError, match=problem):
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
            reads = []
            patch.setattr(DiskCache, "read", lambda cache, keys: reads.append(keys) or iter(()))
            patch.setattr(DiskCache, "load", lambda cache, key, key_text, data: reads.append(key))
            gateway.store_embeddings(["b", "c", "a"])
        assert reads == []
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


def can_hold(window, slots: int) -> bool:
    """Whether window lets slots calls be in flight at once (tried in a thread that waits 2 s)."""
    held = threading.Event()

    def hold():
        for _ in range(slots):
            window.take()
        held.set()

    threading.Thread(target=hold, daemon=True).start()
    return held.wait(2.0)


class TestWindow:
    def test_each_success_adds_a_slot_up_to_max_in_flight(self):
        window = gateway_module._Window()
        sizes = []
        for _ in range(MAX_IN_FLIGHT - START_IN_FLIGHT + 2):
            window.give(window.take(), True)
            sizes.append(window.size)
        assert sizes == [*range(START_IN_FLIGHT + 1, MAX_IN_FLIGHT + 1), MAX_IN_FLIGHT, MAX_IN_FLIGHT]
        assert can_hold(window, MAX_IN_FLIGHT)

    @pytest.mark.parametrize("grown", [3, MAX_IN_FLIGHT - START_IN_FLIGHT], ids=["early", "at-max"])
    def test_after_a_halving_each_success_adds_one_over_its_size(self, grown):
        window = gateway_module._Window()
        for _ in range(grown):
            window.give(window.take(), True)
        window.give(window.take(), False)
        expected = (START_IN_FLIGHT + grown) / 2
        assert window.size == expected
        for _ in range(3 * MAX_IN_FLIGHT):  # no second slow start, however far below the maximum
            window.give(window.take(), True)
            expected = min(expected + 1 / expected, MAX_IN_FLIGHT)
            assert window.size == expected
        assert can_hold(window, int(expected))

    def test_it_grows_to_max_in_flight_and_no_further(self):
        window = gateway_module._Window()
        for _ in range(MAX_IN_FLIGHT**2):
            window.give(window.take(), True)
        assert window.size == MAX_IN_FLIGHT and can_hold(window, MAX_IN_FLIGHT)

    def test_a_transient_error_halves_the_size_its_call_was_sent_under(self):
        window = gateway_module._Window()
        sent = window.take()
        for _ in range(4):  # others succeed while that call is in flight
            window.give(window.take(), True)
        assert window.size > START_IN_FLIGHT + 0.5
        window.give(sent, False)
        assert window.size == START_IN_FLIGHT / 2

    def test_a_burst_of_transient_errors_halves_it_once(self):
        window = gateway_module._Window()
        burst = [window.take() for _ in range(START_IN_FLIGHT)]
        for sent in burst:
            window.give(sent, False)
        assert window.size == START_IN_FLIGHT / 2 and can_hold(window, 2)

    def test_it_never_shrinks_below_one(self):
        window = gateway_module._Window()
        sizes = []
        for _ in range(5):
            window.give(window.take(), False)
            sizes.append(window.size)
        assert sizes == [2.5, 1.25, 1.0, 1.0, 1.0] and can_hold(window, 1)

    def test_a_call_that_raised_anything_else_leaves_it_as_it_is(self):
        window = gateway_module._Window()
        for _ in range(3 * START_IN_FLIGHT):
            window.give(window.take(), None)
        assert window.size == START_IN_FLIGHT and can_hold(window, START_IN_FLIGHT)

    @pytest.mark.parametrize("text", ["bad", "boom"], ids=["400", "bug"])
    def test_a_gateway_call_that_fails_for_good_leaves_its_window_as_it_is(self, tmp_path, text):
        gateway = make_gateway(tmp_path, chat=EchoChatProvider())
        gateway.chat(chat_request(text="fine"))
        size = gateway._window.size
        for _ in range(3 * START_IN_FLIGHT):
            with pytest.raises((ProviderError, RuntimeError)):
                gateway.chat(chat_request(text=text))
        assert size == START_IN_FLIGHT + 1 == gateway._window.size
        assert can_hold(gateway._window, START_IN_FLIGHT + 1)


class ThreeAtOnceChatProvider:
    """Answers 429 to a call that would make more than three calls overlap; the others echo."""

    provider_id = "three-at-once"

    def __init__(self):
        self.in_flight = self.peak = self.refused = 0
        self.answered: list[str] = []
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            if self.in_flight == 3:
                self.refused += 1
                raise TransientProviderError("rate limited", status=429)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.005)
        with self._lock:
            self.in_flight -= 1
            self.answered.append(request.messages[-1][1])
        return f"re: {request.messages[-1][1]}"


class TestRateLimitedProvider:
    def test_the_window_settles_under_the_providers_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gateway_module, "RETRIES", 100)
        provider = ThreeAtOnceChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        texts = [f"q{i}" for i in range(150)]
        assert gateway.chat_many([chat_request(text=text) for text in texts]) == [f"re: {t}" for t in texts]
        assert sorted(provider.answered) == sorted(texts) and provider.peak == 3
        calls = gateway.stats.provider_calls
        assert calls == len(texts) + provider.refused and provider.refused < calls / 4


class TestDiskCache:
    def test_store_is_at_most_once_per_key(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        assert store(cache, "text", b"first") is True
        assert store(cache, "text", b"second") is False
        assert load_entry(cache, "text") == b"first"

    def test_an_entry_committed_elsewhere_during_a_store_is_kept(self, tmp_path):
        cache, elsewhere = DiskCache(tmp_path / "cache"), DiskCache(tmp_path / "cache")
        store(elsewhere, "text", b"elsewhere")  # another process
        elsewhere.flush()
        assert store(cache, "text", b"here") is True  # pending, unaware
        cache.flush()
        assert load_entry(cache, "text") == b"elsewhere"
        assert sorted(p.name for p in cache.packs.iterdir()) == ["00000000", "00000001"]

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_first_commit_of_a_key_is_what_every_later_reader_gets(self, tmp_path, first):
        caches = [DiskCache(tmp_path / "cache"), DiskCache(tmp_path / "cache")]
        for value, cache in enumerate(caches):
            assert store(cache, "text", b"%d" % value) is True
        caches[first].flush()
        caches[1 - first].flush()
        readers = [*caches, DiskCache(tmp_path / "cache")]
        assert [load_entry(r, "text") for r in readers] == [b"%d" % first] * 3
        assert [r.entry_count() for r in readers] == [1, 1, 1]

    def test_store_commits_full_packs_and_flush_commits_the_rest(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        for i in range(PACK_ENTRIES + 1):
            store(cache, f"t{i}", f"t{i}".encode())
        assert [len(read_pack(p)[1]) for p in cache.packs.iterdir()] == [PACK_ENTRIES]
        cache.flush()
        cache.flush()  # nothing pending: no pack
        assert [len(read_pack(p)[1]) for p in sorted(cache.packs.iterdir())] == [PACK_ENTRIES, 1]
        assert load_entry(DiskCache(tmp_path / "cache"), "t64") == b"t64"

    def test_a_failed_commit_keeps_its_entries_pending_for_the_next(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "cache")
        store(cache, "text", b"kept")
        real_writev, faults = os.writev, [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))]

        def writev_once_full(fd, buffers):
            if faults:
                raise faults.pop()
            return real_writev(fd, buffers)

        monkeypatch.setattr(gateway_module.os, "writev", writev_once_full)
        with pytest.raises(ConfigError, match=f"cannot write cache dir {cache.root}: "):
            cache.flush()
        assert list(cache.packs.iterdir()) == [] and build_cache_key("text", "p")[0] in cache
        cache.flush()
        assert [p.name for p in cache.packs.iterdir()] == ["00000000"]
        assert load_entry(DiskCache(tmp_path / "cache"), "text") == b"kept"

    def test_entry_count_ignores_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        store(cache, "a", b"a")
        store(cache, "b", bytes(16))
        (cache.packs / ".tmp-leftover").write_bytes(PACK_MAGIC)
        (cache.root / "subdir").mkdir()
        (cache.root / "subdir" / "nested").write_bytes(b"{}\n")
        assert cache.entry_count() == 2

    def test_a_bad_pending_entry_is_named_under_the_root(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        key = build_cache_key("a", "p")[0]
        cache.store(key, build_cache_key("b", "p")[1], b"b")  # another request's text
        with pytest.raises(DataError, match=f"^corrupted cache entry: {cache.root} pending entry {key.hex()}: "):
            load_entry(cache, "a")

    def test_new_embedding_entries_are_the_key_text_line_and_the_raw_vector(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        gateway = make_gateway(tmp_path, embed=provider)
        gateway.embed("fresh")
        key, key_text = build_cache_key("fresh", provider.provider_id)
        stored = cache_entries(gateway.cache.root)[key.hex()]
        assert entry_request(stored) == embed_key_material("fresh", provider.provider_id)
        assert stored == key_text + b"\n" + np.array(provider.mock.embed("fresh"), dtype="<f8").tobytes()


PACK_DAMAGE = {  # each turns the bytes of a pack of two chat entries into a bad pack,
    # and says whether the error can name the damaged (last) entry
    "bad-magic": (lambda data: b"\x00" + data[1:], False),
    "short-table": (lambda data: data[: len(PACK_MAGIC) + 4 + 40], False),
    "truncated-body": (lambda data: data[:-1], True),
    "entry-byte-changed": (lambda data: data[:-1] + bytes([data[-1] ^ 1]), True),
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
        keyed = [build_cache_key(f"text {i}", "p") for i in range(8 * PACK_ENTRIES + 5)]
        keys = [key for key, _ in keyed]

        def store_part(part):
            for key, key_text in keyed[part::8]:
                cache.store(key, key_text, key)

        threads = [threading.Thread(target=store_part, args=(part,)) for part in range(8)]
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
        found = dict(reader.read(keys))
        assert all(reader.load(*keyed[i], found[i]) == key for i, key in enumerate(keys))

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

    @pytest.mark.parametrize("layout", ["one-file", "v1-pack"])
    def test_a_root_holding_an_earlier_layout_is_refused_and_left_as_it_is(self, tmp_path, layout):
        cache = DiskCache(tmp_path / "cache")
        store(cache, "a", b"packed")
        cache.flush()
        for name in ("a" * 63, build_cache_key("a", "p")[0].hex().upper()):  # not a one-file entry's name
            (cache.root / name).write_text("{}\n", encoding="utf-8")
        assert load_entry(DiskCache(tmp_path / "cache"), "a") == b"packed"
        if layout == "one-file":
            old = cache.root / build_cache_key("b", "p")[0].hex()
            old.write_bytes(b'{"response": {"text": "one file"}}\n')
        else:
            old = write_v1_pack(cache.packs / "00000001")
        kept, listing = old.read_bytes(), sorted(cache.root.rglob("*"))
        with pytest.raises(ConfigError) as raised:
            DiskCache(tmp_path / "cache")
        what = old.name if layout == "one-file" else f"{old}, a v1 pack"
        assert f"cache dir {cache.root} holds {what}" in str(raised.value)
        assert "move the dir aside" in str(raised.value)
        assert old.read_bytes() == kept
        assert sorted(cache.root.rglob("*")) == listing


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

    def test_chat_entries_are_the_canonical_request_line_and_the_raw_reply(self, tmp_path):
        text = 'Naïve — "quoted"\nsecond line\u2028'
        gateway = make_gateway(tmp_path, chat=StaticChatProvider(text))
        request = chat_request(text="Pourquoi ?\n— réponds")
        gateway.chat(request)
        stored = cache_entries(gateway.cache.root)[build_cache_key(request, "static-chat")[0].hex()]
        assert entry_request(stored) == chat_key_material(request, "static-chat")
        (pack,) = gateway.cache.packs.iterdir()
        assert datetime.fromisoformat(read_pack(pack)[0]).utcoffset().total_seconds() == 0  # one per pack
        material = chat_key_material(request, "static-chat")
        canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert stored == f"{canonical}\n{text}".encode("utf-8")

    def test_cached_vectors_of_two_lengths_are_a_data_error_naming_the_later(self, tmp_path):
        provider = RecordingEmbeddingProvider()
        cache = DiskCache(tmp_path / "cache")
        for text, dim in (("a", 4), ("b", 3)):
            cache.store(*build_cache_key(text, provider.provider_id), np.ones(dim).tobytes())
        cache.flush()
        with pytest.raises(DataError) as raised:
            make_gateway(tmp_path, embed=provider).embed_many(["a", "b"])
        later = cache.locate(build_cache_key("b", provider.provider_id)[0])
        problem = "a body of 24 bytes, not a vector of dimension 4"
        assert str(raised.value) == f"corrupted cache entry: {later}: {problem}"
        assert provider.requests == []

    def test_a_fetched_vector_of_another_length_than_a_cached_one_is_dimension_drift(self, tmp_path):
        make_gateway(tmp_path, embed=FixedEmbeddingProvider([0.5] * 4)).store_embeddings(["a"])
        gateway = make_gateway(tmp_path, embed=FixedEmbeddingProvider([0.5] * 3))
        assert gateway.stored_embeddings(["a"]).shape == (1, 4)
        with pytest.raises(ConfigError, match="dimension drift for provider fixed: 4 then 3"):
            gateway.embed_many(["b"])

    @pytest.mark.parametrize("texts", [["first", "second"], ["second", "first"]])
    def test_a_cached_vector_sets_the_dimension_a_fetch_in_the_same_pass_must_have(self, tmp_path, texts):
        make_gateway(tmp_path, embed=FixedEmbeddingProvider([0.5] * 4)).store_embeddings(["first"])
        gateway = make_gateway(tmp_path, embed=FixedEmbeddingProvider([0.5] * 3))
        with pytest.raises(ConfigError, match="dimension drift for provider fixed: 4 then 3"):
            gateway.embed_many(texts)
        assert gateway.cache.entry_count() == 1  # the drifted vector is not stored
        warm = make_gateway(tmp_path, embed=FixedEmbeddingProvider([0.5] * 4))
        assert [len(vector) for vector in warm.embed_many(texts)] == [4, 4]


class EchoChatProvider:
    """Replies with the prompt text; "bad" fails for good and "boom" is a bug."""

    provider_id = "echo"

    def __init__(self, delay=lambda text: 0.0):
        self.delay = delay
        self.calls: list[str] = []
        self.threads: list[int] = []
        self.in_flight = 0
        self.peak = 0
        self.starts: list[int] = []  # the calls in flight as each call starts, itself included
        self._lock = threading.Lock()

    def complete(self, request):
        text = request.messages[-1][1]
        with self._lock:
            self.calls.append(text)
            self.threads.append(threading.get_ident())
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.starts.append(self.in_flight)
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
        results = gateway.chat_many([chat_request(text=f"q{i}") for i in range(120)])
        assert results == [f"re: q{i}" for i in range(120)] and len(provider.calls) == 120
        assert provider.starts[:START_IN_FLIGHT] == list(range(1, START_IN_FLIGHT + 1))  # the first overlap
        assert provider.starts[START_IN_FLIGHT] <= START_IN_FLIGHT  # and the next waits for one to end
        assert START_IN_FLIGHT < provider.peak <= MAX_IN_FLIGHT  # it grows as calls succeed
        # slow start opens the window to its maximum, and a worker thread starts only as it opens a slot
        assert START_IN_FLIGHT <= len(set(provider.threads)) <= int(gateway._window.size) == MAX_IN_FLIGHT

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

    def test_the_lookups_stream_into_the_sends(self, tmp_path, monkeypatch):
        keyed, keyed_at_call = [], []
        build = gateway_module.build_cache_key
        monkeypatch.setattr(gateway_module, "LOOKUP_CHUNK", 8)
        monkeypatch.setattr(gateway_module, "build_cache_key", lambda *a: keyed.append(a) or build(*a))

        class CountingProvider(EchoChatProvider):
            def complete(self, request):
                keyed_at_call.append(len(keyed))
                return super().complete(request)

        requests = [chat_request(text=f"q{i}") for i in range(40)]
        gateway = make_gateway(tmp_path, chat=CountingProvider())
        assert gateway.chat_many(requests) == [f"re: q{i}" for i in range(40)]
        assert min(keyed_at_call) == 8 and len(keyed) == 40  # chunk 1 is sent before the rest is keyed

    def test_no_requests_make_no_calls(self, tmp_path):
        provider = EchoChatProvider()
        gateway = make_gateway(tmp_path, chat=provider)
        assert gateway.chat_many([]) == []
        assert provider.calls == []


BAD_CHAT_ENTRIES = {  # each makes a bad entry of chat_request()'s key text
    "empty": lambda key_text: b"",
    "no-newline": lambda key_text: key_text,
    "request-cut": lambda key_text: key_text[:-2] + b"\nre: Why?",
    "another-request": lambda key_text: key_text.replace(b"Why?", b"How?") + b"\nre: How?",
}


def _later(digest: str, layout: str) -> set[str]:
    return {digest} if layout == "second-pack" else set()


CHAT_READS = [  # each reads chat_request()'s entry; a chunk is read before its misses are sent
    lambda g: g.chat(chat_request()),
    lambda g: g.chat_many([chat_request()]),
    lambda g: g.chat_many([chat_request(text="fresh"), chat_request()]),
]
EMBED_READS = [  # each reads the entry of "text"; "other" comes first, and embed_many sends it first
    lambda g: g.embed_many(["other", "text"]),
    lambda g: g.stored_embeddings(["other", "text"]),
]


def the_data_error_of_each(reads, gateway) -> str:
    """The DataError message that every read gives, each on a new gateway; all must be equal."""
    messages = set()
    for read in reads:
        with pytest.raises(DataError) as raised:
            read(gateway())
        messages.add(str(raised.value))
    assert len(messages) == 1, messages
    return messages.pop()


BAD_EMBED_ENTRIES = {  # each makes a bad entry of the key text of "text", a vector in d=4
    "empty": lambda key_text: b"",
    "no-newline": lambda key_text: key_text + bytes(32),
    "no-body": lambda key_text: key_text + b"\n",
    "another-text": lambda key_text: key_text.replace(b'"text"}', b'"next"}') + b"\n" + bytes(32),
}
VECTOR_DAMAGE = {  # each turns a vector entry in the provider's dimension into a bad one
    "non-finite-body": lambda data: data[:-8] + struct.pack("<d", float("nan")),
    "short-body": lambda data: data[:-8],
    "long-body": lambda data: data + bytes(8),
    "cut-mid-value": lambda data: data[:-3],
}


class TestUnreadableCacheEntries:
    @pytest.mark.parametrize("bad", BAD_CHAT_ENTRIES.values(), ids=BAD_CHAT_ENTRIES.keys())
    @pytest.mark.parametrize("layout", ["packed", "second-pack"])
    def test_chat_entry_is_a_data_error_naming_its_file(self, tmp_path, bad, layout):
        provider = EchoChatProvider()
        key, key_text = build_cache_key(chat_request(), provider.provider_id)
        digest = key.hex()
        cache = DiskCache(tmp_path / "cache").root
        path = rewrite_cache(cache, {digest: bad(key_text)}, _later(digest, layout))[digest]
        message = the_data_error_of_each(CHAT_READS, lambda: make_gateway(tmp_path, chat=provider))
        assert message.startswith(f"corrupted cache entry: {path} entry {digest}: ")
        assert provider.calls == []

    @pytest.mark.parametrize("layout", ["packed", "second-pack"])
    @pytest.mark.parametrize("bad", BAD_EMBED_ENTRIES.values(), ids=BAD_EMBED_ENTRIES.keys())
    def test_embed_entry_is_a_data_error_naming_its_file(self, tmp_path, bad, layout):
        provider = RecordingEmbeddingProvider()
        key, key_text = build_cache_key("text", provider.provider_id)
        digest = key.hex()
        cache = DiskCache(tmp_path / "cache").root
        path = rewrite_cache(cache, {digest: bad(key_text)}, _later(digest, layout))[digest]
        message = the_data_error_of_each(EMBED_READS, lambda: make_gateway(tmp_path, embed=provider))
        assert message.startswith(f"corrupted cache entry: {path} entry {digest}: ")
        # a new gateway reads the first cached text of a store pass to learn the provider's
        # dimension, so the bad entry is named before the miss "other" is sent
        assert provider.requests == []

    @pytest.mark.parametrize("layout", ["packed", "second-pack"])
    @pytest.mark.parametrize("damage", VECTOR_DAMAGE.values(), ids=VECTOR_DAMAGE.keys())
    def test_a_bad_vector_entry_is_a_data_error_naming_its_file(self, tmp_path, damage, layout):
        provider = RecordingEmbeddingProvider()
        make_gateway(tmp_path, embed=provider).store_embeddings(["other", "text"])
        entries = cache_entries(tmp_path / "cache")
        digest = build_cache_key("text", provider.provider_id)[0].hex()
        entries[digest] = damage(entries[digest])
        path = rewrite_cache(tmp_path / "cache", entries, _later(digest, layout))[digest]
        message = the_data_error_of_each(EMBED_READS, lambda: make_gateway(tmp_path, embed=provider))
        assert message.startswith(f"corrupted cache entry: {path} entry {digest}: ")
        assert len(provider.requests) == 1

    def test_a_changed_entry_byte_is_a_checksum_error(self, tmp_path):
        chat, embed = EchoChatProvider(), RecordingEmbeddingProvider()
        make_gateway(tmp_path, chat=chat).chat(chat_request())
        make_gateway(tmp_path, embed=embed).store_embeddings(["other", "text"])
        for pack in sorted((tmp_path / "cache" / "packs").iterdir()):
            data = bytearray(pack.read_bytes())
            data[-1] ^= 0x80  # the last entry's last byte: a reply's, or a vector's sign
            pack.write_bytes(data)
        messages = [the_data_error_of_each(CHAT_READS, lambda: make_gateway(tmp_path, chat=chat))]
        messages.append(the_data_error_of_each(EMBED_READS, lambda: make_gateway(tmp_path, embed=embed)))
        cache = DiskCache(tmp_path / "cache")
        keys = [build_cache_key(chat_request(), chat.provider_id), build_cache_key("text", embed.provider_id)]
        where = [cache.locate(key) for key, _ in keys]
        assert messages == [f"corrupted cache entry: {entry}: checksum mismatch" for entry in where]
        assert (len(chat.calls), len(embed.requests)) == (1, 1)

    def test_an_entry_under_another_digest_is_a_data_error_naming_it(self, tmp_path):
        chat, embed = EchoChatProvider(), RecordingEmbeddingProvider()
        make_gateway(tmp_path, chat=chat, embed=embed).chat_many([chat_request(text="other")])
        make_gateway(tmp_path, embed=embed).store_embeddings(["first", "other"])
        entries = cache_entries(tmp_path / "cache")
        def keys(text):
            chat_key = build_cache_key(chat_request(text=text), chat.provider_id)[0]
            return chat_key, build_cache_key(text, embed.provider_id)[0]

        mine = keys("text")
        for key, other in zip(mine, keys("other")):
            entries[key.hex()] = entries[other.hex()]
        pack = rewrite_cache(tmp_path / "cache", entries)[mine[0].hex()]
        warm = make_gateway(tmp_path, chat=chat, embed=embed)
        reads = [
            lambda: warm.chat_many([chat_request(text="text")]),
            lambda: warm.stored_embeddings(["first", "text"]),
            lambda: warm.embed_many(["first", "text"]),
        ]
        for read, key in zip(reads, [mine[0], mine[1], mine[1]]):
            with pytest.raises(DataError) as raised:
                read()
            problem = "not the entry of its request"
            assert str(raised.value) == f"corrupted cache entry: {pack} entry {key.hex()}: {problem}"
        assert (len(chat.calls), len(embed.requests)) == (1, 1)


class TestPackReads:
    def test_a_warm_read_back_loads_each_entry_once_from_one_read(self, tmp_path, monkeypatch):
        embed = RecordingEmbeddingProvider()
        texts = [f"text {i}" for i in range(2 * PACK_ENTRIES)]
        make_gateway(tmp_path, embed=embed).store_embeddings(texts)
        warm, loads, reads = make_gateway(tmp_path, embed=embed), [], []
        real_load, real_read = DiskCache.load, DiskCache.read
        monkeypatch.setattr(DiskCache, "load", lambda c, *args: loads.append(args[0]) or real_load(c, *args))
        monkeypatch.setattr(DiskCache, "read", lambda c, keys: reads.append(keys) or real_read(c, keys))
        backwards = texts[::-1]
        vectors = warm.stored_embeddings(backwards)
        assert [list(v) for v in vectors] == [embed.mock.embed(t) for t in backwards] and len(reads) == 1
        assert sorted(loads) == sorted(build_cache_key(t, embed.provider_id)[0] for t in texts)

    def test_embed_many_reads_back_through_the_reader_score_uses(self, tmp_path, monkeypatch):
        embed = RecordingEmbeddingProvider()
        texts = [f"text {i}" for i in range(PACK_ENTRIES + 3)]
        make_gateway(tmp_path, embed=embed).store_embeddings(texts[:-1])
        warm, reads = make_gateway(tmp_path, embed=embed), []
        real = ProviderGateway.stored_embeddings
        monkeypatch.setattr(ProviderGateway, "stored_embeddings", lambda g, t: reads.append(t) or real(g, t))
        vectors = warm.embed_many(texts)
        # the store pass reads the first cached text to learn the dimension; the miss is stored, then read
        assert reads == [texts[:1], texts] and embed.requests[-1] == [texts[-1]]
        assert [v.tobytes() for v in vectors] == [v.tobytes() for v in real(warm, texts)]
        assert not any(v.flags.writeable for v in vectors)

    @pytest.mark.parametrize("kind", ["chat", "embed"])
    def test_a_warm_pass_opens_each_pack_once_and_one_at_a_time(self, tmp_path, monkeypatch, kind):
        texts = [f"text {i}" for i in range(3 * PACK_ENTRIES + 5)]
        requests = [chat_request(text=text) for text in texts]
        chat, embed = EchoChatProvider(), RecordingEmbeddingProvider()
        cold = make_gateway(tmp_path, chat=chat, embed=embed)
        cold.chat_many(requests) if kind == "chat" else cold.store_embeddings(texts)
        packs = sorted(cold.cache.packs.iterdir())
        assert len(packs) == 4
        warm = make_gateway(tmp_path, chat=chat, embed=embed)
        order = random.Random(3).sample(range(len(texts)), len(texts))  # chunks span packs
        passes, open_now, peak = [], set(), [0]  # the packs opened by each DiskCache.read call

        def counted_read(cache, keys):
            passes.append([])
            yield from real_read(cache, keys)

        def counted_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            passes[-1].append(Path(path))
            open_now.add(fd)
            peak[0] = max(peak[0], len(open_now))
            return fd

        def counted_close(fd):
            open_now.discard(fd)
            real_close(fd)

        real_read, real_open, real_close = DiskCache.read, os.open, os.close
        with monkeypatch.context() as patch:
            patch.setattr(DiskCache, "read", counted_read)
            patch.setattr(gateway_module.os, "open", counted_open)
            patch.setattr(gateway_module.os, "close", counted_close)
            if kind == "chat":
                replies = warm.chat_many([requests[i] for i in order])
            else:
                vectors = warm.stored_embeddings([texts[i] for i in order])
        chunks = -(-len(texts) // gateway_module.LOOKUP_CHUNK)
        assert len(passes) == (chunks if kind == "chat" else 1)
        assert all(len(opened) == len(set(opened)) for opened in passes)  # each pack at most once per pass
        assert sorted({path for opened in passes for path in opened}) == packs
        assert peak[0] == 1 and not open_now
        if kind == "chat":
            assert replies == [f"re: {texts[i]}" for i in order]
        else:
            assert [list(v) for v in vectors] == [embed.mock.embed(texts[i]) for i in order]
        assert (len(chat.calls), len(embed.requests)) == ((len(texts), 0) if kind == "chat" else (0, 4))
