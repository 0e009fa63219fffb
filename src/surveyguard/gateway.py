"""Single choke point for chat-completion and embedding calls.

Every call goes through a content-addressed disk cache keyed by a SHA-256
digest of the canonical request, with bounded retries, a concurrency cap,
and call counters. With a warm cache a whole pipeline re-run performs zero
provider calls, which is what makes reruns reproducible even against
nondeterministic commercial models.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .errors import ConfigError, DataError, ProviderError, TransientProviderError
from .providers import ChatProvider, EmbeddingProvider

EMBED_BATCH = 64  # texts per embedding request on a cache miss


class PurposeTag(str, Enum):
    DETECT = "detect"
    GENERATE_SIGNATURE = "generate_signature"


@dataclass(frozen=True)
class ChatRequest:
    """An immutable chat-completion request; validated at construction."""

    model_id: str
    temperature: float
    messages: tuple[tuple[str, str], ...]
    purpose: PurposeTag

    def __post_init__(self) -> None:
        object.__setattr__(self, "temperature", float(self.temperature))
        object.__setattr__(
            self, "messages", tuple((str(r), str(t)) for r, t in self.messages)
        )
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature must be in [0, 1], got {self.temperature}")
        if not self.messages:
            raise ValueError("messages must be non-empty")


@dataclass(frozen=True)
class ChatResult:
    text: str  # exactly as returned by the provider, untrimmed
    model_id: str
    cached: bool


@dataclass(frozen=True)
class EmbeddingVector:
    """A provider-produced real vector for one text."""

    values: tuple[float, ...]
    provider_id: str
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.dim != len(self.values):
            raise ValueError(f"dim {self.dim} != len(values) {len(self.values)}")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("embedding contains non-finite values")


@dataclass(frozen=True)
class CacheKey:
    digest: str  # 64 hex chars, SHA-256 of the canonical request

    def __post_init__(self) -> None:
        if len(self.digest) != 64 or any(c not in "0123456789abcdef" for c in self.digest):
            raise ValueError(f"not a SHA-256 hex digest: {self.digest!r}")


def _canonical(material: dict) -> str:
    return json.dumps(material, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def chat_key_material(request: ChatRequest, provider_id: str) -> dict:
    return {
        "kind": "chat",
        "provider_id": provider_id,
        "model_id": request.model_id,
        "temperature": request.temperature,
        "purpose": request.purpose.value,
        "messages": [[role, text] for role, text in request.messages],
    }


def embed_key_material(text: str, provider_id: str) -> dict:
    return {"kind": "embed", "provider_id": provider_id, "text": text}


def build_cache_key(request_or_text: ChatRequest | str, provider_id: str) -> CacheKey:
    """Deterministic key; any field change (including temperature) changes it."""
    if isinstance(request_or_text, ChatRequest):
        material = chat_key_material(request_or_text, provider_id)
    else:
        material = embed_key_material(request_or_text, provider_id)
    digest = hashlib.sha256(_canonical(material).encode("utf-8")).hexdigest()
    return CacheKey(digest=digest)


class DiskCache:
    """One file per key under the cache root; writes are atomic and at-most-once."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def path_for(self, key: CacheKey) -> Path:
        return self.root / key.digest

    def load(self, key: CacheKey) -> dict | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def store(self, key: CacheKey, entry: dict) -> bool:
        """Store entry unless the key already exists. Returns True if written."""
        path = self.path_for(key)
        with self._lock:
            if path.exists():
                return False
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(_canonical(entry))
                    fh.write("\n")
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return True

    def entry_count(self) -> int:
        return sum(1 for p in self.root.iterdir() if p.is_file() and not p.name.startswith("."))


@dataclass
class GatewayStats:
    provider_calls: int = 0  # provider round-trips, retries included; an embed batch is one
    cache_hits: int = 0
    cache_misses: int = 0


class ProviderGateway:
    """Cache-through front of the configured providers.

    Safe for concurrent use: at most ``max_in_flight`` provider calls run at
    once, the cache serializes writes per key, and callers are expected to
    order results by their own stable keys, never by arrival order.
    """

    def __init__(
        self,
        cache: DiskCache,
        chat_provider: ChatProvider | None = None,
        embedding_provider: EmbeddingProvider | None = None,
        retries: int = 3,
        backoff_base: float = 1.0,
        max_in_flight: int = 5,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if retries < 1:
            raise ConfigError("retries must be >= 1")
        self.cache = cache
        self.chat_provider = chat_provider
        self.embedding_provider = embedding_provider
        self.retries = retries
        self.backoff_base = backoff_base
        self.max_in_flight = max_in_flight
        self._sleep = sleep
        self._sem = threading.BoundedSemaphore(max_in_flight)
        self._stats_lock = threading.Lock()
        self._jitter = random.Random(0)
        self._embed_dims: dict[str, int] = {}
        self.stats = GatewayStats()

    # -- internals ----------------------------------------------------------

    def _call_with_retry(self, fn: Callable[[], object], what: str) -> object:
        last: ProviderError | None = None
        for attempt in range(self.retries):
            try:
                with self._sem:
                    with self._stats_lock:
                        self.stats.provider_calls += 1
                    return fn()
            except TransientProviderError as exc:
                last = exc
                if attempt < self.retries - 1:
                    delay = self.backoff_base * (2**attempt) * (1.0 + 0.5 * self._jitter.random())
                    self._sleep(delay)
        assert last is not None
        raise ProviderError(
            f"{what} failed after {self.retries} attempts: {last}",
            status=last.status,
            attempts=self.retries,
        ) from last

    def _vector(self, provider_id: str, raw: Sequence[float]) -> EmbeddingVector:
        """Validate one cached or fetched vector, including its dimension."""
        values = tuple(float(v) for v in raw)
        dim = len(values)
        seen = self._embed_dims.setdefault(provider_id, dim)
        if seen != dim:
            raise ConfigError(
                f"embedding dimension drift for provider {provider_id}: {seen} then {dim}"
            )
        return EmbeddingVector(values=values, provider_id=provider_id, dim=dim)

    # -- public API ---------------------------------------------------------

    def chat(self, request: ChatRequest) -> ChatResult:
        """Cache-through chat completion; a hit makes no provider call."""
        if self.chat_provider is None:
            raise ConfigError("no chat provider configured")
        provider_id = self.chat_provider.provider_id
        key = build_cache_key(request, provider_id)
        entry = self.cache.load(key)
        if entry is not None:
            with self._stats_lock:
                self.stats.cache_hits += 1
            return ChatResult(text=entry["response"]["text"], model_id=request.model_id, cached=True)
        with self._stats_lock:
            self.stats.cache_misses += 1
        text = self._call_with_retry(
            lambda: self.chat_provider.complete(request), f"chat({request.model_id})"
        )
        self.cache.store(
            key,
            {
                "request": chat_key_material(request, provider_id),
                "response": {"text": text},
                "stored_at": datetime.now(timezone.utc).isoformat(),
            },
        )
        return ChatResult(text=text, model_id=request.model_id, cached=False)

    def embed(self, text: str) -> EmbeddingVector:
        """Cache-through embedding of one text; see ``embed_many``."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Cache-through embeddings, returned in input order.

        Empty texts are rejected before any call. Distinct uncached texts go
        to the provider ``EMBED_BATCH`` at a time; each batch is one provider
        call, retried as a unit, and every vector in it is checked for
        dimension drift and finiteness before any of them is stored.
        """
        if self.embedding_provider is None:
            raise ConfigError("no embedding provider configured")
        if any(not text.strip() for text in texts):
            raise DataError("empty text")
        provider_id = self.embedding_provider.provider_id
        vectors: dict[str, EmbeddingVector] = {}
        misses: list[tuple[str, CacheKey]] = []
        for text in dict.fromkeys(texts):
            key = build_cache_key(text, provider_id)
            entry = self.cache.load(key)
            if entry is None:
                misses.append((text, key))
            else:
                vectors[text] = self._vector(provider_id, entry["response"]["values"])
        with self._stats_lock:
            # A repeated text is served without a call, as a hit would be.
            self.stats.cache_misses += len(misses)
            self.stats.cache_hits += len(texts) - len(misses)
        for start in range(0, len(misses), EMBED_BATCH):
            batch = misses[start : start + EMBED_BATCH]
            batch_texts = [text for text, _ in batch]
            raw: Sequence[Sequence[float]] = self._call_with_retry(
                lambda: self.embedding_provider.embed_many(batch_texts), "embed"
            )
            if len(raw) != len(batch):
                raise ProviderError(
                    f"embedding provider returned {len(raw)} vectors for {len(batch)} texts"
                )
            fetched = [self._vector(provider_id, values) for values in raw]
            for (text, key), vector in zip(batch, fetched):
                self.cache.store(
                    key,
                    {
                        "request": embed_key_material(text, provider_id),
                        "response": {"values": list(vector.values), "dim": vector.dim},
                        "stored_at": datetime.now(timezone.utc).isoformat(),
                    },
                )
                vectors[text] = vector
        return [vectors[text] for text in texts]
