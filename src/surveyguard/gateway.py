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
import os
import random
import re
import tempfile
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ProviderError, TransientProviderError
from .providers import ChatProvider, EmbeddingProvider

EMBED_BATCH = 64  # texts per embedding request on a cache miss
MAX_IN_FLIGHT = 5  # provider calls running at once
RETRIES = 3  # attempts per provider call, the first included
BACKOFF_BASE_S = 1.0  # delay before the first retry; doubles on each further one


def check_temperature(temperature: float) -> None:
    """The sampling-temperature domain of every chat request: [0, 1]."""
    if not 0.0 <= temperature <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {temperature}")


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
        object.__setattr__(self, "messages", tuple((str(r), str(t)) for r, t in self.messages))
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        check_temperature(self.temperature)
        if not self.messages:
            raise ValueError("messages must be non-empty")


@dataclass(frozen=True)
class ChatResult:
    text: str  # exactly as returned by the provider, untrimmed
    model_id: str
    cached: bool


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A provider-produced real vector for one text, held as a read-only float64 copy."""

    values: np.ndarray
    provider_id: str
    dim: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (self.dim,):
            raise ValueError(f"dim {self.dim} != shape of values {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("embedding contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:  # unhashable, like the array it holds
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        same = (self.provider_id, self.dim) == (other.provider_id, other.dim)
        return same and np.array_equal(self.values, other.values)


@dataclass(frozen=True)
class CacheKey:
    digest: str  # 64 hex chars, SHA-256 of the canonical request
    _HEX = re.compile(r"[0-9a-f]{64}")  # the digest becomes a file name

    def __post_init__(self) -> None:
        if not self._HEX.fullmatch(self.digest):
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
    """One file per key under the cache root; writes are atomic and at-most-once.

    Response ``values`` given as an array are stored as ``_VECTOR_MAGIC``, a JSON line
    with ``response: {"dim": d}`` and ``8 * d`` bytes of ``<f8``; the rest as a JSON line.
    ``load`` also reads embeddings stored as JSON lists by earlier versions, as they are.
    """

    _VECTOR_MAGIC = b"\x93SURVEYGUARD-F8\n"  # 0x93 starts no UTF-8 text, so no JSON entry

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def path_for(self, key: CacheKey) -> Path:
        return self.root / key.digest

    def load(self, key: CacheKey) -> dict | None:
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            if data.startswith(self._VECTOR_MAGIC):
                header, _, body = data[len(self._VECTOR_MAGIC) :].partition(b"\n")
                entry = json.loads(header.decode("utf-8"))
                dim = entry["response"]["dim"]
                if len(body) != 8 * dim:
                    raise ValueError(f"vector body of {len(body)} bytes, not 8 * dim {dim}")
                entry["response"]["values"] = np.frombuffer(body, dtype="<f8")
            else:
                entry = json.loads(data.decode("utf-8"))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"corrupted cache entry: {path}: {exc!r}") from exc
        if not isinstance(entry, dict):
            raise DataError(f"corrupted cache entry: {path}: not a JSON object")
        return entry

    def store(self, key: CacheKey, entry: dict) -> bool:
        """Store entry unless the key already exists. Returns True if written.

        The entry is written to a temp file and hard-linked into place, which
        fails if the name exists: the first store of a key wins, across
        processes too, and no reader sees a partial entry.
        """
        values = entry["response"].get("values")
        if isinstance(values, np.ndarray):
            header = _canonical({**entry, "response": {"dim": len(values)}}).encode("utf-8")
            data = b"".join([self._VECTOR_MAGIC, header, b"\n", values.astype("<f8").tobytes()])
        else:
            data = (_canonical(entry) + "\n").encode("utf-8")
        # One store at a time: concurrent creates in one directory contend in
        # the kernel, and cost more system time than they overlap.
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.link(tmp, self.path_for(key))
            except FileExistsError:
                return False
            finally:
                os.unlink(tmp)
        return True

    def entry_count(self) -> int:
        return sum(1 for p in self.root.iterdir() if p.is_file() and not p.name.startswith("."))


def _fan_out(items: Sequence, call: Callable) -> list:
    """``call`` on each item from up to ``MAX_IN_FLIGHT`` workers, results in input order.

    The calling thread is a worker, so one item starts no thread. A ProviderError
    takes its item's place; any other exception is raised once the others finish.
    """
    results: list = [None] * len(items)
    pending = enumerate(items)
    take = threading.Lock()

    # One loop per worker over a shared iterator: a Future per item
    # would cost memory in proportion to the batch.
    def work() -> None:
        while True:
            with take:
                index, item = next(pending, (None, None))
            if index is None:
                return
            try:
                results[index] = call(item)
            except ProviderError as exc:
                results[index] = exc

    with ThreadPoolExecutor(MAX_IN_FLIGHT) as pool:
        helpers = [pool.submit(work) for _ in range(min(MAX_IN_FLIGHT, len(items)) - 1)]
        work()
    for helper in helpers:
        helper.result()
    return results


@dataclass
class GatewayStats:
    provider_calls: int = 0  # provider round-trips, retries included; an embed batch is one
    cache_hits: int = 0
    cache_misses: int = 0


class ProviderGateway:
    """Cache-through front of the configured providers.

    Safe for concurrent use: at most ``MAX_IN_FLIGHT`` provider calls run at
    once, the cache takes one lock for every write, and results come back in
    the caller's order, never in arrival order. A cached response that makes no
    valid result (say, a short or non-finite vector) is a DataError naming its file.
    """

    def __init__(
        self,
        cache: DiskCache,
        chat_provider: ChatProvider | None = None,
        embedding_provider: EmbeddingProvider | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cache = cache
        self.chat_provider = chat_provider
        self.embedding_provider = embedding_provider
        self._sleep = sleep
        self._sem = threading.BoundedSemaphore(MAX_IN_FLIGHT)
        self._stats_lock = threading.Lock()
        self._jitter = random.Random(0)
        self._embed_dims: dict[str, int] = {}
        self.stats = GatewayStats()

    def _call_with_retry(self, fn: Callable[[], object], what: str) -> object:
        last: ProviderError | None = None
        for attempt in range(RETRIES):
            try:
                with self._sem:
                    with self._stats_lock:
                        self.stats.provider_calls += 1
                    return fn()
            except TransientProviderError as exc:
                last = exc
                if attempt < RETRIES - 1:
                    delay = BACKOFF_BASE_S * (2**attempt) * (1.0 + 0.5 * self._jitter.random())
                    self._sleep(delay)
        assert last is not None
        raise ProviderError(
            f"{what} failed after {RETRIES} attempts: {last}", status=last.status, attempts=RETRIES
        ) from last

    def _lookup(self, items: Sequence, provider_id: str, read: Callable[[dict], object]) -> tuple[dict, list]:
        """Hits made by ``read`` from cached responses, and (item, key) misses, in input order.

        A repeated item counts as a hit; a KeyError, TypeError or ValueError from ``read`` is a DataError.
        """
        hits = {}
        misses = []
        for item in dict.fromkeys(items):
            key = build_cache_key(item, provider_id)
            entry = self.cache.load(key)
            if entry is None:
                misses.append((item, key))
                continue
            try:
                hits[item] = read(entry["response"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"corrupted cache entry: {self.cache.path_for(key)}: {exc!r}") from exc
        with self._stats_lock:
            self.stats.cache_misses += len(misses)
            self.stats.cache_hits += len(items) - len(misses)
        return hits, misses

    def _store(self, key: CacheKey, material: dict, response: dict) -> None:
        stored_at = datetime.now(timezone.utc).isoformat()
        self.cache.store(key, {"request": material, "response": response, "stored_at": stored_at})

    def _vector(self, provider_id: str, values: Sequence[float], dim: int) -> EmbeddingVector:
        """A cached or fetched vector, in the dimension of the provider's first one."""
        vector = EmbeddingVector(values=values, provider_id=provider_id, dim=dim)
        seen = self._embed_dims.setdefault(provider_id, dim)
        if seen != dim:
            raise ConfigError(f"embedding dimension drift for provider {provider_id}: {seen} then {dim}")
        return vector

    def chat(self, request: ChatRequest) -> ChatResult:
        """Cache-through chat completion; see ``chat_many``."""
        result = self.chat_many([request])[0]
        if isinstance(result, ProviderError):
            raise result
        return result

    def chat_many(self, requests: Sequence[ChatRequest]) -> list[ChatResult | ProviderError]:
        """Cache-through chat completions, returned in input order.

        Every request is looked up first, and each distinct miss is sent once
        through ``_fan_out``: one that fails for good gets its ProviderError
        in its place. A repeated request counts as a cache hit.
        """
        if self.chat_provider is None:
            raise ConfigError("no chat provider configured")
        provider_id = self.chat_provider.provider_id

        def read(response: dict) -> str:
            if not isinstance(response["text"], str):
                raise TypeError("response text is not a string")
            return response["text"]

        cached, misses = self._lookup(requests, provider_id, read)

        def send(miss: tuple[ChatRequest, CacheKey]) -> ChatResult:
            request, key = miss
            text = self._call_with_retry(
                lambda: self.chat_provider.complete(request), f"chat({request.model_id})"
            )
            self._store(key, chat_key_material(request, provider_id), {"text": text})
            return ChatResult(text=text, model_id=request.model_id, cached=False)

        results = {r: ChatResult(text, r.model_id, cached=True) for r, text in cached.items()}
        results.update(zip((request for request, _ in misses), _fan_out(misses, send)))
        return [results[request] for request in requests]

    def embed(self, text: str) -> EmbeddingVector:
        """Cache-through embedding of one text; see ``embed_many``."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Cache-through embeddings, returned in input order.

        Empty texts are rejected before any call. Distinct uncached texts go
        to the provider ``EMBED_BATCH`` at a time through ``_fan_out``; each
        batch is one call, retried as a unit, and all its vectors are checked
        for dimension drift and finiteness before any is stored. A batch that
        fails for good raises its ProviderError once the others are stored.
        """
        if self.embedding_provider is None:
            raise ConfigError("no embedding provider configured")
        if any(not text.strip() for text in texts):
            raise DataError("empty text")
        provider_id = self.embedding_provider.provider_id
        vectors, misses = self._lookup(
            texts, provider_id, lambda r: self._vector(provider_id, r["values"], r["dim"])
        )

        def send(batch: list[tuple[str, CacheKey]]) -> None:
            batch_texts = [text for text, _ in batch]
            raw: Sequence[Sequence[float]] = self._call_with_retry(
                lambda: self.embedding_provider.embed_many(batch_texts), "embed"
            )
            if len(raw) != len(batch):
                raise ProviderError(
                    f"embedding provider returned {len(raw)} vectors for {len(batch)} texts"
                )
            fetched = [self._vector(provider_id, values, len(values)) for values in raw]
            for (text, key), vector in zip(batch, fetched):
                material = embed_key_material(text, provider_id)
                self._store(key, material, {"values": vector.values, "dim": vector.dim})
                vectors[text] = vector

        batches = [misses[i : i + EMBED_BATCH] for i in range(0, len(misses), EMBED_BATCH)]
        for outcome in _fan_out(batches, send):
            if isinstance(outcome, ProviderError):
                raise outcome
        return [vectors[text] for text in texts]
