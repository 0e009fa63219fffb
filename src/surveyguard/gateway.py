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
import struct
import tempfile
import threading
import time
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ProviderError, TransientProviderError
from .providers import REQUEST_TIMEOUT_S, ChatProvider, EmbeddingProvider

EMBED_BATCH = 64  # texts per embedding request on a cache miss
PACK_ENTRIES = 64  # pending cache entries committed as one pack
MAX_IN_FLIGHT = 5  # provider calls running at once
RETRIES = 3  # attempts per provider call, the first included
BACKOFF_BASE_S = 1.0  # delay before the first retry; doubles on each further one
_DIGEST_NAME = re.compile(r"[0-9a-f]{64}")  # the hex digest that names a one-file entry


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


def canonical_json(
    obj: object, *, _encode=json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
) -> str:
    """The one JSON form of cache keys, cache entries and artifacts: one line, sorted keys,
    no spaces, non-ASCII kept. Built once, and without an indent, the encoder runs in C."""
    return _encode(obj)


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


@cache
def _embed_key_prefix(provider_id: str) -> str:
    """``canonical_json(embed_key_material(text, provider_id))`` up to the text, whose key sorts last."""
    return canonical_json(embed_key_material("", provider_id)).removesuffix('""}')


def build_cache_key(request_or_text: ChatRequest | str, provider_id: str) -> bytes:
    """The 32-byte SHA-256 digest of the canonical request; any field change (including
    temperature) changes it."""
    if isinstance(request_or_text, ChatRequest):
        data = canonical_json(chat_key_material(request_or_text, provider_id))
    else:
        data = _embed_key_prefix(provider_id) + encode_basestring(request_or_text) + "}"
    return hashlib.sha256(data.encode("utf-8")).digest()


class DiskCache:
    """Entries pending in memory, then packs under ``root/packs``; the lowest-numbered pack
    holding a key wins. A pack is ``_PACK_MAGIC``, a ``<u4`` count, a ``_ROW`` per entry, a
    ``stored_at`` line, then the entries: an array response ``values`` as ``_VECTOR_MAGIC``,
    a JSON line with ``response: {"dim": d}`` and ``8 * d`` bytes of ``<f8``; any other entry
    as a JSON line. ``root/<hex digest>`` files of earlier versions, JSON vectors included, are
    read. Keys are the digests ``build_cache_key`` makes.
    """

    _VECTOR_MAGIC = b"\x93SURVEYGUARD-F8\n"  # 0x93 starts no UTF-8 text, so no JSON entry
    _PACK_MAGIC = b"\x93SURVEYGUARD-PACK\n"
    _ROW = struct.Struct("<32sI")  # digest, end offset

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.packs = self.root / "packs"
        self.packs.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # digest -> pack slot (pack << 32 | row), or the entry's bytes while it is pending
        self._index: dict[bytes, int | bytes] = {}
        self._packs: list[tuple[int, Path, array]] = []  # number, path, entry bounds
        self._pending: dict[bytes, bytes] = {}
        self._next = 0  # the pack number to try first
        self.refresh()

    def refresh(self) -> None:
        """Index the packs committed since the last call, by any process; note any one-file entry."""
        with os.scandir(self.root) as entries:
            self._loose = any(_DIGEST_NAME.fullmatch(e.name) for e in entries)
        known = {number for number, _, _ in self._packs}
        names = sorted((n for n in os.listdir(self.packs) if n.isdecimal() and int(n) not in known), key=int)
        for path in map(self.packs.joinpath, names):
            with open(path, "rb") as fh:
                head = fh.read(len(self._PACK_MAGIC) + 4)
                if head[:-4] != self._PACK_MAGIC:
                    raise DataError(f"corrupted cache pack: {path}: no pack header")
                size = self._ROW.size * int.from_bytes(head[-4:], "little")
                table = fh.read(size)
                if len(table) != size:
                    raise DataError(f"corrupted cache pack: {path}: table of {len(table)} bytes, not {size}")
                fh.readline()  # stored_at
                rows = list(self._ROW.iter_unpack(table))
                bounds = array("I", [fh.tell(), *(end for _, end in rows)])
            self._add(int(path.name), path, [digest for digest, _ in rows], bounds)
        self._next = max(self._next, int(names[-1]) + 1 if names else 0)

    def _add(self, number: int, path: Path, digests: list[bytes], bounds: array) -> None:
        with self._lock:
            pack = len(self._packs)
            self._packs.append((number, path, bounds))
            for row, digest in enumerate(digests):
                held = self._index.get(digest)
                if not isinstance(held, int) or self._packs[held >> 32][0] > number:
                    self._index[digest] = pack << 32 | row

    def locate(self, key: bytes) -> str:
        """Where the key's committed entry is read from: its pack and digest, or its own file."""
        held = self._index.get(key)
        if isinstance(held, int):
            return f"{self._packs[held >> 32][1]} entry {key.hex()}"
        return str(self.root / key.hex())

    def __contains__(self, key: bytes) -> bool:
        return key in self._index or self._loose and (self.root / key.hex()).is_file()

    def load(self, key: bytes) -> dict | None:
        held = self._index.get(key)
        if isinstance(held, bytes):
            data = held
        elif held is None:
            if not self._loose:  # no one-file entry either: a miss opens no file
                return None
            try:
                data = (self.root / key.hex()).read_bytes()
            except FileNotFoundError:
                return None
        else:
            _, path, bounds = self._packs[held >> 32]
            start, stop = bounds[held & 0xFFFFFFFF], bounds[(held & 0xFFFFFFFF) + 1]
            fd = os.open(path, os.O_RDONLY)
            try:
                data = os.pread(fd, max(stop - start, 0), start)
            finally:
                os.close(fd)
            if len(data) != stop - start:
                raise DataError(f"corrupted cache entry: {self.locate(key)}: truncated pack")
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
            raise DataError(f"corrupted cache entry: {self.locate(key)}: {exc!r}") from exc
        if not isinstance(entry, dict):
            raise DataError(f"corrupted cache entry: {self.locate(key)}: not a JSON object")
        return entry

    def store(self, key: bytes, entry: dict) -> bool:
        """Add entry as pending unless the key is held. Returns True if added."""
        values = entry["response"].get("values")
        if isinstance(values, np.ndarray):
            header = canonical_json({**entry, "response": {"dim": len(values)}}).encode("utf-8")
            data = b"".join([self._VECTOR_MAGIC, header, b"\n", values.astype("<f8").tobytes()])
        else:
            data = (canonical_json(entry) + "\n").encode("utf-8")
        with self._lock:
            if key in self._index:
                return False
            self._index[key] = self._pending[key] = data
            full = len(self._pending) >= PACK_ENTRIES
        if full:
            self.flush()
        return True

    def flush(self) -> None:
        """Commit the pending entries as a pack: a temp file hard-linked to the lowest free
        number above every pack seen. So commit order is name order, across processes too."""
        with self._lock:
            batch, self._pending = self._pending, {}
        if not batch:
            return
        stored_at = (datetime.now(timezone.utc).isoformat() + "\n").encode("utf-8")
        start = len(self._PACK_MAGIC) + 4 + self._ROW.size * len(batch) + len(stored_at)
        bounds = array("I", accumulate(map(len, batch.values()), initial=start))
        fd, tmp = tempfile.mkstemp(dir=self.packs, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines([self._PACK_MAGIC, len(batch).to_bytes(4, "little")])
                fh.writelines([*map(self._ROW.pack, batch, bounds[1:]), stored_at, *batch.values()])
            number = first = self._next
            while True:
                path = self.packs / f"{number:08d}"
                try:
                    os.link(tmp, path)
                    break
                except FileExistsError:
                    number += 1
        finally:
            os.unlink(tmp)
        self._next = number + 1
        self._add(number, path, list(batch), bounds)
        if number != first:  # others committed packs since the last refresh
            self.refresh()

    def entry_count(self) -> int:
        """Distinct keys over the packs, pending entries and files of earlier versions."""
        self.refresh()
        # scandir's DirEntry knows its type from the listing: no stat per entry.
        with os.scandir(self.root) as entries:
            files = [e.name for e in entries if _DIGEST_NAME.fullmatch(e.name) and e.is_file()]
        return len(self._index) + sum(bytes.fromhex(name) not in self._index for name in files)


def _fan_out(items: Iterable, call: Callable) -> list:
    """``call`` on each item from up to ``MAX_IN_FLIGHT`` workers, results in input order.

    The calling thread is a worker; helpers start only for a second item, and items are drawn
    one at a time under a lock, so a generator may make them as needed. A ProviderError takes
    its item's place; any other exception is raised once the others finish.
    """
    results: dict = {}
    pending = enumerate(items)
    first = list(islice(pending, 2))
    pending = chain(first, pending)
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
        helpers = [pool.submit(work) for _ in range(MAX_IN_FLIGHT - 1 if len(first) > 1 else 0)]
        work()
    for helper in helpers:
        helper.result()
    return [results[index] for index in range(len(results))]


@dataclass
class GatewayStats:
    provider_calls: int = 0  # provider round-trips, retries included; an embed batch is one
    cache_hits: int = 0
    cache_misses: int = 0


class ProviderGateway:
    """Cache-through front of the configured providers.

    Safe for concurrent use: at most ``MAX_IN_FLIGHT`` provider calls run at once,
    each pass of them commits its cache entries, also when it raises, and results
    come back in the caller's order, never in arrival order. A cached response that
    makes no valid result (say, a short or non-finite vector) is a DataError naming
    its pack and digest, or its file.
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
                    self._sleep(min(max(delay, exc.retry_after or 0.0), REQUEST_TIMEOUT_S))
        assert last is not None
        raise ProviderError(
            f"{what} failed after {RETRIES} attempts: {last}", status=last.status, attempts=RETRIES
        ) from last

    def _lookup(
        self, items: Iterable, provider_id: str, read: Callable[[dict], object], sent: set, hits: dict | None
    ) -> Iterator[tuple]:
        """Yield each miss as (item, key), in input order, once the item is in ``sent``; put what
        ``_read`` makes of each cached response in ``hits``. With no ``hits``, the cache is only
        asked whether it holds the key. An item in ``sent`` or ``hits`` counts as a hit. Lazy:
        ``_fan_out``'s workers look up a batch while others send."""
        self.cache.refresh()
        found = missed = 0
        for item in items:
            if item in sent or item in (hits or ()):
                found += 1
                continue
            key = build_cache_key(item, provider_id)
            value = self._read(key, read) if hits is not None else (key in self.cache or None)
            if value is None:
                missed += 1
                sent.add(item)
                yield item, key
                continue
            found += 1
            if hits is not None:
                hits[item] = value
        with self._stats_lock:
            self.stats.cache_misses += missed
            self.stats.cache_hits += found

    def _read(self, key: bytes, read: Callable[[dict], object]) -> object:
        """What ``read`` makes of the key's cached response, or None if there is none; a KeyError,
        TypeError or ValueError from ``read`` is a DataError naming the entry."""
        entry = self.cache.load(key)
        try:
            return None if entry is None else read(entry["response"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"corrupted cache entry: {self.cache.locate(key)}: {exc!r}") from exc

    def _send(self, items: Iterable, call: Callable) -> list:
        """``_fan_out``, then commit the entries it stored, also when it raises."""
        try:
            return _fan_out(items, call)
        finally:
            self.cache.flush()

    def _vector(self, provider_id: str, response: dict) -> np.ndarray:
        """A cached or fetched response's vector as a read-only float64 copy: finite, of shape
        ``(dim,)``, and in the dimension of the provider's first one."""
        dim = response["dim"]
        vector = np.array(response["values"], dtype=np.float64)
        if vector.shape != (dim,):
            raise ValueError(f"dim {dim} != shape of values {vector.shape}")
        if not np.isfinite(vector).all():
            raise ValueError("embedding contains non-finite values")
        vector.flags.writeable = False
        seen = self._embed_dims.setdefault(provider_id, dim)
        if seen != dim:
            raise ConfigError(f"embedding dimension drift for provider {provider_id}: {seen} then {dim}")
        return vector

    def chat(self, request: ChatRequest) -> str:
        """Cache-through chat completion; see ``chat_many``."""
        result = self.chat_many([request])[0]
        if isinstance(result, ProviderError):
            raise result
        return result

    def chat_many(self, requests: Sequence[ChatRequest]) -> list[str | ProviderError]:
        """Cache-through chat completions, each reply exactly as the provider returned it, in
        input order.

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

        replies: dict[ChatRequest, str | ProviderError] = {}
        misses = list(self._lookup(requests, provider_id, read, set(), replies))

        def send(miss: tuple[ChatRequest, bytes]) -> str:
            request, key = miss
            text = self._call_with_retry(
                lambda: self.chat_provider.complete(request), f"chat({request.model_id})"
            )
            material = chat_key_material(request, provider_id)
            self.cache.store(key, {"request": material, "response": {"text": text}})
            return text

        replies.update(zip((request for request, _ in misses), self._send(misses, send)))
        return [replies[request] for request in requests]

    def embed(self, text: str) -> np.ndarray:
        """Cache-through embedding of one text; see ``embed_many``."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Cache-through embeddings as read-only float64 arrays, in input order; see
        ``store_embeddings``."""
        vectors: dict[str, np.ndarray] = {}
        self.store_embeddings(texts, vectors)
        return [vectors[text] for text in texts]

    def store_embeddings(self, texts: Sequence[str], vectors: dict | None = None) -> None:
        """Fetch and store the vector of every uncached text in one ``_lookup``-``_fan_out`` pass.

        ``vectors``, if given, gets every text's vector, each cached one read and checked as it
        is looked up. Without it no vector is kept, and a cached text is only looked for, to be
        read by ``stored_embeddings``. Empty texts are rejected before any call. Distinct
        uncached texts go to the provider ``EMBED_BATCH`` at a time, in input order; each batch
        is one call, retried as a unit, and all its vectors are checked for dimension drift and
        finiteness before any is stored. A batch that fails for good raises its ProviderError
        once the others are stored.
        """
        if self.embedding_provider is None:
            raise ConfigError("no embedding provider configured")
        if any(not text.strip() for text in texts):
            raise DataError("empty text")
        provider_id = self.embedding_provider.provider_id
        in_flight: set[str] = set()  # sent and not yet stored; a repeat of one is a hit
        misses = self._lookup(texts, provider_id, partial(self._vector, provider_id), in_flight, vectors)

        def send(batch: list[tuple[str, bytes]]) -> None:
            batch_texts = [text for text, _ in batch]
            raw = self._call_with_retry(lambda: self.embedding_provider.embed_many(batch_texts), "embed")
            if len(raw) != len(batch):
                raise ProviderError(f"embedding provider returned {len(raw)} vectors for {len(batch)} texts")
            fetched = [self._vector(provider_id, {"values": v, "dim": len(v)}) for v in raw]
            for (text, key), vector in zip(batch, fetched):
                material = embed_key_material(text, provider_id)
                entry = {"request": material, "response": {"values": vector, "dim": len(vector)}}
                self.cache.store(key, entry)
                if vectors is not None:
                    vectors[text] = vector
            in_flight.difference_update(batch_texts)  # the cache holds them now

        for outcome in self._send(iter(lambda: list(islice(misses, EMBED_BATCH)), []), send):
            if isinstance(outcome, ProviderError):
                raise outcome

    def stored_embeddings(self, texts: Sequence[str]) -> np.ndarray:
        """The stored vectors of texts as one ``(n, d)`` array, rows in input order: no provider
        call, and no hit counted again."""
        provider_id = self.embedding_provider.provider_id
        read = partial(self._vector, provider_id)
        vectors = {t: self._read(build_cache_key(t, provider_id), read) for t in dict.fromkeys(texts)}
        if any(vector is None for vector in vectors.values()):  # ``None in`` would compare arrays
            raise DataError("a text has no stored embedding: store_embeddings must come first")
        return np.array([vectors[text] for text in texts], dtype=np.float64)
