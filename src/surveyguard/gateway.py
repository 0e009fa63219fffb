"""Single choke point for chat-completion and embedding calls.

Every call goes through a content-addressed disk cache keyed by a SHA-256
digest of the canonical request, with bounded retries, a congestion window
over the calls in flight, and call counters. With a warm cache a whole
pipeline re-run performs zero provider calls, which is what makes reruns
reproducible even against nondeterministic commercial models.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import random
import re
import struct
import tempfile
import threading
import time
import zlib
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from itertools import accumulate, chain, count, islice
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ProviderError, TransientProviderError
from .providers import REQUEST_TIMEOUT_S, ChatProvider, EmbeddingProvider

EMBED_BATCH = 64  # texts per embedding request on a cache miss
PACK_ENTRIES = 64  # pending cache entries committed as one pack
LOOKUP_CHUNK = 64  # lookups read together, grouped by pack; their key texts are held until sent
START_IN_FLIGHT = 5  # provider calls a gateway's window lets run at once before any answers
MAX_IN_FLIGHT = 32  # the most the window grows to, and _fan_out's worker count
RETRIES = 3  # attempts per provider call, the first included
BACKOFF_BASE_S = 1.0  # delay before the first retry; doubles on each further one


def check_temperature(temperature: float) -> None:
    """The sampling-temperature domain of every chat request: [0, 1]."""
    if not 0.0 <= temperature <= 1.0:
        raise ValueError(f"temperature must be in [0, 1], got {temperature}")


def check_chat_settings(model_id: str, temperature: float) -> None:
    """What each distinct model and temperature of a chat pass is checked for before any provider call."""
    if not model_id:
        raise ValueError("model_id must be non-empty")
    check_temperature(temperature)


class PurposeTag(str, Enum):
    DETECT = "detect"
    GENERATE_SIGNATURE = "generate_signature"


@dataclass(frozen=True)
class ChatRequest:
    """An immutable chat-completion request, as a chat provider receives it. Only ``chat_many``
    sends one, built from fields its pass has checked."""

    model_id: str
    temperature: float
    messages: tuple[tuple[str, str], ...]
    purpose: PurposeTag


def canonical_json(
    obj: object, *, _encode=json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
) -> str:
    """The one JSON form of cache keys (each entry's first line) and artifacts: one line, sorted
    keys, no spaces, non-ASCII kept. Built once, and without an indent, the encoder runs in C."""
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


@cache
def _chat_key_frame(provider_id: str, model_id: str, purpose: PurposeTag) -> tuple[str, str]:
    """``canonical_json(chat_key_material(...))`` around the messages' strings (they sort second) and up
    to the temperature (last): not a key here, where -0.0 would find 0.0's."""
    probe = ChatRequest(model_id, 0.0, (("", ""),), purpose)
    head, _, tail = canonical_json(chat_key_material(probe, provider_id)).partition('"",""')
    return head, tail.removesuffix("0.0}")


def _chat_keyer(
    provider_id: str, model_id: str, temperature: float, purpose: PurposeTag, lead: Sequence, role: str = "user"
) -> Callable[[str], tuple[bytes, bytes]]:
    """``build_cache_key`` of the request whose messages are the (role, text) pairs of lead, then (role,
    text), as a function of text: the frame, lead and role are encoded once, here, and text per call."""
    head, tail = _chat_key_frame(provider_id, model_id, purpose)
    before = "".join(f"{encode_basestring(r)},{encode_basestring(t)}],[" for r, t in lead)
    prefix, suffix = f"{head}{before}{encode_basestring(role)},", f"{tail}{temperature!r}}}"

    def key(text: str) -> tuple[bytes, bytes]:
        data = f"{prefix}{encode_basestring(text)}{suffix}".encode("utf-8")
        return hashlib.sha256(data).digest(), data

    return key


def build_cache_key(request_or_text: ChatRequest | str, provider_id: str) -> tuple[bytes, bytes]:
    """The 32-byte SHA-256 digest of the canonical request, which any field change (including
    temperature) changes, and that request as UTF-8: what the digest hashes and the entry records."""
    if isinstance(request_or_text, ChatRequest):
        request = request_or_text
        *lead, (role, text) = request.messages
        key = _chat_keyer(provider_id, request.model_id, request.temperature, request.purpose, lead, role)
        return key(text)
    data = (_embed_key_prefix(provider_id) + encode_basestring(request_or_text) + "}").encode("utf-8")
    return hashlib.sha256(data).digest(), data


class DiskCache:
    """Entries pending in memory, then packs under ``root/packs``; the lowest-numbered pack
    holding a key wins. An entry is its key text (the canonical request ``build_cache_key``
    hashes), ``\\n``, then the response bytes: a chat reply as UTF-8, a vector as ``<f8``. A pack
    is ``_PACK_MAGIC``, a ``<u4`` count, a ``_ROW`` per entry, a ``stored_at`` line, then the
    entries. Only this class builds or parses entries. A root holding a ``<hex digest>`` file or a
    ``_V1_MAGIC`` pack, the layouts of earlier versions, is refused.
    """

    _PACK_MAGIC = b"\x93SURVEYGUARD-PACK2\n"
    _V1_MAGIC = b"\x93SURVEYGUARD-PACK\n"
    _ROW = struct.Struct("<32sII")  # digest, end offset, zlib.crc32 of the entry

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        with os.scandir(self.root) as entries:
            loose = next((e.name for e in entries if re.fullmatch("[0-9a-f]{64}", e.name)), None)
        if loose:
            self._refuse(f"{loose}, a one-file entry")
        self.packs = self.root / "packs"
        self.packs.mkdir(exist_ok=True)
        self._lock = threading.Lock()
        # digest -> pack slot (pack number << 32 | row), or the entry's bytes while it is pending
        self._index: dict[bytes, int | bytes] = {}
        self._packs: dict[int, tuple[Path, array, array]] = {}  # number -> path, entry bounds, crcs
        self._pending: dict[bytes, bytes] = {}
        self._next = 0  # the pack number the next flush tries first
        self.refresh()

    def _refuse(self, what: str) -> None:
        """Refused, not fetched again: a nondeterministic model would change the artifacts."""
        raise ConfigError(
            f"cache dir {self.root} holds {what} of an earlier version, which this version does "
            "not read: move the dir aside to fetch its entries again"
        )

    def refresh(self) -> None:
        """Index the packs committed since the last call, by any process, and unlink the temp
        packs of writers that are gone."""
        listed = os.listdir(self.packs)
        for name in listed:
            if name.startswith(".tmp-"):
                self._reclaim(self.packs / name)
        names = sorted((n for n in listed if n.isdecimal() and int(n) not in self._packs), key=int)
        for path in map(self.packs.joinpath, names):
            with open(path, "rb") as fh:
                head = fh.read(len(self._PACK_MAGIC) + 4)
                if head.startswith(self._V1_MAGIC):
                    self._refuse(f"{path}, a v1 pack")
                if head[:-4] != self._PACK_MAGIC:
                    raise DataError(f"corrupted cache pack: {path}: no pack header")
                size = self._ROW.size * int.from_bytes(head[-4:], "little")
                file_size = os.fstat(fh.fileno()).st_size  # a bad count or offset reads no more than this
                table = fh.read(min(size, file_size))
                if len(table) != size:
                    raise DataError(f"corrupted cache pack: {path}: table of {len(table)} bytes, not {size}")
                fh.readline()  # stored_at
                rows = list(self._ROW.iter_unpack(table))
                bounds = array("I", [fh.tell(), *(min(end, file_size) for _, end, _ in rows)])
            crcs = array("I", (crc for *_, crc in rows))
            self._add(int(path.name), path, [digest for digest, *_ in rows], bounds, crcs)

    @staticmethod
    def _reclaim(tmp: Path) -> None:
        """Unlink a temp pack whose writer is gone: one that holds bytes, and whose flock this can
        take without blocking. A writer takes it before its first byte and unlinks the file before
        it lets go, so a live writer's temp pack is never taken."""
        with suppress(OSError):  # unlinked meanwhile, held, or not ours to unlink
            fd = os.open(tmp, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.fstat(fd).st_size:
                    os.unlink(tmp)
            finally:
                os.close(fd)

    def _add(self, number: int, path: Path, digests: list[bytes], bounds: array, crcs: array) -> None:
        """Index a committed pack. Adding it again (a refresh may find a pack before its own flush
        adds it) changes nothing."""
        with self._lock:
            self._packs[number] = (path, bounds, crcs)
            self._next = max(self._next, number + 1)
            for row, digest in enumerate(digests):
                held = self._index.get(digest)
                if not isinstance(held, int) or held >> 32 > number:
                    self._index[digest] = number << 32 | row

    def locate(self, key: bytes) -> str:
        """Where the key's entry is read from: its pack and digest, or, pending, the root and digest."""
        held = self._index.get(key)
        where = self._packs[held >> 32][0] if isinstance(held, int) else f"{self.root} pending"
        return f"{where} entry {key.hex()}"

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    def read(self, keys: Sequence[bytes]) -> Iterator[tuple[int, bytes]]:
        """``(i, the bytes of keys[i]'s entry)`` for each key held: pending entries first, then
        pack by pack, with one read-only descriptor open at a time and one ``pread`` of the span
        that holds the pack's entries asked for. A packed entry whose crc differs is a DataError."""
        wanted: dict[int, list] = {}  # pack -> [(row, i)]
        for i, key in enumerate(keys):
            held = self._index.get(key)
            if isinstance(held, int):
                wanted.setdefault(held >> 32, []).append((held & 0xFFFFFFFF, i))
            elif held is not None:
                yield i, held
        for pack, rows in wanted.items():
            path, bounds, crcs = self._packs[pack]
            base = min(bounds[row] for row, _ in rows)
            fd = os.open(path, os.O_RDONLY)
            try:
                span = os.pread(fd, max(max(bounds[row + 1] for row, _ in rows) - base, 0), base)
            finally:
                os.close(fd)
            for row, i in rows:
                data = span[bounds[row] - base : bounds[row + 1] - base]
                if zlib.crc32(data) != crcs[row]:  # a changed byte, or a pack cut short
                    raise DataError(f"corrupted cache entry: {self.locate(keys[i])}: checksum mismatch")
                yield i, data

    def load(self, key: bytes, key_text: bytes, data: bytes | None) -> bytes | None:
        """The response bytes of the entry ``read`` gave for key, or None if it gave none; an
        entry whose first line is not the key's text is a DataError naming it."""
        if data is None:
            return None
        if not data.startswith(key_text + b"\n"):
            raise DataError(f"corrupted cache entry: {self.locate(key)}: not the entry of its request")
        return data[len(key_text) + 1 :]

    def store(self, key: bytes, key_text: bytes, response: bytes | np.ndarray) -> bool:
        """Add the entry of key_text and response as pending unless the key is held. True if added."""
        data = b"%s\n%s" % (key_text, response)
        with self._lock:
            if key in self._index:
                return False
            self._index[key] = self._pending[key] = data
            full = len(self._pending) >= PACK_ENTRIES
        if full:
            self.flush()
        return True

    def flush(self) -> None:
        """Commit the pending entries as a pack: a temp file hard-linked to a number taken under
        the lock, above every pack seen; only another process's pack there makes it take the next
        and refresh. So commit order is name order, across processes too (up to the threads of one
        committing at once). A failed write is a ConfigError naming the root; the temp file goes,
        earlier packs stay, and the entries stay pending for the next call."""
        with self._lock:
            batch, self._pending = self._pending, {}
        if not batch:
            return
        stored_at = (datetime.now(timezone.utc).isoformat() + "\n").encode("utf-8")
        start = len(self._PACK_MAGIC) + 4 + self._ROW.size * len(batch) + len(stored_at)
        bounds = array("I", accumulate(map(len, batch.values()), initial=start))
        crcs = array("I", map(zlib.crc32, batch.values()))
        try:
            fd, tmp = tempfile.mkstemp(dir=self.packs, prefix=".tmp-")
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)  # held until the temp file goes: see _reclaim
                # One writev: a write per buffer-full gives up the GIL.
                with os.fdopen(fd, "wb", closefd=False) as fh:
                    rows = map(self._ROW.pack, batch, bounds[1:], crcs)
                    head = [self._PACK_MAGIC, len(batch).to_bytes(4, "little"), *rows, stored_at]
                    data = [*head, *batch.values()]
                    written = os.writev(fh.fileno(), data[: os.sysconf("SC_IOV_MAX")])
                    if written != bounds[-1]:  # the rest: past IOV_MAX buffers, or after a short write,
                        fh.write(b"".join(data)[written:])  # which the kernel then says why of
                for tries in count():
                    with self._lock:  # a number no other thread of this process tries
                        number, self._next = self._next, self._next + 1
                    path = self.packs / f"{number:08d}"
                    try:
                        os.link(tmp, path)
                        break
                    except FileExistsError:  # another process's pack, indexed by the refresh below
                        pass
            finally:
                try:
                    os.unlink(tmp)
                finally:
                    os.close(fd)  # after the unlink: a temp pack still named is never left unlocked
        except OSError as exc:
            with self._lock:  # the index still holds the keys, so a later flush must commit them
                self._pending = batch | self._pending
            raise ConfigError(f"cannot write cache dir {self.root}: {exc.strerror or exc}") from None
        self._add(number, path, list(batch), bounds, crcs)
        if tries:
            self.refresh()


def _fan_out(items: Iterable, call: Callable, slots: Callable[[], int]) -> list:
    """``call`` on each item from up to ``MAX_IN_FLIGHT`` workers, results in input order.

    The calling thread is a worker. Helpers start only for a second item, one per item drawn while
    workers are fewer than ``slots()`` (the gateway's window), as each thread costs an allocator
    arena. Items are drawn one at a time under a lock, so a generator may make them as needed. A
    ProviderError takes its item's place; any other exception is raised once the others finish.
    """
    results: dict = {}
    pending = enumerate(items)
    first = list(islice(pending, 2))
    pending = chain(first, pending)
    take = threading.Lock()
    helpers: list = []

    # One loop per worker over a shared iterator: a Future per item
    # would cost memory in proportion to the batch.
    def work() -> None:
        while True:
            with take:
                index, item = next(pending, (None, None))
                if index is None:
                    return
                if len(first) > 1 and len(helpers) + 1 < slots():
                    helpers.append(pool.submit(work))
            try:
                results[index] = call(item)
            except ProviderError as exc:
                results[index] = exc

    with ThreadPoolExecutor(MAX_IN_FLIGHT - 1) as pool:
        work()
    for helper in helpers:
        helper.result()
    return [results[index] for index in range(len(results))]


class _Window:
    """A congestion window (RFC 5681) over a gateway's provider calls in flight, at most
    ``MAX_IN_FLIGHT``; it counts each call in the gateway's stats. It opens at ``START_IN_FLIGHT``
    slots, in slow start: below ``_threshold`` a success adds a slot (about doubling it per round
    trip), at or above it ``1/size`` (about a slot per round trip). A TransientProviderError (a
    429, a 5xx, a network error) sets size and threshold to half the size its call was sent
    under, never below 1, so a burst of them halves it once and growth is additive from then on;
    other errors leave it."""

    def __init__(self, stats: GatewayStats) -> None:
        self.size = float(START_IN_FLIGHT)
        self._threshold = float(MAX_IN_FLIGHT)
        self._busy = self._waiting = 0
        self._stats = stats
        self._lock = threading.Lock()  # entered as itself: a Condition's own enter and exit run in Python
        self._changed = threading.Condition(self._lock)

    def take(self) -> float:
        """Take a slot, waiting only while none is free, and count the call; the size it was taken at."""
        with self._lock:
            while self._busy >= int(self.size):
                self._waiting += 1
                self._changed.wait()
                self._waiting -= 1
            self._busy += 1
            self._stats.provider_calls += 1
            return self.size

    def give(self, sent: float, succeeded: bool | None) -> None:
        """Free a slot taken at size sent; succeeded is False on a TransientProviderError, None on others."""
        with self._lock:
            self._busy -= 1
            if succeeded:
                step = 1 if self.size < self._threshold else 1 / self.size
                self.size = min(self.size + step, MAX_IN_FLIGHT)
            elif succeeded is False:
                self.size = self._threshold = min(self.size, max(sent / 2, 1.0))
            if self._waiting:  # wake only as many as may take a slot
                self._changed.notify(max(int(self.size) - self._busy, 0))


@dataclass
class GatewayStats:
    provider_calls: int = 0  # provider round-trips, retries included; an embed batch is one
    cache_hits: int = 0
    cache_misses: int = 0


class ProviderGateway:
    """Cache-through front of the configured providers.

    Safe for concurrent use: no more provider calls are in flight than its ``_Window`` holds,
    each pass of them commits its cache entries, also when it raises, and results come back
    in the caller's order, never in arrival order. A cached response that makes no valid
    result (say, a short or non-finite vector) is a DataError naming its pack and digest.
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
        self.stats = GatewayStats()
        self._window = _Window(self.stats)
        self._stats_lock = threading.Lock()
        self._jitter = random.Random(0)
        self._embed_dims: dict[str, int] = {}

    def _call_with_retry(self, call: Callable[[object], object], arg: ChatRequest | list[str]) -> object:
        """``call(arg)``, once more after each TransientProviderError, ``RETRIES`` times at most."""
        last: ProviderError | None = None
        for attempt in range(RETRIES):
            sent, succeeded = self._window.take(), None
            try:
                reply, succeeded = call(arg), True
                return reply
            except TransientProviderError as exc:
                last, succeeded = exc, False
            finally:
                self._window.give(sent, succeeded)  # before the backoff sleep
            if attempt < RETRIES - 1:
                delay = BACKOFF_BASE_S * (2**attempt) * (1.0 + 0.5 * self._jitter.random())
                self._sleep(min(max(delay, last.retry_after or 0.0), REQUEST_TIMEOUT_S))
        assert last is not None
        what = f"chat({arg.model_id})" if isinstance(arg, ChatRequest) else "embed"
        raise ProviderError(
            f"{what} failed after {RETRIES} attempts: {last}", status=last.status, attempts=RETRIES
        ) from last

    def _lookup(self, items: Iterable, key_of: Callable, hits: dict | None = None) -> Iterator:
        """Yield each distinct miss once, as (item, key, key text), in input order, each item keyed
        once, by ``key_of``; put each cached reply, decoded, in ``hits``. With no ``hits``, the cache
        is only asked whether it holds the key. A repeated item is a hit, stored or not yet.
        Lazy: ``_fan_out``'s workers send while ``LOOKUP_CHUNK`` more are looked up, read together."""
        self.cache.refresh()
        items, sent = iter(items), set()
        looked = missed = 0
        for chunk in iter(lambda: list(islice(items, LOOKUP_CHUNK)), []):
            new = [item for item in dict.fromkeys(chunk) if item not in sent and item not in (hits or ())]
            fresh = {item: key_of(item) for item in new}
            found = dict(self.cache.read([key for key, _ in fresh.values()])) if hits is not None else {}
            for i, (item, (key, key_text)) in enumerate(fresh.items()):
                if hits is None:  # a store pass only asks whether the cache holds the key
                    value = key in self.cache or None
                else:
                    value = self.cache.load(key, key_text, found.get(i))
                if value is None:
                    missed += 1
                    sent.add(item)
                    yield item, key, key_text
                elif hits is not None:
                    try:
                        hits[item] = value.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DataError(f"corrupted cache entry: {self.cache.locate(key)}: {exc}") from None
                elif self.embedding_provider.provider_id not in self._embed_dims:  # a store pass learns the dimension
                    self.stored_embeddings([item])
            looked += len(chunk)
        with self._stats_lock:
            self.stats.cache_misses += missed
            self.stats.cache_hits += looked - missed

    def _send(self, items: Iterable, call: Callable) -> list:
        """``_fan_out``, then commit the entries it stored, also when it raises."""
        try:
            return _fan_out(items, call, lambda: int(self._window.size))
        finally:
            self.cache.flush()

    def _vectors(self, provider_id: str, raw: Sequence) -> np.ndarray:
        """A fetched batch as one ``(n, d)`` ``<f8`` array, checked in one pass: each row a
        non-empty list of finite numbers, ``d`` the dimension of the provider's first vector."""
        one_length = len({len(row) for row in raw}) == 1  # numpy refuses a ragged batch
        vectors = np.array(raw, dtype="<f8") if one_length else np.empty(0)
        if vectors.ndim != 2 or not vectors.size:
            problem = "embeddings that are not a non-empty list of numbers each, all of one length"
            raise ProviderError(f"embedding provider {provider_id} returned {problem}")
        if not np.isfinite(vectors).all():
            raise ProviderError(f"embedding provider {provider_id} returned non-finite values")
        dim = vectors.shape[1]
        seen = self._embed_dims.setdefault(provider_id, dim)
        if seen != dim:
            raise ConfigError(f"embedding dimension drift for provider {provider_id}: {seen} then {dim}")
        return vectors

    def chat(self, prompt: tuple[str, float, str], *, purpose: PurposeTag, lead: Sequence = ()) -> str:
        """Cache-through chat completion of one prompt; see ``chat_many``."""
        result = self.chat_many([prompt], purpose=purpose, lead=lead)[0]
        if isinstance(result, ProviderError):
            raise result
        return result

    def chat_many(
        self, prompts: Sequence[tuple[str, float, str]], *, purpose: PurposeTag, lead: Sequence[tuple[str, str]] = ()
    ) -> list[str | ProviderError]:
        """Cache-through chat completions, each reply exactly as the provider returned it, in
        input order.

        Each prompt is a (model_id, temperature, text): its request is the lead messages, then
        ("user", text), at that model, temperature and purpose. The purpose and lead are checked
        once, and each distinct (model_id, temperature) once: equal settings (0, 0.0 and -0.0) are
        one, keyed and sent as the first of them. Each text is keyed from its setting's frame, and
        only the worker sending a miss builds its ChatRequest. The lookups stream into
        ``_fan_out``, and each distinct miss is sent once: one that fails for good gets its
        ProviderError in its place. A repeated prompt counts as a cache hit.
        """
        if self.chat_provider is None:
            raise ConfigError("no chat provider configured")
        provider_id, complete = self.chat_provider.provider_id, self.chat_provider.complete
        purpose = PurposeTag(purpose)
        lead = tuple((str(role), str(text)) for role, text in lead)  # as a request holds them
        settings = {}  # each distinct (model_id, temperature) -> its request's model_id, temperature, keyer
        for setting in dict.fromkeys(map(itemgetter(0, 1), prompts)):
            model_id, temperature = setting[0], float(setting[1])
            check_chat_settings(model_id, temperature)
            settings[setting] = model_id, temperature, _chat_keyer(provider_id, model_id, temperature, purpose, lead)

        def key(prompt: tuple[str, float, str]) -> tuple[bytes, bytes]:
            model_id, temperature, text = prompt
            return settings[model_id, temperature][2](text)

        def send(miss: tuple[tuple[str, float, str], bytes, bytes]) -> str:
            (model_id, temperature, text), key, key_text = miss
            model_id, temperature, _ = settings[model_id, temperature]  # the setting its key was made for
            request = ChatRequest(model_id, temperature, (*lead, ("user", text)), purpose)
            text = self._call_with_retry(complete, request)
            self.cache.store(key, key_text, text.encode("utf-8"))
            return text

        replies: dict[tuple[str, float, str], str | ProviderError] = {}
        misses: list = []  # each prompt as _fan_out draws it, so in its results' order
        lookups = self._lookup(prompts, key, replies)
        replies.update(zip(misses, self._send((misses.append(m[0]) or m for m in lookups), send)))
        return [replies[prompt] for prompt in prompts]

    def embed(self, text: str) -> np.ndarray:
        """Cache-through embedding of one text; see ``embed_many``."""
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Cache-through embeddings as read-only float64 arrays, in input order:
        ``store_embeddings``, then ``stored_embeddings``, the one reader of stored vectors."""
        self.store_embeddings(texts)
        return list(self.stored_embeddings(texts))

    def store_embeddings(self, texts: Sequence[str]) -> None:
        """Fetch and store the vector of every uncached text in one ``_lookup``-``_fan_out`` pass.

        No vector is kept, and a cached text is only looked for, to be read by ``stored_embeddings``
        (while the provider's dimension is unknown, the first found is read to learn it). Empty
        texts are rejected before any call. Distinct uncached texts go to the provider
        ``EMBED_BATCH`` at a time, in input order; each batch is one call, retried as a unit, and
        all its vectors are checked for dimension drift and finiteness before any is stored. A
        batch that fails for good raises its ProviderError once the others are stored.
        """
        if self.embedding_provider is None:
            raise ConfigError("no embedding provider configured")
        if any(not text.strip() for text in texts):
            raise DataError("empty text")
        provider_id = self.embedding_provider.provider_id
        misses = self._lookup(texts, lambda text: build_cache_key(text, provider_id))
        embed_many = self.embedding_provider.embed_many

        def send(batch: list[tuple[str, bytes, bytes]]) -> None:
            raw = self._call_with_retry(embed_many, [text for text, _, _ in batch])
            if len(raw) != len(batch):
                raise ProviderError(f"embedding provider returned {len(raw)} vectors for {len(batch)} texts")
            vectors = self._vectors(provider_id, raw)
            del raw  # the provider's copy goes before the entries are made: less memory per batch
            for (_, key, key_text), vector in zip(batch, vectors):
                self.cache.store(key, key_text, vector)

        for outcome in self._send(iter(lambda: list(islice(misses, EMBED_BATCH)), []), send):
            if isinstance(outcome, ProviderError):
                raise outcome

    def stored_embeddings(self, texts: Sequence[str]) -> np.ndarray:
        """The stored vectors of texts as one read-only ``(n, d)`` array, rows in input order: no
        provider call, no hit counted again. Each body must be ``8 * d`` bytes, ``d > 0`` the
        provider's dimension (its first vector fetched, else the first read), and each row finite;
        any other entry is a DataError naming it."""
        if self.embedding_provider is None:
            raise ConfigError("no embedding provider configured")
        provider_id = self.embedding_provider.provider_id
        keyed = [build_cache_key(text, provider_id) for text in texts]
        out, found = np.empty((0, 0)), 0
        for i, data in self.cache.read([key for key, _ in keyed]):
            body = self.cache.load(*keyed[i], data)
            if not found:
                out = np.empty((len(texts), self._embed_dims.get(provider_id, len(body) // 8)))
            if not body or len(body) != 8 * out.shape[1]:
                problem = f"a body of {len(body)} bytes, not a vector of dimension {out.shape[1]}"
                raise DataError(f"corrupted cache entry: {self.cache.locate(keyed[i][0])}: {problem}")
            out[i] = np.frombuffer(body, dtype="<f8")
            found += 1
        if found < len(keyed):
            raise DataError("a text has no stored embedding: store_embeddings must come first")
        for i in np.flatnonzero(~np.isfinite(out).all(axis=1))[:1]:
            raise DataError(f"corrupted cache entry: {self.cache.locate(keyed[i][0])}: non-finite values")
        if found:
            self._embed_dims.setdefault(provider_id, out.shape[1])
        out.flags.writeable = False
        return out
