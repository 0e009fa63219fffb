"""Fixed-latency proxy around the mock chat and embedding providers.

Every public method of the wrapped provider is delegated through
``__getattr__``, so a provider method added later (a batched ``embed_many``,
say) gets the same per-request delay and the same counting without a change
here. A method call is one provider request; the texts it carries are counted
separately, so a batched request shows as one request with many texts.
"""

from __future__ import annotations

import threading
import time


def _request_identity(method: str, args: tuple, kwargs: dict) -> str:
    """A stable key for 'the same request twice', used to count duplicates."""
    parts = [method]
    for value in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        messages = getattr(value, "messages", None)
        if messages is not None:  # a ChatRequest: key on what the provider sees
            value = (value.model_id, value.temperature, value.purpose, tuple(messages))
        parts.append(repr(value))
    return "\x1f".join(parts)


def _text_count(args: tuple) -> int:
    if args and isinstance(args[0], (list, tuple)):
        return len(args[0])
    return 1


class ProxyStats:
    """Counters shared by the proxies of one command; safe under threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.texts = 0
        self.failures = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.durations: list[float] = []
        self.identities: set[str] = set()

    def begin(self, identity: str, texts: int) -> None:
        with self._lock:
            self.requests += 1
            self.texts += texts
            self.identities.add(identity)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)

    def end(self, seconds: float, failed: bool) -> None:
        with self._lock:
            self.in_flight -= 1
            self.failures += failed
            self.durations.append(seconds)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "texts": self.texts,
                "failures": self.failures,
                "max_in_flight": self.max_in_flight,
                "distinct_requests": len(self.identities),
                "durations": list(self.durations),
            }


class LatencyProxy:
    """Delegates to ``inner``; each method call sleeps ``delay_s`` first.

    ``on_request(method, start, end)`` is called after every request when
    given; the tracer uses it to record provider spans.
    """

    def __init__(self, inner, delay_s: float, stats: ProxyStats, on_request=None):
        self._inner = inner
        self._delay_s = delay_s
        self._stats = stats
        self._on_request = on_request

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def proxied(*args, **kwargs):
            self._stats.begin(_request_identity(name, args, kwargs), _text_count(args))
            start = time.perf_counter()
            failed = True
            try:
                if self._delay_s > 0:
                    time.sleep(self._delay_s)
                result = attr(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                self._stats.end(end - start, failed)
                if self._on_request is not None:
                    self._on_request(name, start, end)

        return proxied
