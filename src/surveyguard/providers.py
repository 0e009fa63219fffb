"""Chat-completion and text-embedding providers.

Real providers speak an OpenAI-compatible HTTPS API; credentials come from
environment variables only. The mock providers are pure functions of their
constructor arguments and the request, so two processes with the same config
produce identical outputs without touching the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import urllib.error
import urllib.request
from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol

import numpy as np

from .errors import ConfigError, ProviderError, TransientProviderError

if TYPE_CHECKING:
    from .gateway import ChatRequest

DETECT_MARKER = "as an ai assistant"  # MockChatProvider answers "AI" to prompts holding it
REQUEST_TIMEOUT_S = 60.0  # per HTTPS request to an OpenAI-compatible endpoint


class ChatProvider(Protocol):
    provider_id: str

    def complete(self, request: "ChatRequest") -> str: ...


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed_many(self, texts: Sequence[str]) -> Sequence[Sequence[float]]:
        """One vector per text, in input order, from a single request."""
        ...


# ---------------------------------------------------------------------------
# Deterministic mocks


_VOCAB = (
    "clear", "simple", "daily", "helpful", "routine", "often", "value",
    "quick", "notes", "planning", "budget", "track", "habits", "focus",
    "family", "work", "weather", "updates", "news", "music", "saves",
    "time", "easy", "reliable", "friends", "tasks", "reminders", "ideas",
)


class MockChatProvider:
    """Deterministic offline chat provider.

    Signature-generation requests get a pseudo-sentence derived from
    sha256(seed | model_id | temperature | prompt text). Detection requests
    return "AI" when the prompt contains ``DETECT_MARKER`` (case-insensitive)
    and "HUMAN" otherwise.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.provider_id = f"mock-chat-{seed}"

    def complete(self, request: "ChatRequest") -> str:
        from .gateway import PurposeTag

        prompt = "\n".join(text for _, text in request.messages)
        if request.purpose == PurposeTag.DETECT:
            return "AI" if DETECT_MARKER in prompt.lower() else "HUMAN"
        material = "|".join((str(self.seed), request.model_id, repr(float(request.temperature)), prompt))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        words = [_VOCAB[b % len(_VOCAB)] for b in digest[:9]]
        return (" ".join(words)).capitalize() + "."


class MockEmbeddingProvider:
    """Deterministic offline embedding provider.

    The vector for a text is read from one SHAKE-256 digest,
    shake_256("{seed}|{text}").digest(8 * dim), as dim little-endian u64 values
    u, each mapped to u/2**64 * 2 - 1: uniform on [-1, 1). Equal texts map to
    equal vectors; distinct texts differ with overwhelming probability. Tests pin
    this exact construction and its bits. The ``v2`` in the provider id keeps
    vectors cached by an older construction from being read as these.
    """

    def __init__(self, seed: int = 0, dim: int = 16):
        if dim < 1:
            raise ConfigError(f"embedding dim must be >= 1, got {dim}")
        self.seed = seed
        self.dim = dim
        self.provider_id = f"mock-embed-v2-{seed}-d{dim}"

    def embed(self, text: str) -> list[float]:
        return self.embed_many([text])[0].tolist()

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        vectors = []
        for text in texts:
            digest = hashlib.shake_256(f"{self.seed}|{text}".encode("utf-8")).digest(8 * self.dim)
            vectors.append(np.frombuffer(digest, "<u8") / 2.0**64 * 2.0 - 1.0)
        return vectors


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTPS adapters


def _post_json(url: str, payload: dict, api_key: str) -> dict:
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url,
        data=body,
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {api_key}",
        },
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=REQUEST_TIMEOUT_S) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")[:200]
        if exc.code == 429 or exc.code >= 500:
            wait = (exc.headers or {}).get("Retry-After", "").strip()  # RFC 9110, 10.2.3; no HTTP-date
            retry_after = float(wait) if wait.isascii() and wait.isdigit() else None
            message = f"HTTP {exc.code} from {url}: {detail}"
            raise TransientProviderError(message, status=exc.code, retry_after=retry_after) from exc
        raise ProviderError(f"HTTP {exc.code} from {url}: {detail}", status=exc.code) from exc
    except urllib.error.URLError as exc:
        raise TransientProviderError(f"network error calling {url}: {exc.reason}") from exc


def _resolve_endpoint(base_url: str | None, base_url_env: str, api_key_env: str) -> tuple[str, str]:
    base = base_url or os.environ.get(base_url_env) or "https://api.openai.com/v1"
    api_key = os.environ.get(api_key_env, "")
    if not api_key:
        raise ConfigError(f"missing API key: set the {api_key_env} environment variable")
    return base.rstrip("/"), api_key


class OpenAICompatChatProvider:
    """Chat completions against an OpenAI-compatible endpoint."""

    provider_id = "openai"

    def __init__(
        self,
        base_url: str | None = None,
        base_url_env: str = "OPENAI_BASE_URL",
        api_key_env: str = "OPENAI_API_KEY",
    ):
        self.base_url = base_url
        self.base_url_env = base_url_env
        self.api_key_env = api_key_env

    def complete(self, request: "ChatRequest") -> str:
        base, api_key = _resolve_endpoint(self.base_url, self.base_url_env, self.api_key_env)
        payload = {
            "model": request.model_id,
            "temperature": request.temperature,
            "messages": [{"role": role, "content": text} for role, text in request.messages],
        }
        data = _post_json(f"{base}/chat/completions", payload, api_key)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed chat response: {json.dumps(data)[:200]}") from exc


class OpenAICompatEmbeddingProvider:
    """Text embeddings against an OpenAI-compatible endpoint."""

    def __init__(
        self,
        model: str,
        base_url: str | None = None,
        base_url_env: str = "OPENAI_BASE_URL",
        api_key_env: str = "OPENAI_API_KEY",
    ):
        self.model = model
        self.provider_id = f"openai-embed-{model}"
        self.base_url = base_url
        self.base_url_env = base_url_env
        self.api_key_env = api_key_env

    def embed_many(self, texts: Sequence[str]) -> list[list[float]]:
        """Embed all texts in one request; vectors come back ordered by ``index``."""
        base, api_key = _resolve_endpoint(self.base_url, self.base_url_env, self.api_key_env)
        payload = {"model": self.model, "input": list(texts)}
        data = _post_json(f"{base}/embeddings", payload, api_key)
        try:
            items = sorted(data["data"], key=lambda item: item["index"])
            indexes = [item["index"] for item in items]
            vectors = [[float(x) for x in item["embedding"]] for item in items]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed embedding response: {json.dumps(data)[:200]}") from exc
        if indexes != list(range(len(texts))):
            raise ProviderError(
                f"embedding response indexes {indexes[:10]} do not match {len(texts)} inputs"
            )
        return vectors
