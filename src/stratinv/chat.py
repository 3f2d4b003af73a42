"""Chat-completion clients: a thin HTTP client and a content-addressed cache.

A request is the full unit of reproducibility: (model, messages, temperature,
seed). Its digest keys the cache, so two evaluations that build identical
requests share completions byte-for-byte regardless of when they ran.
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
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from functools import partial
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit

from .errors import _JSON_TYPES, ServiceError

TOKEN_ENV = "STRATINV_API_TOKEN"


@dataclass(frozen=True)
class ChatTurnRequest:
    messages: tuple[tuple[str, str], ...]  # (role, content) pairs
    temperature: float = 0.0
    seed: int | None = None
    model: str = "default"

    def canonical_json(self) -> str:
        doc = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in self.messages],
            "temperature": self.temperature,
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def text(self) -> str:
        """All message content concatenated; what marker matching scans."""
        return "\n".join(c for _r, c in self.messages)


class ChatClient:
    """Interface: complete(request) -> assistant text.

    ``complete_many`` answers one batch, in order, with the text or the
    ServiceError of each request; the base class loops serially in the
    calling thread. ``close`` releases whatever the client holds open.
    """

    def complete(self, request: ChatTurnRequest) -> str:  # pragma: no cover
        raise NotImplementedError

    def complete_many(
        self, requests: Sequence[ChatTurnRequest]
    ) -> list[str | ServiceError]:
        return [_text_or_error(self.complete, r) for r in requests]

    def close(self) -> None:
        pass


def _text_or_error(complete, request: ChatTurnRequest) -> str | ServiceError:
    try:
        return complete(request)
    except ServiceError as exc:
        return exc


# A longer wait is no real instruction, and ``time.sleep`` cannot take one
# near 9.2e9 s (2.1e9 s where time_t has 32 bits).
_MAX_RETRY_AFTER = 1e9  # seconds, about 31 years


def _retry_after(value: str | None) -> float | None:
    """Seconds a 429 response's ``Retry-After`` value asks to wait, or None
    when it is neither a number nor a date, or names no finite wait up to
    ``_MAX_RETRY_AFTER``."""
    if value is None:
        return None
    try:
        wait = float(value)
    except ValueError:
        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        wait = (when - datetime.now(timezone.utc)).total_seconds()
    if not math.isfinite(wait) or wait > _MAX_RETRY_AFTER:
        return None
    return max(0.0, wait)


class HttpChatClient(ChatClient):
    """POSTs the de-facto chat-completions JSON shape and reads one choice.

    The bearer token comes from the STRATINV_API_TOKEN environment variable
    when set. Transient failures (transport errors, 5xx, 429) are retried
    after a capped exponential backoff with full jitter, or after the
    ``Retry-After`` delay a 429 names; anything else, or exhaustion, raises
    ServiceError.

    ``complete_many`` keeps at most ``max_in_flight`` requests in flight,
    on worker threads that live as long as the client and each keep one
    keep-alive connection from one batch to the next; one the service closed
    while idle is reopened without a wait or a retry. Every batch, even one
    of a single request, goes to those threads.
    """

    max_backoff = 8.0  # seconds; cap on the jittered wait before a retry

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        max_retries: int = 2,
        backoff: float = 0.5,
        max_in_flight: int = 1,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s)://host URL, got {base_url!r}")
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._connect = partial(connection, url.hostname, url.port, timeout=timeout)
        self._path = f"{url.path.rstrip('/')}/chat/completions"
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_in_flight = max_in_flight
        self._local = threading.local()
        self._connections: list[HTTPConnection] = []
        self._lock = threading.Lock()
        self._pool = None

    def _connection(self) -> HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            with self._lock:
                self._connections.append(conn)
        return conn

    def complete(self, request: ChatTurnRequest) -> str:
        payload = {
            "model": request.model,
            "messages": [
                {"role": r, "content": c} for r, c in request.messages
            ],
            "temperature": request.temperature,
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last = "no attempt made"
        for attempt in range(self.max_retries + 1):
            wait = None
            conn = self._connection()
            reused = conn.sock is not None
            try:
                try:
                    conn.request("POST", self._path, body, headers)
                    resp = conn.getresponse()
                except (BrokenPipeError, ConnectionResetError):
                    if not reused:
                        raise
                    # The service closed the idle keep-alive connection.
                    conn.close()
                    conn.request("POST", self._path, body, headers)
                    resp = conn.getresponse()
                data = resp.read()
            except (OSError, HTTPException) as exc:
                conn.close()  # a half-done exchange leaves it unusable
                last = f"transport error: {exc}"
            else:
                if resp.status == 200:
                    try:
                        content = json.loads(data)["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        raise ServiceError(
                            f"malformed completion payload: {exc}"
                        ) from exc
                    if not isinstance(content, str):
                        raise ServiceError(
                            "malformed completion payload: content is "
                            f"{_JSON_TYPES[type(content)]}, not a string"
                        )
                    return content
                last = f"HTTP {resp.status}: {data.decode('utf-8', 'replace')[:200]}"
                if resp.status == 429:
                    wait = _retry_after(resp.getheader("Retry-After"))
                elif resp.status < 500:
                    raise ServiceError(last)
            if attempt < self.max_retries:
                if wait is None:  # capped exponential backoff, full jitter
                    cap = min(self.max_backoff, self.backoff * 2**attempt)
                    wait = random.uniform(0.0, cap)
                time.sleep(wait)
        raise ServiceError(f"giving up after {self.max_retries + 1} attempts; {last}")

    def complete_many(
        self, requests: Sequence[ChatTurnRequest]
    ) -> list[str | ServiceError]:
        if self._pool is None:
            # Imported here so runs that send no HTTP batch never load it.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                self.max_in_flight, thread_name_prefix="stratinv-chat"
            )
        return list(
            self._pool.map(lambda r: _text_or_error(self.complete, r), requests)
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()  # so a later call opens a tracked one
        for conn in connections:
            conn.close()


class CachingChatClient(ChatClient):
    """File cache; one completion per request digest.

    Files are plain UTF-8 named ``<digest>.txt`` so a cache can be inspected
    and shipped. Each write goes through its own temp file and a rename, so
    partial writes stay out of the cache and processes sharing a cache
    directory never collide. Empty completions are never cached.
    """

    def __init__(self, inner: ChatClient, cache_dir):
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def complete(self, request: ChatTurnRequest) -> str:
        answer = self.complete_many([request])[0]
        if isinstance(answer, ServiceError):
            raise answer
        return answer

    def complete_many(
        self, requests: Sequence[ChatTurnRequest]
    ) -> list[str | ServiceError]:
        """Serve hits from disk and send the misses on as one batch."""
        paths = [self.cache_dir / f"{r.digest()}.txt" for r in requests]
        answers: list = [None] * len(requests)
        missed = []
        for i, path in enumerate(paths):
            try:
                answers[i] = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                missed.append(i)
        self.hits += len(requests) - len(missed)
        self.misses += len(missed)
        fresh = self.inner.complete_many([requests[i] for i in missed])
        for i, answer in zip(missed, fresh):
            answers[i] = answer
            if isinstance(answer, str) and answer:
                self._store(paths[i], answer)
        return answers

    def _store(self, path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f".{path.stem}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def close(self) -> None:
        self.inner.close()
