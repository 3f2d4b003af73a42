"""Chat clients: request identity, cache behavior, HTTP retry policy."""

import email.utils
import hashlib
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
import requests

from stratinv import chat
from stratinv.chat import (
    TOKEN_ENV,
    CachingChatClient,
    ChatClient,
    ChatTurnRequest,
    HttpChatClient,
)
from stratinv.errors import ServiceError


def req(content="hello", **kw):
    return ChatTurnRequest(messages=(("user", content),), **kw)


def test_canonical_json_and_digest():
    r = ChatTurnRequest(
        messages=(("system", "be brief"), ("user", "hi")),
        temperature=0.5,
        seed=7,
        model="m1",
    )
    doc = (
        '{"messages":[{"content":"be brief","role":"system"},'
        '{"content":"hi","role":"user"}],"model":"m1","seed":7,'
        '"temperature":0.5}'
    )
    assert r.canonical_json() == doc
    assert r.digest() == hashlib.sha256(doc.encode()).hexdigest()
    assert r.text() == "be brief\nhi"


def test_digest_tracks_every_field():
    base = req()
    assert req().digest() == base.digest()
    assert req("other").digest() != base.digest()
    assert req(temperature=1.0).digest() != base.digest()
    assert req(seed=1).digest() != base.digest()
    assert req(model="x").digest() != base.digest()


class CountingClient(ChatClient):
    def __init__(self):
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return f"completion #{self.calls}"


def test_cache_returns_first_completion_forever(tmp_path):
    inner = CountingClient()
    client = CachingChatClient(inner, tmp_path / "cache")
    first = client.complete(req())
    second = client.complete(req())
    assert first == second == "completion #1"
    assert inner.calls == 1
    assert (client.hits, client.misses) == (1, 1)
    files = list((tmp_path / "cache").iterdir())
    assert [f.name for f in files] == [f"{req().digest()}.txt"]


def test_cache_separates_requests(tmp_path):
    client = CachingChatClient(CountingClient(), tmp_path)
    a = client.complete(req("a"))
    b = client.complete(req("b"))
    assert a != b
    assert client.misses == 2 and client.hits == 0


def test_cache_survives_reopen(tmp_path):
    CachingChatClient(CountingClient(), tmp_path).complete(req())
    reopened = CachingChatClient(CountingClient(), tmp_path)
    assert reopened.complete(req()) == "completion #1"
    assert reopened.inner.calls == 0


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def ok(content="fine"):
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        out = self.outcomes.pop(0)
        if isinstance(out, Exception):
            raise out
        return out


def http_client(outcomes, **kw):
    session = FakeSession(outcomes)
    kw.setdefault("backoff", 0.0)
    return HttpChatClient("http://unit.test/v1/", session=session, **kw), session


def test_http_success_shape(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    client, session = http_client([ok("answer")])
    assert client.complete(req("q", seed=3)) == "answer"
    call = session.calls[0]
    assert call["url"] == "http://unit.test/v1/chat/completions"
    assert call["json"]["seed"] == 3
    assert call["json"]["messages"] == [{"role": "user", "content": "q"}]
    assert "Authorization" not in call["headers"]


def test_http_omits_seed_when_unset(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    client, session = http_client([ok()])
    client.complete(req())
    assert "seed" not in session.calls[0]["json"]


def test_http_bearer_token_from_env(monkeypatch):
    monkeypatch.setenv(TOKEN_ENV, "sekrit")
    client, session = http_client([ok()])
    client.complete(req())
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


@pytest.mark.parametrize(
    "first",
    [
        FakeResponse(500, text="boom"),
        FakeResponse(429, text="slow down"),
        requests.ConnectionError("refused"),
    ],
)
def test_http_retries_transient_failures(first):
    client, session = http_client([first, ok("recovered")])
    assert client.complete(req()) == "recovered"
    assert len(session.calls) == 2


def test_http_client_error_fails_fast():
    client, session = http_client([FakeResponse(404, text="nope")])
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.complete(req())
    assert len(session.calls) == 1


def test_http_gives_up_after_retries():
    client, session = http_client(
        [FakeResponse(500)] * 3, max_retries=2
    )
    with pytest.raises(ServiceError, match="giving up after 3 attempts"):
        client.complete(req())
    assert len(session.calls) == 3


def test_http_malformed_payload():
    client, _ = http_client([FakeResponse(200, {"choices": []})])
    with pytest.raises(ServiceError, match="malformed completion"):
        client.complete(req())


# --- batches -----------------------------------------------------------------


class ConcurrencySession:
    """Thread-safe fake session: echoes the prompt and records peak overlap."""

    def __init__(self, delay=0.005):
        self.delay = delay
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.calls = 0
        self.closed = False

    def post(self, url, json=None, headers=None, timeout=None):
        with self.lock:
            self.in_flight += 1
            self.calls += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(self.delay)
        with self.lock:
            self.in_flight -= 1
        return ok(json["messages"][-1]["content"])

    def close(self):
        self.closed = True


def test_base_complete_many_is_serial_and_returns_errors_in_order():
    class Picky(ChatClient):
        def complete(self, request):
            if request.text() == "bad":
                raise ServiceError("no")
            return request.text().upper()

    out = Picky().complete_many([req("a"), req("bad"), req("c")])
    assert out[0] == "A" and out[2] == "C"
    assert isinstance(out[1], ServiceError)


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
def test_http_batch_keeps_at_most_max_in_flight(max_in_flight):
    session = ConcurrencySession()
    client = HttpChatClient(
        "http://unit.test", session=session, max_in_flight=max_in_flight
    )
    batch = [req(f"q{i}") for i in range(24)]
    assert client.complete_many(batch) == [f"q{i}" for i in range(24)]
    client.close()
    assert session.calls == 24
    assert session.peak <= max_in_flight
    if max_in_flight > 1:
        assert session.peak > 1  # the batch really overlapped


def test_http_batch_of_serial_client_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    client = HttpChatClient("http://unit.test", session=ConcurrencySession(0))
    assert client.complete_many([req("a"), req("b")]) == ["a", "b"]


def test_http_threads_keep_their_own_sessions_across_batches(monkeypatch):
    made = []

    def factory():
        session = ConcurrencySession(delay=0.0005)
        made.append(session)
        return session

    monkeypatch.setattr(chat.requests, "Session", factory)
    # more workers than cores and frequent thread switches, so a lost update
    # to the client's session list would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        client = HttpChatClient("http://unit.test", max_in_flight=8)
        for _ in range(3):
            batch = [req(f"q{i}") for i in range(64)]
            assert client.complete_many(batch) == [f"q{i}" for i in range(64)]
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= len(made) <= 8  # one per worker thread, reused by later batches
    assert sorted(map(id, made)) == sorted(map(id, client._sessions))
    assert sum(s.calls for s in made) == 192
    client.close()
    assert all(s.closed for s in made)


def test_http_batch_reports_failures_in_place():
    client, _ = http_client(
        [ok("a"), FakeResponse(404, text="nope"), ok("c")], max_in_flight=1
    )
    out = client.complete_many([req("1"), req("2"), req("3")])
    assert out[0] == "a" and out[2] == "c"
    assert isinstance(out[1], ServiceError) and "HTTP 404" in str(out[1])


# --- backoff -----------------------------------------------------------------


def test_http_backoff_is_capped_exponential_with_full_jitter(monkeypatch):
    sleeps, bounds = [], []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)

    def top(lo, hi):
        bounds.append((lo, hi))
        return hi

    monkeypatch.setattr(chat.random, "uniform", top)
    client, session = http_client(
        [FakeResponse(503)] * 5 + [ok("late")], max_retries=5, backoff=0.5,
    )
    client.max_backoff = 3.0
    assert client.complete(req()) == "late"
    assert len(session.calls) == 6
    assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 3.0)]
    assert sleeps == [0.5, 1.0, 2.0, 3.0, 3.0]


def test_http_honours_retry_after_on_429(monkeypatch):
    sleeps = []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    client, _ = http_client(
        [FakeResponse(429, headers={"Retry-After": "7"}), ok("then")],
        backoff=0.5,
    )
    assert client.complete(req()) == "then"
    assert sleeps == [7.0]


def test_http_retry_after_date_and_garbage():
    soon = email.utils.format_datetime(
        datetime.now(timezone.utc) + timedelta(seconds=30), usegmt=True
    )
    dated = chat._retry_after(FakeResponse(429, headers={"Retry-After": soon}))
    assert 25 <= dated <= 30
    assert chat._retry_after(FakeResponse(429, headers={"Retry-After": "soon"})) is None


# --- cache writes ------------------------------------------------------------


class BatchRecorder(ChatClient):
    def __init__(self, answers=None):
        self.batches = []
        self.answers = answers or {}

    def complete(self, request):
        return self.answers.get(request.text(), f"re: {request.text()}")

    def complete_many(self, requests):
        self.batches.append([r.text() for r in requests])
        return super().complete_many(requests)


def test_cache_batch_serves_hits_and_forwards_misses_once(tmp_path):
    inner = BatchRecorder()
    client = CachingChatClient(inner, tmp_path)
    client.complete(req("a"))
    out = client.complete_many([req("a"), req("b"), req("c")])
    assert out == ["re: a", "re: b", "re: c"]
    assert inner.batches == [["a"], ["b", "c"]]
    assert (client.hits, client.misses) == (1, 3)


def test_cache_never_stores_empty_completions_or_temp_files(tmp_path):
    inner = BatchRecorder({"blank": ""})
    client = CachingChatClient(inner, tmp_path)
    assert client.complete(req("blank")) == ""
    assert client.complete(req("blank")) == ""
    assert len(inner.batches) == 2  # asked again: nothing was cached
    client.complete(req("full"))
    assert [p.name for p in tmp_path.iterdir()] == [f"{req('full').digest()}.txt"]


def test_cache_does_not_store_errors(tmp_path):
    client = CachingChatClient(
        HttpChatClient("http://unit.test", session=FakeSession([FakeResponse(404)])),
        tmp_path,
    )
    out = client.complete_many([req()])
    assert isinstance(out[0], ServiceError)
    assert list(tmp_path.iterdir()) == []


def test_cache_writers_sharing_a_directory_do_not_collide(tmp_path):
    clients = [CachingChatClient(BatchRecorder(), tmp_path) for _ in range(8)]
    errors = []

    def write(client):
        try:
            client.complete(req("shared"))
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [p.name for p in tmp_path.iterdir()] == [f"{req('shared').digest()}.txt"]
    assert (tmp_path / f"{req('shared').digest()}.txt").read_text() == "re: shared"
