"""Chat clients: request identity, cache behavior, HTTP retry policy."""

import email.utils
import hashlib
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

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


REFUSED = ("refused",)  # the server refuses the first connection


def http_client(chat_server, replies, **kw):
    """A client of a server answering with ``replies`` in order."""
    replies = list(replies)
    server = chat_server(lambda doc: replies.pop(0))
    kw.setdefault("backoff", 0.0)
    return server.client("/v1/", **kw), server


def test_http_success_shape(monkeypatch, chat_server):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    client, server = http_client(chat_server, ["answer"])
    assert client.complete(req("q", seed=3)) == "answer"
    call = server.calls[0]
    url = f"http://{call['headers']['Host']}{call['path']}"
    assert url == f"{server.url}/v1/chat/completions"
    assert call["json"]["seed"] == 3
    assert call["json"]["messages"] == [{"role": "user", "content": "q"}]
    assert "Authorization" not in call["headers"]


def test_http_omits_seed_when_unset(monkeypatch, chat_server):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    client, server = http_client(chat_server, ["fine"])
    client.complete(req())
    assert "seed" not in server.calls[0]["json"]


def test_http_bearer_token_from_env(monkeypatch, chat_server):
    monkeypatch.setenv(TOKEN_ENV, "sekrit")
    client, server = http_client(chat_server, ["fine"])
    client.complete(req())
    assert server.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


@pytest.mark.parametrize("first", [(500, "boom"), (429, "slow down"), REFUSED])
def test_http_retries_transient_failures(monkeypatch, chat_server, first):
    sleeps = []
    if first is REFUSED:
        server = chat_server(lambda doc: "recovered", listening=False)
        # the retry's wait is when the server starts listening
        monkeypatch.setattr(
            chat.time, "sleep", lambda s: (sleeps.append(s), server.listen())
        )
        client = server.client(backoff=0.0)
    else:
        monkeypatch.setattr(chat.time, "sleep", sleeps.append)
        client, server = http_client(chat_server, [first, "recovered"])
    assert client.complete(req()) == "recovered"
    assert len(sleeps) == 1  # two attempts
    assert len(server.calls) == (1 if first is REFUSED else 2)


def test_http_client_error_fails_fast(chat_server):
    client, server = http_client(chat_server, [(404, "nope")])
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.complete(req())
    assert len(server.calls) == 1


def test_http_gives_up_after_retries(chat_server):
    client, server = http_client(chat_server, [(500, "")] * 3, max_retries=2)
    with pytest.raises(ServiceError, match="giving up after 3 attempts"):
        client.complete(req())
    assert len(server.calls) == 3


def test_http_malformed_payload(chat_server):
    client, _ = http_client(chat_server, [(200, '{"choices": []}')])
    with pytest.raises(ServiceError, match="malformed completion"):
        client.complete(req())
    for content, kind in (("null", "null"), ("7", "number"), ('["a"]', "array")):
        body = f'{{"choices": [{{"message": {{"content": {content}}}}}]}}'
        client, _ = http_client(chat_server, [(200, body)])
        with pytest.raises(
            ServiceError, match=f"malformed completion payload: content is {kind},"
        ):
            client.complete(req())


def test_http_endpoint_must_be_an_http_url():
    for endpoint in ("localhost:9", "ftp://host/v1", "http://", "127.0.0.1"):
        with pytest.raises(ValueError, match="must be an http"):
            HttpChatClient(endpoint)


# --- keep-alive --------------------------------------------------------------


def test_http_reopens_a_connection_the_server_closed_while_idle(
    monkeypatch, chat_server
):
    def refuse(seconds):
        raise AssertionError("slept")

    client, server = http_client(chat_server, ["a", "b"], max_retries=0)
    server.keep_alive = False
    assert client.complete(req()) == "a"
    deadline = time.monotonic() + 10
    while server.closed < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert server.closed == 1  # the client still holds the connection open
    monkeypatch.setattr(chat.time, "sleep", refuse)
    assert client.complete(req()) == "b"
    assert len(server.calls) == 2 and len(server.ports) == 2


def test_http_a_fresh_connection_dropped_is_a_failed_attempt(chat_server):
    client, server = http_client(chat_server, [None], max_retries=0)
    with pytest.raises(ServiceError, match="giving up after 1 attempts"):
        client.complete(req())
    assert len(server.calls) == 1


# --- batches -----------------------------------------------------------------


def echo(doc):
    return doc["messages"][-1]["content"]


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
def test_http_batch_keeps_at_most_max_in_flight(chat_server, max_in_flight):
    server = chat_server(echo, delay=0.005)
    client = server.client(max_in_flight=max_in_flight)
    batch = [req(f"q{i}") for i in range(24)]
    assert client.complete_many(batch) == [f"q{i}" for i in range(24)]
    client.close()
    assert len(server.calls) == 24
    assert server.peak <= max_in_flight
    if max_in_flight > 1:
        assert server.peak > 1  # the batch really overlapped


def test_http_threads_keep_their_own_connections_across_batches(chat_server):
    server = chat_server(echo)
    # more workers than cores and frequent thread switches, so a lost update
    # to the client's connection list would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        client = server.client(max_in_flight=8)
        for _ in range(3):
            batch = [req(f"q{i}") for i in range(64)]
            assert client.complete_many(batch) == [f"q{i}" for i in range(64)]
    finally:
        sys.setswitchinterval(interval)
    made = list(client._connections)
    assert 1 <= len(made) <= 8  # one per worker thread, reused by later batches
    assert {c.sock.getsockname()[1] for c in made} == server.ports
    assert len(server.calls) == 192
    client.close()
    assert all(c.sock is None for c in made)


def test_http_batch_of_one_reuses_a_worker_connection(chat_server):
    server = chat_server(echo)
    client = server.client(max_in_flight=2)
    assert client.complete_many([req(f"q{i}") for i in range(8)]) == [
        f"q{i}" for i in range(8)
    ]
    assert client.complete_many([req("last")]) == ["last"]
    assert len(server.calls) == 9
    assert len(server.ports) <= 2  # one per worker, none for the caller


def test_http_batch_reports_failures_in_place(chat_server):
    client, _ = http_client(
        chat_server, ["a", (404, "nope"), "c"], max_in_flight=1
    )
    out = client.complete_many([req("1"), req("2"), req("3")])
    assert out[0] == "a" and out[2] == "c"
    assert isinstance(out[1], ServiceError) and "HTTP 404" in str(out[1])


# --- backoff -----------------------------------------------------------------


def test_http_backoff_is_capped_exponential_with_full_jitter(
    monkeypatch, chat_server
):
    sleeps, bounds = [], []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)

    def top(lo, hi):
        bounds.append((lo, hi))
        return hi

    monkeypatch.setattr(chat.random, "uniform", top)
    client, server = http_client(
        chat_server, [(503, "")] * 5 + ["late"], max_retries=5, backoff=0.5,
    )
    client.max_backoff = 3.0
    assert client.complete(req()) == "late"
    assert len(server.calls) == 6
    assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 3.0)]
    assert sleeps == [0.5, 1.0, 2.0, 3.0, 3.0]


def test_http_honours_retry_after_on_429(monkeypatch, chat_server):
    sleeps = []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    client, _ = http_client(
        chat_server, [(429, "", {"Retry-After": "7"}), "then"], backoff=0.5,
    )
    assert client.complete(req()) == "then"
    assert sleeps == [7.0]


def test_http_retry_after_date_and_garbage(monkeypatch, chat_server):
    sleeps = []
    monkeypatch.setattr(chat.time, "sleep", sleeps.append)
    monkeypatch.setattr(chat.random, "uniform", lambda lo, hi: hi)
    soon = email.utils.format_datetime(
        datetime.now(timezone.utc) + timedelta(seconds=30), usegmt=True
    )
    client, _ = http_client(
        chat_server,
        [(429, "", {"Retry-After": soon}), (429, "", {"Retry-After": "soon"}),
         "fine"],
        backoff=0.5,
    )
    assert client.complete(req()) == "fine"
    dated, garbage = sleeps
    assert 25 <= dated <= 30
    assert garbage == 1.0  # not a delay: the jittered backoff's cap
    assert chat._retry_after("soon") is None


@pytest.mark.parametrize(
    "value", ["inf", "-inf", "nan", "1e300", "1e10", "Fri, 31 Dec 9999 23:59:59 GMT"]
)
def test_http_retry_after_that_no_sleep_can_take_falls_back_to_backoff(
    monkeypatch, chat_server, value
):
    sleeps = []

    def sleep(seconds):  # as time.sleep refuses them
        if not 0 <= seconds < 9e9:
            raise OverflowError("timestamp out of range for platform time_t")
        sleeps.append(seconds)

    monkeypatch.setattr(chat.time, "sleep", sleep)
    monkeypatch.setattr(chat.random, "uniform", lambda lo, hi: hi)
    client, server = http_client(
        chat_server, [(429, "", {"Retry-After": value})] * 2 + ["fine"],
        backoff=0.5,
    )
    assert client.complete(req()) == "fine"
    assert sleeps == [0.5, 1.0]  # the jittered backoff's caps
    assert len(server.calls) == 3
    assert chat._retry_after(value) is None
    assert chat._retry_after("1e9") == 1e9


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


def test_cache_does_not_store_errors(tmp_path, chat_server):
    client = CachingChatClient(
        chat_server(lambda doc: (404, "")).client(), tmp_path
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
