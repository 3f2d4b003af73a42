"""A loopback chat service for the HTTP client tests."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from stratinv.chat import HttpChatClient


class ChatServer(ThreadingHTTPServer):
    """Serves ``POST <path>`` on 127.0.0.1 from a thread, one thread per connection.

    ``respond(doc)`` maps each request's decoded JSON body to its reply: a
    str is a completion, a tuple ``(status, body[, headers])`` any other
    response, and None closes the connection without an answer. With
    ``keep_alive`` false the server closes each connection after its answer,
    without telling the client. The server records every request in
    ``calls``, the client ports it served in ``ports``, its peak overlap in
    ``peak`` and how many connections it closed in ``closed``.
    """

    daemon_threads = True

    def __init__(self, respond, delay=0.0):
        super().__init__(("127.0.0.1", 0), _Handler, bind_and_activate=False)
        self.server_bind()  # bound but refusing connections until listen()
        self.url = f"http://127.0.0.1:{self.server_port}"
        self.respond = respond
        self.delay = delay
        self.keep_alive = True
        self.lock = threading.Lock()
        self.calls: list[dict] = []
        self.ports: set[int] = set()
        self.in_flight = self.peak = self.closed = 0
        self.clients: list[HttpChatClient] = []
        self._thread = None

    def listen(self) -> None:
        self.server_activate()
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def client(self, path="", **kw) -> HttpChatClient:
        """A client of this server, closed when the server stops."""
        client = HttpChatClient(self.url + path, **kw)
        self.clients.append(client)
        return client

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=10)
            assert not self._thread.is_alive()
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this every answer waits on the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):
        server: ChatServer = self.server
        doc = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.calls.append(
                {"path": self.path, "json": doc, "headers": dict(self.headers)}
            )
            server.ports.add(self.client_address[1])
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:
            if server.delay:  # tests that stub the client's sleep stub this one
                time.sleep(server.delay)
            reply = server.respond(doc)
        finally:
            with server.lock:
                server.in_flight -= 1
        if reply is None:
            self.close_connection = True
            return
        if isinstance(reply, str):
            reply = (200, json.dumps({"choices": [{"message": {"content": reply}}]}))
        status, body, headers = (*reply, {})[:3]
        payload = body.encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = not server.keep_alive


@pytest.fixture
def chat_server():
    """Start a ChatServer: ``chat_server(respond, delay=0, listening=True)``."""
    servers = []

    def start(respond, delay=0.0, listening=True):
        server = ChatServer(respond, delay)
        servers.append(server)
        if listening:
            server.listen()
        return server

    yield start
    for server in servers:
        server.stop()
