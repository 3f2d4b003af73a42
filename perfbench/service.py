"""Simulated chat service: the structured-notes mock behind a fixed delay.

Serves ``POST /chat/completions`` on loopback in the chat-completions JSON
shape, answering with ``MockStructuredLm.for_task(task)`` after sleeping
``--delay`` seconds. Each connection gets its own thread, so a client that
overlaps requests sees them overlap here too.

Protocol with the benchmark: the service binds a port the OS assigns and
prints ``{"port": N}`` as its first line. When its standard input closes it
stops serving and prints its request log as one JSON line, then exits. A
request log entry is (role, digest, arrival, finish, in_flight), with times
on the system-wide monotonic clock so they line up with the client's.

Run it alone with ``python3 perfbench/service.py --task
configs/demo_task.json --delay 0.02``; closing its input (Ctrl-D) stops it.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from stratinv.chat import ChatTurnRequest  # noqa: E402
from stratinv.mock import MockStructuredLm  # noqa: E402
from stratinv.ooc import load_task  # noqa: E402
from tracing import request_role  # noqa: E402


class ChatService(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, mock: MockStructuredLm, delay: float):
        super().__init__(address, Handler)
        self.mock = mock
        self.delay = delay
        self.log: list[dict] = []
        self.in_flight = 0
        self.lock = threading.Lock()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this every response waits on the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):
        server: ChatService = self.server
        arrival = time.monotonic()
        with server.lock:
            server.in_flight += 1
            in_flight = server.in_flight
        try:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path.rstrip("/") != "/chat/completions":
                self._reply(404, {"error": "unknown path"})
                return
            doc = json.loads(body)
            request = ChatTurnRequest(
                messages=tuple((m["role"], m["content"]) for m in doc["messages"]),
                temperature=float(doc.get("temperature", 0.0)),
                seed=doc.get("seed"),
                model=doc.get("model", "default"),
            )
            entry = {"role": request_role(request.messages), "digest": request.digest()}
            time.sleep(server.delay)
            text = server.mock.complete(request)
            self._reply(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
        except Exception as exc:  # any failure becomes a 500 the client can see
            self._reply(500, {"error": str(exc)})
            entry = {"role": "error", "digest": ""}
        finally:
            with server.lock:
                server.in_flight -= 1
        entry.update(arrival=arrival, finish=time.monotonic(), in_flight=in_flight)
        with server.lock:
            server.log.append(entry)

    def _reply(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", required=True, help="task file whose mock section answers")
    parser.add_argument("--delay", type=float, required=True, help="seconds per request")
    args = parser.parse_args()
    mock = MockStructuredLm.for_task(load_task(args.task))
    try:
        server = ChatService(("127.0.0.1", 0), mock, args.delay)
    except OSError as exc:
        print(f"service: cannot bind a loopback port: {exc}", file=sys.stderr)
        return 2
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()
    server.shutdown()
    thread.join()
    server.server_close()
    with server.lock:
        print(json.dumps({"log": server.log}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
