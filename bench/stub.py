"""Scoring server for the remote workload, run as its own process.

``POST /score`` scores with the keyword-count model of ``inputs.py``;
``GET /stats`` returns the server's own counters. The server prints
``port <n>`` on stdout once it listens, and exits when its stdin closes, so
it cannot outlive the benchmark process that started it.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from inputs import keyword_scores


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client
    disable_nagle_algorithm = True

    def do_POST(self):
        start = time.perf_counter()
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        sentences = json.loads(raw)["sentences"]
        body = json.dumps({"scores": [keyword_scores(s) for s in sentences]}).encode()
        server_ms = 1000 * (time.perf_counter() - start)
        with self.server.lock:
            stats = self.server.stats
            stats["requests"] += 1
            stats["sentences"] += len(sentences)
            stats["bytes_in"] += len(raw)
            stats["bytes_out"] += len(body)
            stats["server_ms"] += server_ms
        self._reply(body, f"X-Server-Ms: {server_ms!r}\r\n")

    def do_GET(self):
        if self.path != "/stats":
            self.send_error(HTTPStatus.NOT_FOUND)
            return
        with self.server.lock:
            body = json.dumps(self.server.stats).encode()
        self._reply(body)

    def _reply(self, body: bytes, extra: str = "") -> None:
        # Head and body go out in one write: a second small write on a
        # keep-alive connection would wait on the client's delayed ACK.
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        )
        self.wfile.write(head.encode() + body)

    def log_message(self, *args):
        pass


def _exit_when_parent_leaves() -> None:
    sys.stdin.read()
    os._exit(0)


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.stats = dict(requests=0, sentences=0, bytes_in=0, bytes_out=0, server_ms=0.0)
    threading.Thread(target=_exit_when_parent_leaves, daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
