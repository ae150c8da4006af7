"""HTTP client oracle for external model servers.

Wire protocol: POST ``/score`` with JSON ``{"sentences": [...]}``; the server
replies HTTP 200 with ``{"scores": [[...], ...]}``, one row of finite numbers
per input sentence. No retries by default so query counts stay honest: a
request that fails once sent is sent again only if ``retries`` allows it.
Requests share one keep-alive HTTP/1.1 connection (RFC 9112 §9.3).
"""

from __future__ import annotations

import base64
import http.client
import netrc
import os
import select
import ssl
import sys
import urllib.parse
import urllib.request
from json import dumps, loads
from typing import NamedTuple

import numpy as np

from .oracle import Oracle, OracleError


class RemoteOracleError(OracleError):
    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class RemoteTransportError(RemoteOracleError):
    pass


class RemoteStatusError(RemoteOracleError):
    pass


class RemoteSchemaError(RemoteOracleError):
    pass


def _finite(v) -> bool:
    # JSON true/false parse as bool, an int subclass; NaN fails every comparison
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _basic(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


def _url_login(parts: urllib.parse.SplitResult) -> list[str]:
    return [urllib.parse.unquote(v or "") for v in (parts.username, parts.password)]


class _Response(NamedTuple):
    status_code: int
    content: bytes


class _Connection:
    """The default ``session``: ``post`` over one keep-alive connection to
    ``url``'s host, or to its proxy, with the proxy, CA bundle and netrc
    login the environment gives when the connection is made."""

    def __init__(self, url: str):
        parts = urllib.parse.urlsplit(url)
        https = parts.scheme == "https"
        host, port = parts.hostname, parts.port or (443 if https else 80)
        self.target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self.headers = {"Content-Type": "application/json"}
        try:
            login = netrc.netrc(os.environ.get("NETRC")).authenticators(host)
        except (OSError, netrc.NetrcParseError):
            login = None
        if login:
            self.headers["Authorization"] = _basic(login[0] or login[1], login[2])
        elif parts.username is not None:
            self.headers["Authorization"] = _basic(*_url_login(parts))

        proxies = urllib.request.getproxies_environment()
        bypass = urllib.request.proxy_bypass_environment(f"{host}:{port}", proxies)
        proxy = None if bypass else proxies.get(parts.scheme) or proxies.get("all")
        conn_host, conn_port, tunnel_headers = host, port, {}
        if proxy:
            p = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if p.scheme != "http" or not p.hostname:
                raise RemoteOracleError(f"unsupported proxy {proxy!r} for {url}")
            if p.username is not None:
                auth = _basic(*_url_login(p))
                (tunnel_headers if https else self.headers)["Proxy-Authorization"] = auth
            if not https:  # absolute form: the proxy needs the whole URL
                self.target = f"http://{parts.netloc.rpartition('@')[2]}{self.target}"
            conn_host, conn_port = p.hostname, p.port or 80

        if https:
            ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            try:
                context = ssl.create_default_context(cafile=ca_bundle or None)
            except OSError as exc:
                raise RemoteOracleError(f"cannot load CA bundle {ca_bundle!r}: {exc}")
            self.conn = http.client.HTTPSConnection(conn_host, conn_port, context=context)
            if proxy:
                self.conn.set_tunnel(host, port, headers=tunnel_headers)
        else:
            self.conn = http.client.HTTPConnection(conn_host, conn_port)

    def post(self, url: str, json: dict, timeout: float) -> _Response:
        """POST ``json`` to the ``url`` this connection was made for."""
        body = dumps(json, allow_nan=False).encode()  # the bytes requests' json= sends
        self.conn.timeout = timeout
        sock = self.conn.sock
        if sock is not None:
            # readable while idle means the server closed it: reopen before
            # sending, as urllib3's is_connection_dropped does
            poll = select.poll()
            poll.register(sock, select.POLLIN)
            if poll.poll(0):
                self.conn.close()
            else:
                sock.settimeout(timeout)
        try:
            self.conn.request("POST", self.target, body, self.headers)
            resp = self.conn.getresponse()
            return _Response(resp.status, resp.read())
        except BaseException:
            self.conn.close()  # a half-used connection is never reused
            raise


class RemoteOracle(Oracle):
    """Scores through an HTTP(S) server. ``session``, if given, replaces the
    connection: its ``post(url, json=body, timeout=seconds)`` returns an object
    with ``.status_code`` and ``.content`` bytes, as a ``requests.Session`` does."""

    def __init__(
        self,
        endpoint: str,
        num_classes: int | None = None,
        batch_limit: int = 64,
        retries: int = 0,
        timeout: float = 30.0,
        session=None,
    ):
        url = endpoint.rstrip("/")
        if not url.endswith("/score"):
            url += "/score"
        parts = urllib.parse.urlsplit(url)
        try:
            valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
        except ValueError:  # a port that is not a number below 65536
            valid = False
        if not valid:
            raise RemoteOracleError(f"endpoint must be an http or https URL with a host, not {endpoint!r}")
        if type(batch_limit) is not int or batch_limit < 1:
            raise RemoteOracleError(f"batch_limit must be an int of at least 1, not {batch_limit!r}")
        if type(retries) is not int or retries < 0:
            raise RemoteOracleError(f"retries must be an int of at least 0, not {retries!r}")
        if not (_finite(timeout) and timeout > 0):
            raise RemoteOracleError(f"timeout must be a finite number of seconds above 0, not {timeout!r}")
        self.url = url
        self.num_classes = num_classes  # learned from the first response if None
        self.batch_limit = batch_limit
        self.retries = retries
        self.timeout = timeout
        self.session = session if session is not None else _Connection(url)

    def _post(self, body: dict):
        last_exc = None
        for _ in range(self.retries + 1):
            try:
                return self.session.post(self.url, json=body, timeout=self.timeout)
            except (OSError, http.client.HTTPException) as exc:  # requests' errors are OSErrors
                last_exc = exc
        raise RemoteTransportError(f"transport failure contacting {self.url}: {last_exc}")

    def _score_chunk(self, sentences: list[str]) -> np.ndarray:
        resp = self._post({"sentences": sentences})
        if not 200 <= resp.status_code < 300:
            raise RemoteStatusError(
                f"server returned HTTP {resp.status_code}",
                payload=resp.content.decode("utf-8", "replace"),
            )
        try:
            doc = loads(resp.content)
        except (ValueError, RecursionError):
            raise RemoteSchemaError(
                "response is not valid JSON", payload=resp.content.decode("utf-8", "replace")
            )
        rows = doc.get("scores") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or len(rows) != len(sentences):
            raise RemoteSchemaError(
                f"expected {len(sentences)} score rows, got "
                f"{len(rows) if isinstance(rows, list) else type(rows).__name__}",
                payload=doc,
            )
        for row in rows:
            if not isinstance(row, list) or len(row) < 2 or not all(map(_finite, row)):
                raise RemoteSchemaError("malformed score row", payload=doc)
            if self.num_classes is None:
                self.num_classes = len(row)
            elif len(row) != self.num_classes:
                raise RemoteSchemaError(
                    f"score row length {len(row)} != {self.num_classes} classes",
                    payload=doc,
                )
        return np.array(rows, dtype=np.float64)  # exact, as float(v): every v is a finite int or float
