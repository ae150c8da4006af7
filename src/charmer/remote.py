"""HTTP client oracle for external model servers.

Wire protocol: POST ``/score`` with JSON ``{"sentences": [...]}``; the server
replies HTTP 200 with ``{"scores": [[...], ...]}``, one row of finite numbers
per input sentence. No retries by default so query counts stay honest.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import requests

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


def _is_score(v) -> bool:
    # JSON true/false parse as bool, an int subclass; NaN fails every comparison
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _environment_session(url: str) -> requests.Session:
    """A session with the environment's proxies, CA bundle and netrc login
    for ``url`` read once, instead of on every request."""
    session = requests.Session()
    session.proxies.update(requests.utils.get_environ_proxies(url))
    ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if ca_bundle:
        session.verify = ca_bundle
    session.auth = requests.utils.get_netrc_auth(url)
    session.trust_env = False
    return session


class RemoteOracle(Oracle):
    def __init__(
        self,
        endpoint: str,
        num_classes: int | None = None,
        batch_limit: int = 64,
        retries: int = 0,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        url = endpoint.rstrip("/")
        if not url.endswith("/score"):
            url += "/score"
        self.url = url
        self.num_classes = num_classes  # learned from the first response if None
        self.batch_limit = batch_limit
        self.retries = retries
        self.timeout = timeout
        self.session = session if session is not None else _environment_session(url)

    def _post(self, body: dict):
        last_exc = None
        for _ in range(self.retries + 1):
            try:
                return self.session.post(self.url, json=body, timeout=self.timeout)
            except requests.RequestException as exc:
                last_exc = exc
        raise RemoteTransportError(f"transport failure contacting {self.url}: {last_exc}")

    def _score_chunk(self, sentences: list[str]) -> np.ndarray:
        resp = self._post({"sentences": sentences})
        if not 200 <= resp.status_code < 300:
            raise RemoteStatusError(
                f"server returned HTTP {resp.status_code}", payload=resp.text
            )
        try:
            doc = resp.json()
        except ValueError:
            raise RemoteSchemaError("response is not valid JSON", payload=resp.text)
        rows = doc.get("scores") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or len(rows) != len(sentences):
            raise RemoteSchemaError(
                f"expected {len(sentences)} score rows, got "
                f"{len(rows) if isinstance(rows, list) else type(rows).__name__}",
                payload=doc,
            )
        for row in rows:
            if not isinstance(row, list) or len(row) < 2 or not all(map(_is_score, row)):
                raise RemoteSchemaError("malformed score row", payload=doc)
            if self.num_classes is None:
                self.num_classes = len(row)
            elif len(row) != self.num_classes:
                raise RemoteSchemaError(
                    f"score row length {len(row)} != {self.num_classes} classes",
                    payload=doc,
                )
        return np.array(rows, dtype=np.float64)  # exact, as float(v): every v is a finite int or float
