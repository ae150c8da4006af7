import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from charmer.remote import (
    RemoteOracle,
    RemoteSchemaError,
    RemoteStatusError,
    RemoteTransportError,
)


class StubHandler(BaseHTTPRequestHandler):
    """Scores each sentence as [len(s), ord of first char or 0].

    Behaviour switches on the request path so one server covers every case.
    """

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        sentences = body.get("sentences", [])
        self.server.requests.append(sentences)
        if self.path == "/broken/score":
            return self._reply(500, b"internal error")
        if self.path == "/notjson/score":
            return self._reply(200, b"<html>oops</html>")
        if self.path == "/short/score":
            return self._json(200, {"scores": [[0.0, 1.0]] * (len(sentences) - 1)})
        if self.path == "/ragged/score":
            rows = [[0.0, 1.0], [0.0, 1.0, 2.0]][: len(sentences)]
            return self._json(200, {"scores": rows})
        if self.path == "/bool/score":
            return self._json(200, {"scores": [[True, False]] * len(sentences)})
        if self.path == "/nan/score":
            return self._json(200, {"scores": [[0.0, float("nan")]] * len(sentences)})
        rows = [[float(len(s)), float(ord(s[0])) if s else 0.0] for s in sentences]
        return self._json(200, {"scores": rows})

    def _json(self, status, doc):
        self._reply(status, json.dumps(doc).encode())

    def _reply(self, status, payload):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = HTTPServer(("127.0.0.1", 0), StubHandler)
    httpd.requests = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()


@pytest.fixture
def base_url(server):
    server.requests.clear()
    return f"http://127.0.0.1:{server.server_address[1]}"


class TestHappyPath:
    def test_scores_preserve_order(self, base_url):
        oracle = RemoteOracle(base_url)
        scores = oracle.score_batch(["abc", "z", "hello"])
        assert scores.tolist() == [[3.0, 97.0], [1.0, 122.0], [5.0, 104.0]]
        assert oracle.num_classes == 2

    def test_endpoint_normalization(self, base_url, server):
        for endpoint in (base_url, base_url + "/", base_url + "/score"):
            assert RemoteOracle(endpoint).url == base_url + "/score"
        RemoteOracle(base_url + "/score").score_batch(["x"])
        assert server.requests[-1] == ["x"]

    def test_batch_limit_splits_requests(self, base_url, server):
        oracle = RemoteOracle(base_url, batch_limit=2)
        oracle.score_batch(["a", "b", "c", "d", "e"])
        assert [len(r) for r in server.requests] == [2, 2, 1]

    def test_empty_batch_sends_nothing(self, base_url, server):
        assert RemoteOracle(base_url).score_batch([]).shape == (0, 0)
        assert server.requests == []


class TestFailures:
    def test_status_error(self, base_url):
        with pytest.raises(RemoteStatusError) as exc:
            RemoteOracle(base_url + "/broken").score_batch(["x"])
        assert "500" in str(exc.value)

    def test_non_json_body(self, base_url):
        with pytest.raises(RemoteSchemaError):
            RemoteOracle(base_url + "/notjson").score_batch(["x"])

    def test_wrong_row_count(self, base_url):
        with pytest.raises(RemoteSchemaError):
            RemoteOracle(base_url + "/short").score_batch(["x", "y"])

    @pytest.mark.parametrize("path", ["/ragged", "/bool", "/nan"])
    def test_malformed_score_rows(self, base_url, path):
        # ragged class widths; JSON true/false; NaN, which json parses
        with pytest.raises(RemoteSchemaError):
            RemoteOracle(base_url + path).score_batch(["x", "y"])

    def test_declared_class_mismatch(self, base_url):
        with pytest.raises(RemoteSchemaError):
            RemoteOracle(base_url, num_classes=3).score_batch(["x"])

    def test_connection_refused(self):
        oracle = RemoteOracle("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteTransportError):
            oracle.score_batch(["x"])


class TestProxyEnvironment:
    def test_no_proxy_reaches_the_stub(self, base_url, monkeypatch):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        oracle = RemoteOracle(base_url)
        assert oracle.score_batch(["abc"]).tolist() == [[3.0, 97.0]]
        assert not oracle.session.trust_env
        assert "http" not in oracle.session.proxies

    def test_proxy_resolved_once_at_construction(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.invalid:3128")
        monkeypatch.setenv("CURL_CA_BUNDLE", "/etc/ssl/bundle.pem")
        oracle = RemoteOracle("http://scorer.invalid:8080")
        assert oracle.session.proxies["http"] == "http://proxy.invalid:3128"
        assert oracle.session.verify == "/etc/ssl/bundle.pem"
        assert not oracle.session.trust_env

    def test_given_session_left_untouched(self, base_url, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.invalid:3128")
        session = requests.Session()
        oracle = RemoteOracle(base_url, session=session)
        assert oracle.session is session
        assert session.trust_env and not session.proxies
