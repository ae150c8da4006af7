import base64
import http.client
import json
import math
import select
import shutil
import socket
import ssl
import subprocess
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest
import requests

from charmer import harness
from charmer.attack import AttackConfig
from charmer.harness import DatasetRecord, extract_alphabet, report_body, run_attack_suite
from charmer.remote import (
    RemoteOracle,
    RemoteOracleError,
    RemoteSchemaError,
    RemoteStatusError,
    RemoteTransportError,
)
from charmer.sentence import single_edit


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
        if self.path == "/deep/score":
            return self._reply(200, b"[" * 100_000 + b"]" * 100_000)
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


class TestSuite:
    @pytest.mark.parametrize("attack", ["charmer", "random", "exhaustive-k1"])
    def test_lockstep_sends_fewer_posts_and_counts_every_sentence(self, base_url, server, monkeypatch, attack):
        # the stub's class 1 is the first code point, so every record here is classified right
        texts = ["a good movie", "bad plot", "it was fine", "zz", "the end of it"]
        records = [DatasetRecord(str(i), text, 1) for i, text in enumerate(texts)]
        records.append(DatasetRecord("paired", "so so", 1, paired_text="premise"))
        config = AttackConfig(alphabet=extract_alphabet(records), n=3, k=3)
        posts, bodies = [], []
        for chunk in (harness._LOCKSTEP_RECORDS, 1):
            monkeypatch.setattr(harness, "_LOCKSTEP_RECORDS", chunk)
            server.requests.clear()
            report = run_attack_suite(records, RemoteOracle(base_url, batch_limit=8), attack, config)
            assert report["counts"]["attackable"] == len(records)
            assert sum(map(len, server.requests)) == report["queries_total"]
            if chunk > 1:  # the paired record's sentences share POSTs with the others'
                premised = [{s.startswith("premise\n") for s in post} for post in server.requests]
                assert {True, False} in premised
            posts.append(len(server.requests))
            bodies.append(report_body(report))
        assert bodies[0] == bodies[1]
        assert posts[0] < posts[1]


class TestFailures:
    def test_status_error(self, base_url):
        with pytest.raises(RemoteStatusError) as exc:
            RemoteOracle(base_url + "/broken").score_batch(["x"])
        assert "500" in str(exc.value)

    def test_non_json_body(self, base_url):
        with pytest.raises(RemoteSchemaError):
            RemoteOracle(base_url + "/notjson").score_batch(["x"])

    def test_too_deep_json_is_a_schema_error(self, base_url):
        with pytest.raises(RemoteSchemaError):
            RemoteOracle(base_url + "/deep").score_batch(["x"])

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


class KeepAliveStub(BaseHTTPRequestHandler):
    """HTTP/1.1 scorer, [len(s), 0] per sentence, that records each request
    as (headers, body bytes, client port) in ``server.seen``. A batch that
    holds "slow" is answered after half a second."""

    protocol_version = "HTTP/1.1"
    hang_up = False  # read the request, then close without replying
    close_idle = False  # reply, then close the connection without saying so

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers, raw, self.client_address[1]))
        self.close_connection = self.hang_up or self.close_idle
        if self.hang_up:
            return
        sentences = json.loads(raw)["sentences"]
        if "slow" in sentences:
            time.sleep(0.5)
        rows = [[float(len(s)), 0.0] for s in sentences]
        payload = json.dumps({"scores": rows}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class ForwardingProxy(KeepAliveStub):
    """An HTTP proxy: forwards an absolute-form POST to its target and
    tunnels a CONNECT. Records (headers, request target) per request."""

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers, self.path))
        target = urllib.parse.urlsplit(self.path)
        if not target.hostname:
            return self.send_error(400)
        conn = http.client.HTTPConnection(target.hostname, target.port, timeout=5)
        conn.request("POST", target.path, raw, {"Content-Type": self.headers["Content-Type"]})
        resp = conn.getresponse()
        payload = resp.read()
        conn.close()
        self.send_response(resp.status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        self.server.seen.append((self.headers, self.path))
        host, _, port = self.path.rpartition(":")
        upstream = socket.create_connection((host, int(port)), timeout=5)
        self.send_response(200)
        self.end_headers()
        self.close_connection = True
        peer = {self.connection: upstream, upstream: self.connection}
        with upstream:
            while True:
                readable, _, _ = select.select(list(peer), [], [], 5)
                data = readable and readable[0].recv(65536)
                if not data:
                    return
                peer[readable[0]].sendall(data)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()

    def handle_error(self, request, client_address):
        pass  # a client that hung up on a slow reply


@pytest.fixture
def serve():
    """Starts a ``StubServer`` for a handler class, TLS if given a context;
    returns (server, base URL)."""
    servers = []

    def start(handler, tls=None):
        httpd = StubServer(("127.0.0.1", 0), handler)
        if tls is not None:
            httpd.socket = tls.wrap_socket(httpd.socket, server_side=True)
        httpd.seen, httpd.closed = [], threading.Event()
        threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(httpd)
        return httpd, f"{'https' if tls else 'http'}://127.0.0.1:{httpd.server_address[1]}"

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture
def clean_env(monkeypatch, tmp_path):
    """No proxy, CA-bundle or netrc setting from the outer environment."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NETRC", str(tmp_path / "no-netrc"))


class TestConstruction:
    @pytest.mark.parametrize(
        "endpoint",
        ["ftp://x", "x", "http://", "https:///score", "http://host:port", "http://h:0", "http://h:70000", "file:///tmp"],
    )
    def test_endpoint_must_be_http_or_https_with_a_host(self, endpoint):
        with pytest.raises(RemoteOracleError):
            RemoteOracle(endpoint)

    @pytest.mark.parametrize("batch_limit", [0, -1, 2.0, True, "64", None])
    def test_batch_limit_must_be_a_positive_int(self, base_url, batch_limit):
        with pytest.raises(RemoteOracleError):
            RemoteOracle(base_url, batch_limit=batch_limit)

    @pytest.mark.parametrize("timeout", [0, -1.5, math.nan, math.inf, True, "30", None])
    def test_timeout_must_be_finite_and_positive(self, base_url, timeout):
        with pytest.raises(RemoteOracleError):
            RemoteOracle(base_url, timeout=timeout)

    @pytest.mark.parametrize("retries", [-1, 1.0, True, "0", None])
    def test_retries_must_be_a_non_negative_int(self, base_url, retries):
        with pytest.raises(RemoteOracleError):
            RemoteOracle(base_url, retries=retries)


    def test_unusable_proxy_or_ca_bundle_is_rejected(self, clean_env, monkeypatch, tmp_path):
        monkeypatch.setenv("HTTPS_PROXY", "socks5://127.0.0.1:9")
        with pytest.raises(RemoteOracleError):
            RemoteOracle("https://127.0.0.1:9")
        monkeypatch.delenv("HTTPS_PROXY")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "absent.pem"))
        with pytest.raises(RemoteOracleError):
            RemoteOracle("https://127.0.0.1:9")


class TestKeepAlive:
    def test_one_connection_serves_every_request(self, serve, clean_env):
        stub, url = serve(KeepAliveStub)
        oracle = RemoteOracle(url, batch_limit=1)
        assert oracle.score_batch(["a", "bb", "ccc"]).tolist() == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        assert len({port for _, _, port in stub.seen}) == 1

    def test_idle_connection_closed_by_the_server_is_reopened(self, serve, clean_env):
        stub, url = serve(type("CloseIdle", (KeepAliveStub,), {"close_idle": True}))
        oracle = RemoteOracle(url)
        assert oracle.score_batch(["a"]).tolist() == [[1.0, 0.0]]
        assert stub.closed.wait(5)
        assert oracle.score_batch(["bb"]).tolist() == [[2.0, 0.0]]
        assert [json.loads(raw)["sentences"] for _, raw, _ in stub.seen] == [["a"], ["bb"]]

    @pytest.mark.parametrize("retries", [0, 1])
    def test_a_request_lost_after_sending_is_sent_once_per_try(self, serve, clean_env, retries):
        stub, url = serve(type("HangUp", (KeepAliveStub,), {"hang_up": True}))
        with pytest.raises(RemoteTransportError):
            RemoteOracle(url, retries=retries, timeout=5).score_batch(["x"])
        assert len(stub.seen) == retries + 1

    def test_a_timed_out_reply_is_never_read_as_the_next(self, serve, clean_env):
        stub, url = serve(KeepAliveStub)
        oracle = RemoteOracle(url, timeout=0.2)
        with pytest.raises(RemoteTransportError):
            oracle.score_batch(["slow"])
        assert oracle.score_batch(["ab"]).tolist() == [[2.0, 0.0]]

    def test_body_is_the_json_bytes_requests_sends(self, serve, clean_env):
        stub, url = serve(KeepAliveStub)
        sentences = ["plain", 'quote " back \\ slash', "é😀", "\x00\n\t", ""]
        RemoteOracle(url).score_batch(sentences)
        headers, raw, _ = stub.seen[0]
        doc = {"sentences": sentences}
        assert raw == json.dumps(doc, allow_nan=False).encode()
        assert raw == requests.Request("POST", url, json=doc).prepare().body
        assert headers["Content-Type"] == "application/json"

    def test_score_edits_sends_the_bodies_of_the_edited_sentences(self, serve, clean_env):
        stub, url = serve(KeepAliveStub)
        base = 'quote " é😀'
        positions, codes = [1, 4, 21, 2, 3], [ord("x"), 0, ord("😀"), ord("q"), 0]
        sentences = [single_edit(base, i, chr(c)) for i, c in zip(positions, codes)]
        rows = RemoteOracle(url, batch_limit=3).score_edits(base, np.array(positions), np.array(codes))
        assert rows.tobytes() == RemoteOracle(url, batch_limit=3).score_batch(sentences).tobytes()
        bodies = [raw for _, raw, _ in stub.seen]
        assert bodies[:2] == bodies[2:]
        assert bodies[:2] == [json.dumps({"sentences": part}).encode() for part in (sentences[:3], sentences[3:])]


class TestProxyEnvironment:
    def test_http_proxy_gets_the_absolute_form(self, base_url, server, serve, clean_env, monkeypatch):
        proxy, proxy_url = serve(ForwardingProxy)
        monkeypatch.setenv("HTTP_PROXY", proxy_url.replace("//", "//ann:p%40ss@"))
        assert RemoteOracle(base_url).score_batch(["abc"]).tolist() == [[3.0, 97.0]]
        assert [path for _, path in proxy.seen] == [base_url + "/score"]
        assert proxy.seen[0][0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"ann:p@ss").decode()
        assert server.requests == [["abc"]]

    def test_no_proxy_reaches_the_stub(self, base_url, server, serve, clean_env, monkeypatch):
        proxy, proxy_url = serve(ForwardingProxy)
        monkeypatch.setenv("HTTP_PROXY", proxy_url)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        oracle = RemoteOracle(base_url)
        assert oracle.score_batch(["abc"]).tolist() == [[3.0, 97.0]]
        assert proxy.seen == [] and server.requests == [["abc"]]

    def test_proxy_resolved_once_at_construction(self, base_url, server, serve, clean_env, monkeypatch):
        proxy, proxy_url = serve(ForwardingProxy)
        monkeypatch.setenv("HTTP_PROXY", proxy_url)
        via_proxy = RemoteOracle(base_url)
        monkeypatch.delenv("HTTP_PROXY")
        direct = RemoteOracle(base_url)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens there
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert via_proxy.score_batch(["ab"]).tolist() == direct.score_batch(["ab"]).tolist()
        assert len(proxy.seen) == 1 and server.requests == [["ab"], ["ab"]]

    def test_netrc_login_is_sent(self, serve, clean_env, monkeypatch, tmp_path):
        stub, url = serve(KeepAliveStub)
        (tmp_path / "netrc").write_text("machine 127.0.0.1 login ann password s3cret\n")
        monkeypatch.setenv("NETRC", str(tmp_path / "netrc"))
        RemoteOracle(url).score_batch(["x"])
        assert stub.seen[0][0]["Authorization"] == "Basic " + base64.b64encode(b"ann:s3cret").decode()

    def test_given_session_left_untouched(self, base_url, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.invalid:3128")
        session = requests.Session()
        oracle = RemoteOracle(base_url, session=session)
        assert oracle.session is session
        assert session.trust_env and not session.proxies


@pytest.fixture(scope="module")
def tls_cert(tmp_path_factory):
    """A self-signed certificate for 127.0.0.1, made now: (cert, key) paths."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("openssl is not installed")
    d = tmp_path_factory.mktemp("tls")
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
         "-keyout", str(d / "key.pem"), "-out", str(d / "cert.pem")],
        check=True, capture_output=True,
    )
    return d / "cert.pem", d / "key.pem"


def _server_context(tls_cert):
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(*tls_cert)
    return context


class TestTls:
    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    def test_ca_bundle_variable_is_trusted(self, tls_cert, serve, clean_env, monkeypatch, variable):
        stub, url = serve(KeepAliveStub, tls=_server_context(tls_cert))
        with pytest.raises(RemoteTransportError):
            RemoteOracle(url, timeout=5).score_batch(["x"])
        monkeypatch.setenv(variable, str(tls_cert[0]))
        assert RemoteOracle(url, timeout=5).score_batch(["abc"]).tolist() == [[3.0, 0.0]]
        assert len(stub.seen) == 1

    def test_https_proxy_tunnels_with_connect(self, tls_cert, serve, clean_env, monkeypatch):
        stub, url = serve(KeepAliveStub, tls=_server_context(tls_cert))
        proxy, proxy_url = serve(ForwardingProxy)
        monkeypatch.setenv("HTTPS_PROXY", proxy_url.replace("//", "//ann:pw@"))
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tls_cert[0]))
        oracle = RemoteOracle(url, timeout=5)
        assert oracle.score_batch(["abc"]).tolist() == [[3.0, 0.0]]
        assert oracle.score_batch(["de"]).tolist() == [[2.0, 0.0]]
        assert [target for _, target in proxy.seen] == [url.partition("//")[2]]
        assert proxy.seen[0][0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"ann:pw").decode()
        assert len(stub.seen) == 2
