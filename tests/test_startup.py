"""Start-up: ``scipy`` loads on the first featurization, not at import.

Each check runs in a fresh interpreter, because the pytest process has long
since loaded scipy. A run against a remote oracle never featurizes, so it
must finish without loading scipy at all; the builtin classifier's first
scoring or training call loads it and must give the same bits as in this
process.
"""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from charmer.classifier import BuiltinClassifier, TrainConfig, train_builtin
from charmer.synth import make_keyword_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
TEXTS = ["the movie was good", "the plot felt awful", "", "é😀 ab", "aaaa aaaa"]
SMALL = TrainConfig(feature_dim=4096, steps=20, seed=0)

PRELUDE = """
import json
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

REMOTE_RUN = PRELUDE + """
import charmer
import charmer.cli
from charmer import AttackConfig, RemoteOracle, extract_alphabet, run_attack_suite
from charmer.synth import make_keyword_corpus

records = make_keyword_corpus(6, seed=7)
config = AttackConfig(alphabet=extract_alphabet(records), n=5, k=2)
report = run_attack_suite(records, RemoteOracle(sys.argv[1]), "charmer", config)
assert report["counts"]["attackable"], report["counts"]
assert not scipy_loaded(), scipy_loaded()[:5]
"""

FIRST_SCORE = PRELUDE + """
from charmer.classifier import BuiltinClassifier

assert not scipy_loaded(), scipy_loaded()[:5]
logits = BuiltinClassifier.load(sys.argv[1]).logits(json.loads(sys.argv[2]))
assert scipy_loaded()
print(logits.tobytes().hex())
"""

FIRST_TRAIN = PRELUDE + """
from charmer.classifier import TrainConfig, train_builtin

assert not scipy_loaded(), scipy_loaded()[:5]
corpus = json.loads(sys.argv[2])
train_builtin(corpus, TrainConfig(feature_dim=4096, steps=20, seed=0)).save(sys.argv[1])
assert scipy_loaded()
"""


def fresh_python(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def corpus() -> list[tuple[str, int]]:
    return [(r.text, r.label) for r in make_keyword_corpus(40, seed=3)]


@pytest.fixture(scope="module")
def builtin_server():
    """A scoring server that serves the logits of a small builtin classifier."""
    clf = train_builtin(corpus(), SMALL)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            sentences = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["sentences"]
            payload = json.dumps({"scores": clf.logits(sentences).tolist()}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def test_a_remote_run_never_loads_scipy(builtin_server):
    fresh_python(REMOTE_RUN, builtin_server)


def test_first_scoring_call_loads_scipy_and_scores_the_same_bits(tmp_path):
    path = tmp_path / "model.bin"
    clf = train_builtin(corpus(), SMALL)
    clf.save(path)
    expected = BuiltinClassifier.load(path).logits(TEXTS)
    assert fresh_python(FIRST_SCORE, str(path), json.dumps(TEXTS)).strip() == expected.tobytes().hex()


def test_first_training_call_loads_scipy_and_saves_the_same_bytes(tmp_path):
    train_builtin(corpus(), SMALL).save(tmp_path / "here.bin")
    fresh_python(FIRST_TRAIN, str(tmp_path / "there.bin"), json.dumps(corpus()))
    assert (tmp_path / "there.bin").read_bytes() == (tmp_path / "here.bin").read_bytes()
