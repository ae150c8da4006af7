"""Start-up: no run loads ``scipy``; the program is numpy only.

Each check runs in a fresh interpreter, because the pytest process has long
since loaded scipy (the tests' reference implementations use it). A run
against a remote oracle, training, saving, loading and scoring the builtin
classifier, and the CLI's ``train-builtin`` and ``run`` must all finish
without loading any scipy module, and give the same bits as in this process.
The CLI's builtin commands must also load neither ``ssl`` nor
``http.client``, which only the remote oracle needs. Every name the package
exports resolves.
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
from charmer.cli import main
from charmer.harness import report_body
from charmer.synth import make_keyword_corpus

SRC = Path(__file__).resolve().parent.parent / "src"
TEXTS = ["the movie was good", "the plot felt awful", "", "é😀 ab", "aaaa aaaa"]
SMALL = TrainConfig(feature_dim=4096, steps=20, seed=0)

PRELUDE = """
import json
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def network_loaded():
    return sorted({"ssl", "http.client"} & set(sys.modules))
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

TRAIN_AND_SCORE = PRELUDE + """
from charmer.classifier import BuiltinClassifier, TrainConfig, train_builtin

corpus = json.loads(sys.argv[2])
train_builtin(corpus, TrainConfig(feature_dim=4096, steps=20, seed=0)).save(sys.argv[1])
logits = BuiltinClassifier.load(sys.argv[1]).logits(json.loads(sys.argv[3]))
assert not scipy_loaded(), scipy_loaded()[:5]
print(logits.tobytes().hex())
"""

CLI = PRELUDE + """
from charmer.cli import main

assert main(sys.argv[1:]) == 0
assert not scipy_loaded(), scipy_loaded()[:5]
assert not network_loaded(), network_loaded()
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


def test_training_saving_loading_and_scoring_load_no_scipy_and_give_the_same_bits(tmp_path):
    train_builtin(corpus(), SMALL).save(tmp_path / "here.bin")
    expected = BuiltinClassifier.load(tmp_path / "here.bin").logits(TEXTS)
    scored = fresh_python(TRAIN_AND_SCORE, str(tmp_path / "there.bin"), json.dumps(corpus()), json.dumps(TEXTS))
    assert (tmp_path / "there.bin").read_bytes() == (tmp_path / "here.bin").read_bytes()
    assert scored.strip() == expected.tobytes().hex()


def test_a_builtin_cli_run_loads_no_scipy_and_gives_the_same_report(tmp_path):
    data = tmp_path / "data.jsonl"
    lines = [json.dumps({"id": f"r{i}", "text": text, "label": y}) + "\n" for i, (text, y) in enumerate(corpus())]
    data.write_text("".join(lines))
    train = ["train-builtin", "--dataset", str(data), "--steps", "20", "--dim", "4096"]
    run = ["run", "--dataset", str(data), "--n", "5", "--k", "2"]

    def here(argv):
        assert main(argv) == 0

    for where, command in (("here", here), ("there", lambda argv: fresh_python(CLI, *argv))):
        model = tmp_path / f"{where}.bin"
        command([*train, "--out", str(model)])
        command([*run, "--oracle", f"builtin:{model}", "--report", str(tmp_path / f"{where}.json")])
    assert (tmp_path / "there.bin").read_bytes() == (tmp_path / "here.bin").read_bytes()
    reports = [json.loads((tmp_path / f"{where}.json").read_text()) for where in ("here", "there")]
    assert reports[0]["counts"]["attackable"]
    assert report_body(reports[1]) == report_body(reports[0])


def test_every_exported_name_resolves():
    # RemoteOracle resolves through the package's lazy __getattr__; a deleted function must not linger in __all__
    import charmer

    assert [name for name in charmer.__all__ if not hasattr(charmer, name)] == []
