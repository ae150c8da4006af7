"""The traced benchmark (``bench/tracing.py``) finds every layer it hooks.

A hook whose target is gone is skipped silently and its per-layer metrics go
missing from the traced result, so this checks that every hook ``install``
attempts lands, that each hooked name is still called through the binding
the hook patched, and that the n-gram cache still has ``cache_info``. It runs
in a subprocess because ``install`` patches the ``charmer`` modules. A traced
run of each workload, one round long, must then end in a result line that
holds every per-layer metric ``BENCHMARK.json`` names.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

PROBE = """
import sys

sys.path.insert(0, sys.argv[1])

import charmer
from charmer import attack, classifier, harness, pga, synth
from tracing import Tracer, install

attempted = set()


class Recording(Tracer):
    def hook(self, owner, attr, name, **kwargs):
        attempted.add(name)
        super().hook(owner, attr, name, **kwargs)


tracer = Recording()
install(tracer, charmer)
assert attempted == tracer.hooked, f"hooks without a target: {sorted(attempted - tracer.hooked)}"
assert hasattr(classifier._hashed_counts, "cache_info"), "the n-gram cache lost cache_info"

train = synth.make_keyword_corpus(200, seed=0)
clf = classifier.train_builtin([(r.text, r.label) for r in train], classifier.TrainConfig(steps=50))
oracle = classifier.BuiltinOracle(clf)
records = synth.make_keyword_corpus(6, seed=7)
config = attack.AttackConfig(alphabet=harness.extract_alphabet(records), n=5, k=2)
greedy = harness.run_attack_suite(records, oracle, "charmer", config)
relaxed = harness.run_attack_suite(
    records[:2], oracle, "pga", config, pga_config=pga.PgaConfig(iterations=3, candidate_cap=32)
)
assert greedy["counts"]["attackable"] and relaxed["counts"]["attackable"], "nothing attacked"
assert set(tracer.calls) == tracer.hooked, f"never called: {sorted(tracer.hooked - set(tracer.calls))}"
"""


def test_every_traced_hook_finds_and_sees_its_target():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "bench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """The benchmark and the program, copied so that runs write nothing into the repo."""
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("_work", "__pycache__")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, root / part, ignore=skip)
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_a_result_line(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
