"""The traced benchmark (``bench/tracing.py``) finds every layer it hooks.

A hook whose target is gone is skipped silently and its per-layer metrics go
missing from the traced result, so this checks that every hook ``install``
attempts lands, that each hooked name is still called through the binding
the hook patched, and that the n-gram cache still has ``cache_info``. It runs
in a subprocess because ``install`` patches the ``charmer`` modules.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
