"""One-off length sweep: one greedy iteration at L in {32, 256, 1024}.

    PYTHONPATH=src python3 bench/sweep.py

For each length, trains the builtin classifier on 500 long-workload
sentences of that length, runs one charmer iteration (n=20, k=1) on three
more, and times ``levenshtein`` on a pair of them. Prints queries per second,
seconds per iteration and milliseconds per distance, with the versions and
CPU count the figures were taken with. Not part of the timed benchmark.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy
import scipy

from charmer import AttackConfig, BuiltinOracle, charmer_attack, levenshtein, train_builtin
from charmer.harness import DatasetRecord, extract_alphabet
from inputs import make_records

LENGTHS = (32, 256, 1024)


def main() -> None:
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, {os.cpu_count()} CPUs")
    print(f"{'L':>5} {'queries/iter':>12} {'s/iter':>8} {'queries/s':>10} {'levenshtein ms':>15}")
    for length in LENGTHS:
        train = make_records("long", 0, "train", 500, chars=length)
        clf = train_builtin([(r["text"], r["label"]) for r in train])
        oracle = BuiltinOracle(clf)
        evals = [DatasetRecord(**r) for r in make_records("long", 0, "sweep", 3, chars=length)]
        config = AttackConfig(alphabet=extract_alphabet(evals), n=20, k=1)
        queries = seconds = 0.0
        for r in evals:
            outcome = charmer_attack(oracle, r.text, r.label, config)
            queries += outcome.queries
            seconds += outcome.elapsed
        dist_ms = []
        for _ in range(3):
            start = time.perf_counter()
            levenshtein(evals[0].text, evals[1].text)
            dist_ms.append(1000 * (time.perf_counter() - start))
        print(f"{length:5d} {queries / len(evals):12.0f} {seconds / len(evals):8.3f} "
              f"{queries / seconds:10.0f} {statistics.median(dist_ms):15.2f}")


if __name__ == "__main__":
    main()
