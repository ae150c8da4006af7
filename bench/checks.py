"""Output checks that recompute every result apart from the program.

Nothing here imports ``charmer``: the sentinel expansion, the edit distance,
the n-gram scorer (read straight from the saved model file) and the stub's
keyword model are the benchmark's own. A record that fails any check counts
as a failed operation.

Run on a kept work directory to re-check a finished run::

    python3 bench/checks.py bench/_work/<workload>-<seed>-<pid>
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from inputs import keyword_scores

SENTINEL = "\x00"
# Scores are recomputed by summing weights in another order than the
# program's sparse product, so losses agree to rounding, not bit for bit.
LOSS_TOLERANCE = 1e-6


class NgramScorer:
    """Logits of a saved builtin classifier, by CRC32 n-gram hashing."""

    def __init__(self, model_path):
        raw = Path(model_path).read_bytes()
        if raw[:4] != b"CHNG":
            raise ValueError(f"{model_path}: not a builtin classifier file")
        _version, n_orders = struct.unpack_from("<II", raw, 4)
        self.orders = struct.unpack_from(f"<{n_orders}I", raw, 12)
        offset = 12 + 4 * n_orders
        self.dim, classes = struct.unpack_from("<II", raw, offset)
        offset += 8
        self.weights = np.frombuffer(raw, "<f8", self.dim * classes, offset).reshape(classes, self.dim)
        self.bias = np.frombuffer(raw, "<f8", classes, offset + 8 * self.dim * classes)

    def __call__(self, text: str) -> list[float]:
        padded = "\x02" + text + "\x03"
        hits: dict[int, int] = {}
        for n in self.orders:
            salt = bytes([n])
            for i in range(len(padded) - n + 1):
                h = zlib.crc32(padded[i : i + n].encode("utf-8") + salt) % self.dim
                hits[h] = hits.get(h, 0) + 1
        cols = np.array(sorted(hits), dtype=np.int64)
        counts = np.array([hits[c] for c in cols], dtype=np.float64)
        return (self.weights[:, cols] @ counts + self.bias).tolist()


def margin(scores: list[float], label: int) -> float:
    """Best other-class score minus the true-class score."""
    return max(v for i, v in enumerate(scores) if i != label) - scores[label]


def replay(original: str, trace: list) -> str:
    """Apply each (expanded position, char) step to the sentence in turn."""
    s = original
    for position, char, _loss in trace:
        slots = [SENTINEL]
        for ch in s:
            slots += [ch, SENTINEL]
        slots[position - 1] = char
        s = "".join(c for c in slots if c != SENTINEL)
    return s


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, one DP row over ``a`` per character of ``b``."""
    row = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        diag, row[0] = row[0], j
        for i, ca in enumerate(a, start=1):
            diag, row[i] = row[i], min(row[i] + 1, row[i - 1] + 1, diag + (ca != cb))
    return row[-1]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=LOSS_TOLERANCE, abs_tol=LOSS_TOLERANCE)


def check_record(entry: dict, label: int, scorer, attack: str) -> list[str]:
    """Every problem found in one transcript line; empty when it is sound."""
    if entry.get("error"):
        return [f"error: {entry['error']}"]
    problems = []
    original, adversarial = entry["original"], entry["adversarial"]
    clean = margin(scorer(original), label)
    if not _close(clean, entry["clean_loss"]):
        problems.append(f"clean_loss {entry['clean_loss']} != rescored {clean}")
    if entry["skipped"] != (entry["clean_loss"] >= 0):
        problems.append("skipped does not match the sign of clean_loss")
    if entry["skipped"]:
        if adversarial != original or entry["trace"]:
            problems.append("a skipped record was changed")
        return problems
    final = margin(scorer(adversarial), label)
    if not _close(final, entry["final_loss"]):
        problems.append(f"final_loss {entry['final_loss']} != rescored {final}")
    if entry["success"] != (entry["final_loss"] >= 0):
        problems.append("success does not match the sign of final_loss")
    d = edit_distance(original, adversarial)
    if entry["d_lev"] != d:
        problems.append(f"d_lev {entry['d_lev']} != recomputed {d}")
    if d > entry["edits_used"]:
        problems.append(f"distance {d} exceeds edits_used {entry['edits_used']}")
    if attack == "pga":
        if d > 2:
            problems.append(f"distance {d} is outside the radius-2 ball")
        return problems
    if replay(original, entry["trace"]) != adversarial:
        problems.append("trace does not replay to adversarial")
    losses = [step[2] for step in entry["trace"]]
    if any(b < a for a, b in zip(losses, losses[1:])):
        problems.append("trace losses decrease")
    if losses and losses[-1] != entry["final_loss"]:
        problems.append("final_loss is not the last trace loss")
    return problems


def check_round(records: list[dict], transcript: list[dict], report: dict, scorer, attack: str):
    """(failed record ids with their problems, suite-level problems)."""
    labels = {r["id"]: r["label"] for r in records}
    failed = {}
    for entry in transcript:
        problems = check_record(entry, labels[entry["id"]], scorer, attack)
        if problems:
            failed[entry["id"]] = problems
    suite = []
    if [e["id"] for e in transcript] != [r["id"] for r in records]:
        suite.append("transcript ids do not match the dataset")
    clean_queries = sum(1 for e in transcript if not e.get("error"))
    expected = clean_queries + sum(e["queries"] for e in transcript)
    if report["queries_total"] != expected:
        suite.append(f"queries_total {report['queries_total']} != transcript sum {expected}")
    return failed, suite


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def make_scorer(meta: dict, work: Path):
    return keyword_scores if meta["oracle"] == "remote" else NgramScorer(work / "model.bin")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 bench/checks.py <work directory>", file=sys.stderr)
        return 2
    work = Path(argv[0])
    meta = json.loads((work / "meta.json").read_text())
    scorer = make_scorer(meta, work)
    bad = 0
    for r in range(meta["rounds"]):
        failed, suite = check_round(
            read_jsonl(work / f"round{r}.jsonl"),
            read_jsonl(work / f"transcript{r}.jsonl"),
            json.loads((work / f"report{r}.json").read_text()),
            scorer,
            meta["attack"],
        )
        for rid, problems in failed.items():
            print(f"round {r} record {rid}: {'; '.join(problems)}")
        for problem in suite:
            print(f"round {r}: {problem}")
        bad += len(failed) + len(suite)
    print("checks: " + ("PASS" if not bad else f"FAIL ({bad} problems)"))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
