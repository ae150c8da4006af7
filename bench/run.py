"""Benchmark of ``attack run``: one workload, one seed, one measured period.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run generates its inputs from the seed
and writes them under ``bench/_work/``, then attacks them in a fixed number of
rounds, set by the workload and ``--seconds``. Each round is a fresh worker
process (``worker.py``) that trains the builtin classifier, saves and loads
it, ingests the round's records, extracts the alphabet and runs
``run_attack_suite`` with a transcript, as ``attack train-builtin`` and
``attack run`` do. Rounds run
one after another (a closed loop); the remote workload's worker talks to a
stub server (``stub.py``) over one keep-alive connection. Every transcript
line is checked by ``checks.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the workers hook each layer and it holds the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from checks import check_round, make_scorer, read_jsonl
from inputs import TRAIN_RECORDS, make_records, write_jsonl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# name: (input kind, attack, oracle, records per round, seconds per round).
# A round is sized to a few seconds, so that a run holds several set-ups and
# enough records. The seconds per round are a round's wall time on the 2-CPU
# reference machine of README.md; a run attacks seconds // that many rounds,
# so the records it attacks depend on the seed and --seconds, not on speed.
WORKLOADS = {
    "desk": ("desk", "charmer", "builtin", 50, 4.6),
    "long": ("long", "charmer", "builtin", 1, 6.0),
    "remote": ("desk", "charmer", "remote", 75, 2.3),
    "pga": ("desk", "pga", "builtin", 5, 5.6),
}
WORKER_TIMEOUT_S = 150
STUB_START_TIMEOUT_S = 30


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """One BLAS thread, fixed hashing, the repo's sources, no proxies."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_stub(env: dict):
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "stub.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    ready, _, _ = select.select([proc.stdout], [], [], STUB_START_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    if not line.startswith(b"port "):
        stop(proc)
        raise BenchError("the stub server did not start")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}"


def stub_stats(endpoint: str) -> dict:
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(endpoint + "/stats", timeout=30) as resp:
        return json.load(resp)


def stop(proc) -> None:
    """End a child and wait for it; closing stdin is how the stub is told."""
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_worker(cmd: list[str], env: dict) -> dict:
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, env: dict) -> dict:
    kind, attack, oracle, per_round, round_s = WORKLOADS[workload]
    meta = dict(workload=workload, seed=seed, attack=attack, oracle=oracle, rounds=0)
    base = [sys.executable, str(BENCH / "worker.py"), "--attack", attack, "--trace", str(int(trace))]
    stub = None
    if oracle == "builtin":
        write_jsonl(work / "train.jsonl", make_records(kind, seed, "train", TRAIN_RECORDS))
        base += ["--train", str(work / "train.jsonl"), "--model", str(work / "model.bin")]
    else:
        # Worker and stub take turns (one POST at a time). On one CPU neither
        # waits for an idle CPU to be woken, a wait that on a busy shared host
        # made unpinned remote runs a third slower and twice as spread out.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        stub, endpoint = start_stub(env)
        base += ["--endpoint", endpoint]
    rounds = []
    try:
        for r in range(max(1, int(seconds // round_s))):
            records = make_records(kind, seed, f"round{r}", per_round)
            write_jsonl(work / f"round{r}.jsonl", records)
            before = stub_stats(endpoint) if stub else None
            result = run_worker(
                base + [
                    "--records", str(work / f"round{r}.jsonl"),
                    "--transcript", str(work / f"transcript{r}.jsonl"),
                    "--report", str(work / f"report{r}.json"),
                ],
                env,
            )
            transcript = read_jsonl(work / f"transcript{r}.jsonl")
            report = json.loads((work / f"report{r}.json").read_text())
            failed, problems = check_round(records, transcript, report, make_scorer(meta, work), attack)
            if stub:
                after = stub_stats(endpoint)
                result["stub"] = {k: after[k] - before[k] for k in after}
                if result["stub"]["sentences"] != report["queries_total"]:
                    problems.append(
                        f"stub scored {result['stub']['sentences']} sentences, "
                        f"report counts {report['queries_total']} queries"
                    )
            for rid, found in failed.items():
                print(f"round {r} record {rid} failed: {'; '.join(found)}", file=sys.stderr)
            result.update(records=len(records), failed=len(failed), problems=problems,
                          queries=report["queries_total"], transcript=transcript)
            rounds.append(result)
            meta["rounds"] = len(rounds)
            (work / "meta.json").write_text(json.dumps(meta))
    finally:
        if stub:
            stop(stub)
    return summarize(rounds, trace, attack)


def summarize(rounds: list[dict], trace: bool, attack: str) -> dict:
    records = sum(r["records"] for r in rounds)
    suite_s = sum(r["suite_s"] for r in rounds)
    attacked = [e for r in rounds for e in r["transcript"] if not e["skipped"] and not e["error"]]
    if not attacked:
        raise BenchError("no record was attacked")
    for i, r in enumerate(rounds):
        print(f"round {i}: records={r['records']} suite_s={r['suite_s']!r} queries={r['queries']} "
              f"setup_s={r['setup_s']!r} peak_rss_mb={r['peak_rss_mb']!r}")
        print(f"report_body_sha256 round={i} {r['report_sha256']}")
    if len(attacked) >= 100:
        p90 = statistics.quantiles([e["elapsed"] for e in attacked], n=10)[-1]
        print(f"record_ms_p90 {1000 * p90!r} over {len(attacked)} attacked records")
    e2e = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "records_per_s": (records / suite_s, "1/s"),
        "queries_per_s": (sum(r["queries"] for r in rounds) / suite_s, "1/s"),
        "queries_per_record": (sum(r["queries"] for r in rounds) / records, "count"),
        "record_ms_p50": (1000 * statistics.median(e["elapsed"] for e in attacked), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    if trace:
        print("end_to_end " + json.dumps({k: v for k, (v, _) in e2e.items()}))
        metrics = per_layer(rounds, records, suite_s, attack)
    else:
        metrics = e2e
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": records,
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# per-layer sums reported per record of the suite, with their units
PER_RECORD = {
    "classifier.features_ms": "ms", "classifier.rows": "count", "classifier.chars": "count",
    "classifier.matmul_ms": "ms", "oracle.batches": "count",
    "attack.probe_ms": "ms", "attack.probes": "count", "attack.candidates_ms": "ms",
    "attack.candidates": "count", "attack.cw_loss_ms": "ms",
    "sentence.levenshtein_ms": "ms", "sentence.levenshtein_calls": "count",
    "sentence.ball_ms": "ms", "sentence.ball_overflows": "count",
    "pga.grad_ms": "ms", "pga.project_ms": "ms", "pga.steps": "count",
}


def per_layer(rounds: list[dict], records: int, suite_s: float, attack: str) -> dict:
    """Per-layer metrics; absent where a round lacked the hook behind them."""
    present = set.intersection(*(set(r["layers"]) for r in rounds))
    sums = {k: sum(r["layers"][k] for r in rounds) for k in present}
    out = {name: (sums[name] / records, unit) for name, unit in PER_RECORD.items() if name in sums}
    if "classifier.cache_hits" in sums:
        lookups = sums["classifier.cache_hits"] + sums["classifier.cache_misses"]
        out["classifier.cache_hit_ratio"] = (sums["classifier.cache_hits"] / lookups if lookups else 0.0, "ratio")
    if "classifier.train_ms" in sums:
        out["classifier.train_ms"] = (statistics.median(r["layers"]["classifier.train_ms"] for r in rounds), "ms")
    if "oracle.rows" in sums:
        out["oracle.rows_per_batch"] = (sums["oracle.rows"] / sums["oracle.batches"] if sums["oracle.batches"] else 0.0, "count")
    if "pga.grad_rows" in sums:
        out["pga.candidates"] = (sums["pga.grad_rows"] / sums["pga.grad_calls"] if sums["pga.grad_calls"] else 0.0, "count")
    entries = [e for r in rounds for e in r["transcript"]]
    steps = sum(len(e["trace"]) for e in entries) if attack != "pga" else 0
    out["attack.iterations"] = (steps / records, "count")
    # the stub counts from the server's side: what it takes in, the program sends
    for name, key, unit in (("requests", "requests", "count"), ("bytes_out", "bytes_in", "bytes"),
                            ("bytes_in", "bytes_out", "bytes")):
        out[f"remote.{name}"] = (sum(r.get("stub", {}).get(key, 0) for r in rounds) / records, unit)
    posts = [p for r in rounds for p in r.get("posts", [])]
    out["remote.post_ms_p50"] = (statistics.median(p[0] for p in posts) if posts else 0.0, "ms")
    out["remote.server_ms"] = (sum(p[1] for p in posts) / records, "ms")
    out["remote.client_ms"] = (sum(p[0] - p[1] for p in posts) / records, "ms")
    out["harness.bookkeeping_ms"] = (1000 * (suite_s - sum(e["elapsed"] for e in entries)) / records, "ms")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "charmer").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'charmer'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, child_env())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result["failed"] or not result["correct"]:
        print(f"kept {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
