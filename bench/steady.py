"""Steadiness of the benchmark: run each workload over many seeds.

    python3 bench/steady.py --runs 10 --seed0 1
    python3 bench/steady.py --runs 10 --seed0 1 --against bench/_work/steady-A.json

Runs ``run.py`` once per seed and workload, one run at a time, and prints
per end-to-end metric the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) next to the metric's bound
in ``BENCHMARK.json``. With ``--against`` it also prints how far each median
moved from an earlier set, in the metric's worse direction, and whether the
report digests of every round agree. Results are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = time.monotonic() - start
    result["digests"] = [ln.split()[-1] for ln in lines if ln.startswith("report_body_sha256")]
    result["rounds"] = [ln for ln in lines if ln.startswith(("round ", "record_ms_p90 "))]
    for ln in lines:
        if ln.startswith("end_to_end "):
            result["end_to_end"] = json.loads(ln[len("end_to_end "):])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="where to save the results (default bench/_work/steady-<time>.json)")
    p.add_argument("--against", help="an earlier results file to compare medians and digests with")
    args = p.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end" if not args.trace else "per_layer"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for i in range(args.runs):
            r = one_run(workload, args.seed0 + i, args.seconds, args.trace)
            results[workload].append(r)
            print(f"{workload} seed {r['seed']}: {r['wall_s']:.1f} s, attempted {r['attempted']}, "
                  f"failed {r['failed']}, correct {r['correct']}", file=sys.stderr)

    for workload, runs in results.items():
        fails = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(fails)}, "
              f"mean run wall {statistics.fmean(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
              + ("  moved" if earlier else ""))
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                print(f"  {name:28} absent")
                continue
            median, q1, q3, s = spread(values)
            bound = f"{100 * m['bound']:5.1f}%" if "bound" in m else ""
            line = f"  {name:28} {m['unit']:6} {median:12.5g} {q1:12.5g} {q3:12.5g} {100 * s:6.2f}% {bound}"
            if earlier and workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (median - before) / before * (1 if m["better"] == "lower" else -1)
                line += f"  {100 * worse:+6.2f}%" + (" OVER BOUND" if worse > m.get("bound", 1) else "")
            print(line)
        if runs[0].get("end_to_end"):
            for name in runs[0]["end_to_end"]:
                print(f"  traced {name:21} median {statistics.median(r['end_to_end'][name] for r in runs):.5g}")
        if earlier and workload in earlier:
            same = differ = 0
            for a, b in zip(earlier[workload], runs):
                if a["seed"] == b["seed"]:
                    same += a["digests"] == b["digests"]
                    differ += a["digests"] != b["digests"]
            print(f"  report digests: {same} seeds agree, {differ} differ")

    out = Path(args.out) if args.out else BENCH / "_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results))
    print(f"\nsaved {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
