"""One round of a workload, in a fresh process: set up, attack, report.

Makes the calls ``attack train-builtin`` and ``attack run`` make, in their
order, so that the n-gram cache, the GC state and the peak RSS start from
zero. Prints one JSON line: the set-up time, the suite's wall time, the
report digest, the peak RSS and, when traced, the per-layer sums.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so set-up time includes
interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--attack", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--train", help="training split; omit for a remote oracle")
    p.add_argument("--model")
    p.add_argument("--endpoint")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    import charmer
    from charmer import attack, classifier, harness, pga, remote

    tracer = posts = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, charmer)

    if args.train:
        train = harness.load_dataset(args.train, cap=None)
        clf = classifier.train_builtin([(r.text, r.label) for r in train], classifier.TrainConfig())
        clf.save(args.model)
        oracle = classifier.BuiltinOracle(classifier.BuiltinClassifier.load(args.model))
    elif args.trace:
        posts = []
        oracle = remote.RemoteOracle(args.endpoint, session=_timed_session(posts))
    else:
        oracle = remote.RemoteOracle(args.endpoint)
    records = harness.load_dataset(args.records)
    alphabet = harness.extract_alphabet(records)
    if args.attack == "pga":
        config = attack.AttackConfig(alphabet=alphabet, n=20, k=2)
        pga_config = pga.PgaConfig(step_size=0.1, iterations=200, k=2, seed=0)
    else:
        config = attack.AttackConfig(alphabet=alphabet, n=20, k=10)
        pga_config = None
    # the n-gram cache, counted over the suite only; absent if it is gone
    cache = getattr(classifier, "_hashed_counts", None) if tracer else None
    cache_before = cache.cache_info() if hasattr(cache, "cache_info") else None
    setup_s = time.monotonic() - args.t0

    start = time.perf_counter()
    report = harness.run_attack_suite(
        records, oracle, args.attack, config, pga_config=pga_config, transcript_path=args.transcript
    )
    suite_s = time.perf_counter() - start

    body = harness.report_body(report)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True)
    result = {
        "setup_s": setup_s,
        "suite_s": suite_s,
        "report_sha256": hashlib.sha256(body).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        from tracing import layer_sums

        result["layers"] = layer_sums(tracer)
        if cache_before is not None:
            after = cache.cache_info()
            result["layers"]["classifier.cache_hits"] = after.hits - cache_before.hits
            result["layers"]["classifier.cache_misses"] = after.misses - cache_before.misses
        if posts is not None:
            result["posts"] = posts
    print(json.dumps(result))


def _timed_session(posts: list):
    """A requests.Session that logs (round-trip ms, stub-reported ms) per POST."""
    import requests

    class TimedSession(requests.Session):
        def post(self, *args, **kwargs):
            start = time.perf_counter()
            resp = super().post(*args, **kwargs)
            posts.append([1000 * (time.perf_counter() - start), float(resp.headers["X-Server-Ms"])])
            return resp

    return TimedSession()


if __name__ == "__main__":
    main()
