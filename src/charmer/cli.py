"""Command-line interface: attack runs, classifier training, verify suites."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .attack import AttackConfig, PjcConstraints
from .classifier import BuiltinClassifier, BuiltinOracle, TrainConfig, train_builtin
from .harness import (
    ATTACK_NAMES,
    DatasetError,
    extract_alphabet,
    load_dataset,
    run_attack_suite,
)
from .oracle import OracleError
from .pga import PgaConfig
from .remote import RemoteOracle
from .verify import SUITES, run_suite

log = logging.getLogger("charmer")


def _setup_logging() -> None:
    level = os.environ.get("CHARMER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _make_oracle(spec: str):
    if spec.startswith("builtin:"):
        return BuiltinOracle(BuiltinClassifier.load(spec[len("builtin:") :]))
    if spec.startswith(("http://", "https://")):
        return RemoteOracle(spec)
    if spec.startswith("http:"):
        return RemoteOracle("http://" + spec[len("http:") :])
    raise OracleError(f"unknown oracle spec {spec!r}; use builtin:<file> or http:<url>")


def _cmd_run(args) -> int:
    records = load_dataset(args.dataset, args.format, cap=args.cap)
    oracle = _make_oracle(args.oracle)
    alphabet = extract_alphabet(records)
    constraints = (
        PjcConstraints.from_names(args.constraints.split(","))
        if args.constraints
        else PjcConstraints()
    )
    config = AttackConfig(
        alphabet=alphabet,
        n=args.n,
        k=args.k,
        constraints=constraints,
        segment_preselect=args.segments,
        budget=args.budget,
        seed=args.seed,
    )
    pga_config = None
    if args.attack == "pga":
        pga_config = PgaConfig(
            step_size=args.pga_step,
            iterations=args.pga_iters,
            k=args.k,
            seed=args.seed,
        )
    report = run_attack_suite(
        records,
        oracle,
        args.attack,
        config,
        pga_config=pga_config,
        transcript_path=args.out,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, ensure_ascii=False, indent=2)
    counts = report["counts"]
    asr = report["asr_percent"]
    print(
        f"attacked {counts['attackable']}/{counts['total']} "
        f"(skipped {counts['skipped']}, errors {counts['errors']}); "
        + (f"ASR {asr:.2f}%" if asr is not None else "no attackable samples")
    )
    # a run where every record errored is a failure, not an empty success
    if counts["total"] and counts["errors"] == counts["total"]:
        return 1
    return 0


def _cmd_train_builtin(args) -> int:
    config = TrainConfig(
        feature_dim=args.dim,
        steps=args.steps,
        learning_rate=args.lr,
        seed=args.seed,
    )
    records = load_dataset(args.dataset, args.format, cap=args.cap)
    clf = train_builtin([(r.text, r.label) for r in records], config)
    clf.save(args.out)
    acc = float((clf.predict([r.text for r in records]) == [r.label for r in records]).mean())
    print(f"trained on {len(records)} records, train accuracy {acc:.3f}, saved to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    ok, lines = run_suite(args.suite)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="attack a dataset and write transcripts/report")
    run.add_argument("--dataset", required=True)
    run.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    run.add_argument("--oracle", required=True, help="builtin:<model-file> or http:<url>")
    run.add_argument("--attack", choices=ATTACK_NAMES, default="charmer")
    run.add_argument("--n", type=int, default=20)
    run.add_argument("--k", type=int, default=10)
    run.add_argument("--constraints", default="", help="comma list: repeat,first,last,length,loweng")
    run.add_argument("--segments", type=int, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--cap", type=int, default=1000)
    run.add_argument("--pga-step", type=float, default=0.1)
    run.add_argument("--pga-iters", type=int, default=200)
    run.add_argument("--out", default=None, help="transcripts JSONL path")
    run.add_argument("--report", default=None, help="report JSON path")
    run.set_defaults(func=_cmd_run)

    train = sub.add_parser("train-builtin", help="train the builtin n-gram classifier")
    train.add_argument("--dataset", required=True)
    train.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    train.add_argument("--out", required=True)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--steps", type=int, default=200)
    train.add_argument("--lr", type=float, default=1.0)
    train.add_argument("--dim", type=int, default=1 << 16)
    train.add_argument("--cap", type=int, default=None)
    train.set_defaults(func=_cmd_train_builtin)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
