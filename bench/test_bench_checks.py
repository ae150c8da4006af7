"""The benchmark's output checks pass a real run and fail an altered one."""

import json

import pytest

from checks import NgramScorer, check_round, edit_distance, replay
from inputs import make_records


@pytest.fixture(scope="module")
def desk_round(tmp_path_factory):
    from charmer.attack import AttackConfig
    from charmer.classifier import BuiltinOracle, TrainConfig, train_builtin
    from charmer.harness import DatasetRecord, extract_alphabet, run_attack_suite

    tmp = tmp_path_factory.mktemp("bench")
    train = make_records("desk", 0, "train", 200)
    clf = train_builtin([(r["text"], r["label"]) for r in train], TrainConfig(steps=100))
    clf.save(tmp / "model.bin")
    records = make_records("desk", 0, "round0", 4)
    dataset = [DatasetRecord(id=r["id"], text=r["text"], label=r["label"]) for r in records]
    config = AttackConfig(alphabet=extract_alphabet(dataset), n=20, k=10)
    report = run_attack_suite(dataset, BuiltinOracle(clf), "charmer", config, transcript_path=tmp / "t.jsonl")
    transcript = [json.loads(line) for line in (tmp / "t.jsonl").read_text().splitlines()]
    assert any(not e["skipped"] for e in transcript)
    return records, transcript, report, NgramScorer(tmp / "model.bin")


def test_sound_round_passes(desk_round):
    records, transcript, report, scorer = desk_round
    assert check_round(records, transcript, report, scorer, "charmer") == ({}, [])


@pytest.mark.parametrize(
    "field, change",
    [
        ("adversarial", lambda e: e["adversarial"] + "x"),
        ("final_loss", lambda e: e["final_loss"] + 0.5),
        ("success", lambda e: not e["success"]),
        ("d_lev", lambda e: e["d_lev"] + 1),
        ("trace", lambda e: [[1, "q", e["trace"][0][2]]] + e["trace"][1:]),
    ],
)
def test_altered_record_fails(desk_round, field, change):
    records, transcript, report, scorer = desk_round
    altered = [dict(e) for e in transcript]
    target = next(e for e in altered if not e["skipped"])
    target[field] = change(target)
    failed, _ = check_round(records, altered, report, scorer, "charmer")
    assert list(failed) == [target["id"]]


def test_altered_query_total_fails(desk_round):
    records, transcript, report, scorer = desk_round
    _, problems = check_round(records, transcript, dict(report, queries_total=0), scorer, "charmer")
    assert problems


def test_reference_helpers():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == edit_distance("abc", "") == 3
    # expanded position 1 is the slot before the first character, 2 that character
    assert replay("ab", [[1, "x", 0.0]]) == "xab"
    assert replay("ab", [[2, "x", 0.0]]) == "xb"
    assert replay("ab", [[2, "\x00", 0.0]]) == "b"
