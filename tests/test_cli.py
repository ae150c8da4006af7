import json
import struct

import numpy as np
import pytest

from charmer import attack as attack_module
from charmer import classifier, verify
from charmer.cli import main
from charmer.harness import report_body
from charmer.sentence import single_edit
from charmer.synth import make_keyword_corpus


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for r in make_keyword_corpus(300, seed=0):
            fh.write(json.dumps({"id": r.id, "text": r.text, "label": r.label}) + "\n")
    return path


@pytest.fixture(scope="module")
def eval_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "eval.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for r in make_keyword_corpus(20, seed=7, start_id=1000):
            fh.write(json.dumps({"id": r.id, "text": r.text, "label": r.label}) + "\n")
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, dataset_path):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    assert main(["train-builtin", "--dataset", str(dataset_path), "--out", str(path)]) == 0
    return path


def run_attack(eval_path, model_path, out_dir, name, extra=()):
    transcript = out_dir / f"{name}.jsonl"
    report = out_dir / f"{name}.json"
    code = main(
        [
            "run",
            "--dataset", str(eval_path),
            "--oracle", f"builtin:{model_path}",
            "--out", str(transcript),
            "--report", str(report),
            *extra,
        ]
    )
    assert code == 0
    return transcript, json.loads(report.read_text())


class TestTrainBuiltin:
    def test_writes_model(self, model_path):
        assert model_path.exists()
        assert model_path.read_bytes()[:4] == b"CHNG"

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(
            ["train-builtin", "--dataset", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "m")]
        ) == 1

    def test_a_class_without_training_rows_exits_1(self, tmp_path, capsys):
        dataset = tmp_path / "gap.jsonl"
        dataset.write_text('{"text": "a", "label": 0}\n{"text": "b", "label": 10000}\n', encoding="utf-8")
        assert main(["train-builtin", "--dataset", str(dataset), "--out", str(tmp_path / "m")]) == 1
        assert "class 1 has no training row" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--dim", "0", "feature_dim"), ("--dim", "-3", "feature_dim"), ("--steps", "0", "steps"),
         ("--steps", "-5", "steps"), ("--lr", "0", "learning_rate"), ("--lr", "nan", "learning_rate")],
        ids=["dim-0", "dim-negative", "steps-0", "steps-negative", "lr-0", "lr-nan"],
    )
    def test_values_argparse_accepts_but_training_rejects_exit_1(self, dataset_path, tmp_path, capsys, flag, value, field):
        out = tmp_path / "m.bin"
        assert main(["train-builtin", "--dataset", str(dataset_path), "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be")
        assert not out.exists()


def damaged(data: bytes, damage: str) -> bytes:
    """A model file with orders 1-3 (a 32-byte header) damaged one way."""
    if damage == "header":
        return data[:22]
    if damage == "weights":
        return data[:40]
    if damage == "trailing":
        return data + b"\x00"
    return data[:24] + struct.pack("<II", 0, 2) + data[-16:]  # no features, two classes


class TestRun:
    def test_end_to_end_consistency(self, eval_path, model_path, tmp_path, capsys):
        transcript, report = run_attack(eval_path, model_path, tmp_path, "base")
        counts = report["counts"]
        assert counts["total"] == 20
        assert counts["attackable"] + counts["skipped"] + counts["errors"] == 20
        # ASR arithmetic closes exactly
        assert round(report["asr_percent"] * counts["attackable"] / 100) == counts["successes"]
        assert "ASR" in capsys.readouterr().out
        # every transcript line replays to its reported adversarial sentence
        lines = [json.loads(l) for l in transcript.read_text().splitlines()]
        assert len(lines) == 20
        for line in lines:
            cur = line["original"]
            for pos, char, _loss in line["trace"]:
                if pos is not None:
                    cur = single_edit(cur, pos, char)
            assert cur == line["adversarial"]

    def test_summary_keeps_the_counts_without_attackable_samples(self, model_path, tmp_path, capsys):
        data = tmp_path / "flipped.jsonl"
        with open(data, "w", encoding="utf-8") as fh:  # every label wrong: all four records are skipped
            for r in make_keyword_corpus(4, seed=7):
                fh.write(json.dumps({"id": r.id, "text": r.text, "label": 1 - r.label}) + "\n")
        assert main(["run", "--dataset", str(data), "--oracle", f"builtin:{model_path}"]) == 0
        assert capsys.readouterr().out == "attacked 0/4 (skipped 4, errors 0); no attackable samples\n"

    def test_seeded_rerun_byte_identical(self, eval_path, model_path, tmp_path):
        args = ("--attack", "random", "--seed", "5", "--n", "5", "--k", "4")
        t1, r1 = run_attack(eval_path, model_path, tmp_path, "a", args)
        t2, r2 = run_attack(eval_path, model_path, tmp_path, "b", args)

        def stable_lines(path):
            # per-record wall time is the only legitimately volatile field
            return [
                {k: v for k, v in json.loads(line).items() if k != "elapsed"}
                for line in path.read_text().splitlines()
            ]

        assert stable_lines(t1) == stable_lines(t2)
        assert report_body(r1) == report_body(r2)

    def test_a_second_run_into_one_transcript_exits_1_and_leaves_it(self, eval_path, model_path, tmp_path, capsys):
        args = ("--attack", "random", "--seed", "5", "--n", "5", "--k", "4")
        transcript, _ = run_attack(eval_path, model_path, tmp_path, "once", args)
        written = transcript.read_bytes()
        report = tmp_path / "again.json"
        capsys.readouterr()
        code = main(
            ["run", "--dataset", str(eval_path), "--oracle", f"builtin:{model_path}",
             "--out", str(transcript), "--report", str(report), *args]
        )
        assert code == 1
        assert str(transcript) in capsys.readouterr().err
        assert transcript.read_bytes() == written and not report.exists()
        empty = tmp_path / "empty.jsonl"
        empty.touch()  # an empty transcript is written as a new one
        again, _ = run_attack(eval_path, model_path, tmp_path, "empty", args)
        assert len(again.read_bytes().splitlines()) == len(written.splitlines()) == 20

    def test_all_attack_modes(self, eval_path, model_path, tmp_path):
        for attack in ("charmer-fast", "exhaustive-k1", "pga"):
            _, report = run_attack(
                eval_path, model_path, tmp_path, attack,
                ("--attack", attack, "--k", "2", "--pga-iters", "20"),
            )
            assert report["attack"] == attack

    def test_constraints_and_segments_flags(self, eval_path, model_path, tmp_path):
        _, report = run_attack(
            eval_path, model_path, tmp_path, "pjc",
            ("--constraints", "repeat,first,last,length,loweng", "--segments", "3", "--k", "4"),
        )
        assert report["counts"]["total"] == 20

    def test_bad_label_exits_1(self, model_path, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"text": "a good movie", "label": 1e400}\n')
        assert main(["run", "--dataset", str(data), "--oracle", f"builtin:{model_path}"]) == 1
        assert "bad.jsonl:1" in capsys.readouterr().err

    def test_negative_budget_exits_1(self, eval_path, model_path, capsys):
        code = main(["run", "--dataset", str(eval_path), "--oracle", f"builtin:{model_path}", "--budget", "-5"])
        assert code == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_cap_exits_1(self, eval_path, model_path, capsys, cap):
        code = main(["run", "--dataset", str(eval_path), "--oracle", f"builtin:{model_path}", "--cap", cap])
        assert code == 1
        assert "cap must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--segments", "0"], ["--n", "0"], ["--k", "-1"], ["--attack", "pga", "--pga-iters", "0"], ["--constraints", "bogus"]],
        ids=["segments", "n", "k", "pga-iters", "constraints"],
    )
    def test_values_argparse_accepts_but_the_run_rejects_exit_1(self, eval_path, model_path, capsys, flags):
        code = main(["run", "--dataset", str(eval_path), "--oracle", f"builtin:{model_path}", *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_lone_surrogate_exits_1_and_names_the_line(self, model_path, tmp_path, capsys):
        data = tmp_path / "bad.jsonl"
        data.write_text('{"text": "a good movie", "label": 1}\n{"text": "the movie \\ud800 was good", "label": 1}\n')
        out = tmp_path / "t.jsonl"
        code = main(["run", "--dataset", str(data), "--oracle", f"builtin:{model_path}", "--out", str(out)])
        assert code == 1
        assert "bad.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["header", "weights", "trailing", "no-features"])
    def test_damaged_model_file_exits_1_and_names_it(self, eval_path, model_path, tmp_path, capsys, damage):
        path = tmp_path / "damaged.bin"
        path.write_bytes(damaged(model_path.read_bytes(), damage))
        assert main(["run", "--dataset", str(eval_path), "--oracle", f"builtin:{path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    def test_bad_oracle_spec_exits_1(self, eval_path):
        assert main(["run", "--dataset", str(eval_path), "--oracle", "ftp://x"]) == 1

    def test_unreachable_remote_exits_1(self, eval_path):
        code = main(
            ["run", "--dataset", str(eval_path), "--oracle", "http://127.0.0.1:9"]
        )
        assert code == 1


class TestVerifyAndUsage:
    @pytest.mark.parametrize("suite", ["sentence-space", "projection", "equivalence"])
    def test_verify_suites_pass(self, suite, capsys, caplog):
        assert main(["verify", "--suite", suite]) == 0
        assert "pass" in capsys.readouterr().out.lower()
        # the equivalence suite's expected record errors stay in its lines, not in the log
        assert [r.getMessage() for r in caplog.records if r.name == "charmer"] == []

    def test_equivalence_names_a_misindexed_gram(self, monkeypatch, capsys):
        # scoring by edits and by sentences share the wrong index, so only the audit sees it
        right, e = classifier._gram_indices, ord("e") + 1  # the packed key of "e"
        monkeypatch.setattr(classifier, "_gram_indices", lambda keys, dim: (right(keys, dim) + (keys == e)) % dim)
        monkeypatch.setattr(classifier, "_KEY_TABLES", {})
        classifier._hashed_counts.cache_clear()  # a base row counted at the right index
        try:
            assert main(["verify", "--suite", "equivalence"]) == 1
        finally:
            classifier._hashed_counts.cache_clear()  # and none counted at the wrong one for later tests
        out = capsys.readouterr().out
        assert "FAIL the n-gram 'e' has feature index" in out and "FAIL single-edit" not in out

    def test_equivalence_names_an_attack_that_lockstep_changes(self, monkeypatch, capsys):
        # a scorer that hands each request the rows of the next: one request alone is scored right
        right = classifier.BuiltinOracle._score_requests
        rotated = lambda self, requests: right(self, [*requests[1:], *requests[:1]])  # noqa: E731
        monkeypatch.setattr(classifier.BuiltinOracle, "_score_requests", rotated)
        assert main(["verify", "--suite", "equivalence"]) == 1
        out = capsys.readouterr().out
        assert "FAIL the charmer report of records in lockstep differs from that of one record at a time" in out
        assert "FAIL the record's rows of one call over every record's edits differ on record" in out
        assert "FAIL single-edit" not in out and "FAIL equivalence on record" not in out

    def test_equivalence_names_a_record_whose_candidates_a_shared_build_changes(self, monkeypatch, capsys):
        # a builder that hands the second record's edits to the first: one record alone is built right
        right = verify.candidate_edits

        def handed_over(builds, alphabet):
            rows = right(builds, alphabet)
            rows[rows[:, 0] == 1, 0] = 0
            return rows

        monkeypatch.setattr(verify, "candidate_edits", handed_over)
        assert main(["verify", "--suite", "equivalence"]) == 1
        out = capsys.readouterr().out
        first = make_keyword_corpus(100, seed=1)[0].id
        assert f"FAIL the candidates built for every record in one call differ on record {first}\n" in out
        assert "FAIL single-edit" not in out and "FAIL equivalence on record" not in out

    def test_equivalence_names_a_walk_of_two_edits_scored_wrongly(self, monkeypatch, capsys):
        # only walks of more than one edit are deduped; map every walk's edits to the first distinct one
        right = classifier._distinct

        def first_only(columns, bits):
            one, same = right(columns, bits)
            return one, np.zeros_like(same)

        monkeypatch.setattr(classifier, "_distinct", first_only)
        assert main(["verify", "--suite", "equivalence"]) == 1
        out = capsys.readouterr().out
        assert "FAIL two-edit walk scores differ from the walked sentences' on record" in out
        assert "FAIL single-edit" not in out and "FAIL equivalence on record" not in out

    def test_equivalence_names_a_record_whose_one_record_attack_differs_from_its_line(self, monkeypatch, capsys):
        # a one-record run that counts one query too many: the suites and the full-width check still agree
        right = attack_module._alone

        def one_more(*args):
            outcome = right(*args)
            outcome.queries += 1
            return outcome

        monkeypatch.setattr(attack_module, "_alone", one_more)
        assert main(["verify", "--suite", "equivalence"]) == 1
        out = capsys.readouterr().out
        first = make_keyword_corpus(100, seed=1)[0].id
        assert f"FAIL charmer_attack differs from the charmer suite on record {first}: queries\n" in out
        assert "FAIL random_position_baseline differs from the random suite on record" in out
        assert "FAIL exhaustive_k1 differs from the exhaustive-k1 suite on record" in out
        assert "FAIL equivalence on record" not in out and "lockstep differs" not in out

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--oracle", "builtin:x"])  # missing --dataset
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_verify_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
