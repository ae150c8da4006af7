import csv
import dataclasses
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmer import harness
from charmer.attack import AttackConfig, PjcConstraints
from charmer.classifier import BuiltinOracle
from charmer.harness import (
    ATTACK_NAMES,
    DatasetError,
    DatasetRecord,
    config_fingerprint,
    extract_alphabet,
    join_premise,
    load_dataset,
    report_body,
    report_from_transcripts,
    run_attack_suite,
    similarity,
)
from charmer.oracle import Oracle, OracleError, cw_loss
from charmer.pga import GradientUnavailableError, PgaConfig
from charmer.sentence import XI, single_edit
from charmer.verify import reference_levenshtein


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


class TestLoadJsonl:
    def test_basic(self, tmp_path):
        p = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"id": "r1", "text": "hello", "label": 1},
                {"text": "world", "label": "0", "paired_text": "premise"},
            ],
        )
        records = load_dataset(p, "jsonl")
        assert records[0] == DatasetRecord(id="r1", text="hello", label=1)
        assert records[1].id == "1"
        assert records[1].label == 0
        assert records[1].paired_text == "premise"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\n\n{"text": "b", "label": 1}\n')
        assert len(load_dataset(p, "jsonl")) == 2

    def test_cap(self, tmp_path):
        p = write_jsonl(
            tmp_path / "d.jsonl",
            [{"text": f"t{i}", "label": 0} for i in range(10)],
        )
        assert len(load_dataset(p, "jsonl", cap=4)) == 4

    def test_truncation(self, tmp_path, caplog):
        p = write_jsonl(tmp_path / "d.jsonl", [{"text": "x" * 50, "label": 0}])
        with caplog.at_level("WARNING", logger="charmer"):
            records = load_dataset(p, "jsonl", l_max=10)
        assert records[0].text == "x" * 10
        assert "truncated" in caplog.text

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ({"label": 0}, "text"),
            ({"text": "a"}, "label"),
            ({"text": "a", "label": "x"}, "not an integer"),
            ({"text": "a", "label": -1}, "nonnegative"),
            ({"text": "a" + XI, "label": 0}, "reserved"),
            ({"id": "0", "text": "a", "label": 0}, "duplicate"),
            ({"text": "a", "label": 1.7}, "not an integer"),
            ({"text": "a", "label": 1.0}, "not an integer"),
            ({"text": "a", "label": True}, "not an integer"),
            ({"text": "a", "label": False}, "not an integer"),
            ({"text": {"x": 1}, "label": 0}, "text must be a string, not dict"),
            ({"text": True, "label": 0}, "text must be a string, not bool"),
            ({"text": 5, "label": 0}, "text must be a string, not int"),
            ({"text": "a", "paired_text": False, "label": 0}, "paired_text must be a string, not bool"),
            # json.dumps writes a lone surrogate as its \ud800 escape
            ({"text": "the movie \ud800 was good", "label": 0}, "text contains the lone surrogate U+D800"),
            ({"text": "a", "paired_text": "p \udfff", "label": 0}, "paired_text contains the lone surrogate U+DFFF"),
            ({"id": "x\ud800", "text": "a", "label": 0}, "id contains the lone surrogate U+D800"),
        ],
    )
    def test_bad_rows_name_the_line(self, tmp_path, row, fragment):
        p = write_jsonl(
            tmp_path / "d.jsonl", [{"text": "ok", "label": 0}, row]
        )
        with pytest.raises(DatasetError) as exc:
            load_dataset(p, "jsonl")
        assert ":2:" in str(exc.value)
        assert fragment in str(exc.value)

    def test_surrogate_pairs_are_one_character(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"id": "\\ud83d\\ude00", "text": "a \\ud83d\\ude00", "label": 0}\n', encoding="utf-8")
        (record,) = load_dataset(p, "jsonl")
        assert record.id == "😀" and record.text == "a 😀"

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_rejected(self, tmp_path, cap):
        p = write_jsonl(tmp_path / "d.jsonl", [{"text": "a", "label": 0}])
        with pytest.raises(DatasetError, match="cap must be at least 1"):
            load_dataset(p, "jsonl", cap=cap)
        with pytest.raises(DatasetError, match="cap must be at least 1"):
            load_dataset(p, "csv", cap=cap)

    def test_label_overflowing_float_is_a_dataset_error(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\n{"text": "b", "label": 1e400}\n')
        with pytest.raises(DatasetError) as exc:
            load_dataset(p, "jsonl")
        assert ":2:" in str(exc.value)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "a", "label": 0}\nnot json\n')
        with pytest.raises(DatasetError) as exc:
            load_dataset(p, "jsonl")
        assert ":2:" in str(exc.value)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "d.xml", "xml")


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,text,label\nr1,hello,1\n,world,0\n")
        records = load_dataset(p, "csv")
        assert records[0] == DatasetRecord(id="r1", text="hello", label=1)
        assert records[1].id == "1"

    def test_quoted_line_breaks_are_kept(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b'text,label\r\n"a\r\nb",1\r\n"c\rd",0\r\n')
        assert [r.text for r in load_dataset(p, "csv")] == ["a\r\nb", "c\rd"]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text\nhello\n")
        with pytest.raises(DatasetError) as exc:
            load_dataset(p, "csv")
        assert "label" in str(exc.value)

    def test_labels_are_digit_strings(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label\na,+1\nb,007\nc,0\n")
        assert [r.label for r in load_dataset(p, "csv")] == [1, 7, 0]

    @pytest.mark.parametrize("label", [" 1", "1 ", "١"])
    def test_non_integer_labels_name_the_line(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"text,label\nhello,1\nworld,{label}\n", encoding="utf-8")
        with pytest.raises(DatasetError) as exc:
            load_dataset(p, "csv")
        assert ":3:" in str(exc.value)

    def test_row_errors_use_file_line_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,label\nhello,1\nworld,zebra\n")
        with pytest.raises(DatasetError) as exc:
            load_dataset(p, "csv")
        assert ":3:" in str(exc.value)


class TestAlphabetAndSimilarity:
    def test_extract_alphabet(self):
        records = [
            DatasetRecord("0", "ba", 0),
            DatasetRecord("1", "ac", 1, paired_text="zz"),
        ]
        alphabet = extract_alphabet(records)
        # paired text is context, not attack surface
        assert alphabet.chars == ("a", "b", "c")

    def test_extract_empty(self):
        with pytest.raises(DatasetError):
            extract_alphabet([])

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("Hello", "Helo", 0.8),
            ("abc", "abc", 1.0),
            ("", "", 1.0),
            ("", "ab", 0.0),
        ],
    )
    def test_similarity(self, a, b, expected):
        assert similarity(a, b) == pytest.approx(expected)


class FailingOracle(Oracle):
    """Raises on any sentence containing the trigger substring."""

    num_classes = 2
    batch_limit = 512

    def __init__(self, inner, trigger):
        self.inner = inner
        self.trigger = trigger

    def _score_chunk(self, sentences):
        from charmer.oracle import OracleError

        if any(self.trigger in s for s in sentences):
            raise OracleError("simulated backend failure")
        return self.inner.score_batch(sentences)


class RefusesEditsOf(BuiltinOracle):
    """Scores ``victim`` alone but refuses every call that holds its edits, so
    its attack fails after the clean score, before any attack query is
    scored. Refuses any batch that holds ``refused``, and counts every row it
    does score."""

    def __init__(self, classifier, victim, refused):
        super().__init__(classifier)
        self.victim, self.refused = victim, refused
        self.rows = 0

    def score_batch(self, sentences):
        sentences = list(sentences)
        if self.refused in sentences:
            raise OracleError("simulated failure at the clean score")
        if len(sentences) > 1 and self.victim in sentences:
            raise OracleError("simulated failure mid-attack")
        scores = super().score_batch(sentences)
        self.rows += len(scores)
        return scores

    def _score_requests(self, requests):
        if any(base == self.victim for base, _, _ in requests):
            raise OracleError("simulated failure mid-attack")
        scores = super()._score_requests(requests)
        self.rows += len(scores)
        return scores


@pytest.fixture(scope="module")
def fold_records(desk_oracle, attackable_records):
    """One record of each kind: attacked, skipped, failing at the clean score, failing mid-attack, paired."""
    premise = "irrelevant premise"
    paired = next(
        r
        for r in attackable_records[3:]
        if cw_loss(desk_oracle.score_batch(join_premise(premise, [r.text]))[0], r.label) < 0
    )
    ok, victim, flipped = attackable_records[:3]
    return [
        ok,
        DatasetRecord("skipped", flipped.text, 1 - flipped.label),
        DatasetRecord("clean-fails", "refused at the clean score", 1),
        victim,
        DatasetRecord("paired", paired.text, paired.label, paired_text=premise),
    ]


class TestReportFromTranscripts:
    @pytest.fixture(scope="class")
    def records(self, fold_records):
        return fold_records

    @pytest.mark.parametrize("attack", ATTACK_NAMES)
    def test_the_fold_of_the_read_back_transcript_is_the_report(
        self, tmp_path, attack, records, desk_classifier, desk_alphabet
    ):
        oracle = RefusesEditsOf(desk_classifier, victim=records[3].text, refused=records[2].text)
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2, seed=3)
        transcript = tmp_path / "t.jsonl"
        report = run_attack_suite(records, oracle, attack, config, transcript_path=transcript)
        with open(transcript, encoding="utf-8") as fh:
            folded = report_from_transcripts(
                (json.loads(line) for line in fh), attack, report["config_fingerprint"], report["alphabet_fingerprint"]
            )
        assert report_body(folded) == report_body(report)
        assert folded["timing"] == report["timing"]

        lines = [json.loads(line) for line in transcript.read_text(encoding="utf-8").split("\n")[:-1]]
        assert [row["id"] for row in report["per_sample"]] == [r.id for r in records]
        assert lines[1]["skipped"] and lines[1]["error"] is None
        assert lines[2]["error"] and "clean_loss" not in lines[2]
        failed_mid_attack = [line for line in lines if line["error"] and "clean_loss" in line]
        # pga attacks on the classifier, so only its paired_text record fails there
        assert [line["id"] for line in failed_mid_attack] == ["paired" if attack == "pga" else records[3].id]
        # every clean score is a query, also where the attack then failed
        assert report["queries_total"] == sum(line["queries"] for line in lines) + len(records) - 1
        if attack != "pga":  # pga scores its candidates on the classifier, not the oracle
            assert report["queries_total"] == oracle.rows
        attacked = [line["elapsed"] for line in lines if line["error"] is None and not line["skipped"]]
        assert attacked and report["timing"]["mean_time"] == statistics.fmean(attacked)
        assert report["timing"]["total_time"] == math.fsum(attacked)

    @pytest.mark.parametrize("attack", ATTACK_NAMES)
    def test_the_fold_of_no_lines_is_the_report_of_no_records(self, attack, desk_oracle, desk_alphabet):
        report = run_attack_suite([], desk_oracle, attack, AttackConfig(alphabet=desk_alphabet))
        folded = report_from_transcripts([], attack, report["config_fingerprint"], report["alphabet_fingerprint"])
        assert report_body(folded) == report_body(report)
        assert folded["timing"] == report["timing"] == {"mean_time": None, "std_time": None, "total_time": 0.0}


class CountsRows(BuiltinOracle):
    """Counts the calls and the rows it scores, sentences and edits; one call of each kind serves a whole step."""

    def __init__(self, classifier):
        super().__init__(classifier)
        self.calls = self.rows = 0

    def _counted(self, scores):
        self.calls += 1
        self.rows += len(scores)
        return scores

    def score_batch(self, sentences):
        return self._counted(super().score_batch(sentences))

    def _score_requests(self, requests):
        return self._counted(super()._score_requests(requests))


LOCKSTEP_CONFIGS = {
    "plain": dict(n=5, k=2, seed=3),
    "pjc": dict(n=5, k=3, constraints=PjcConstraints.all_enabled()),
    "segments-budget": dict(n=5, k=3, segment_preselect=1, budget=120),
    "budget": dict(n=5, k=4, budget=90),
}


class TestLockstep:
    @pytest.fixture(scope="class")
    def records(self, fold_records, attackable_records):
        return fold_records + attackable_records[5:12]  # more records to share each call

    @pytest.mark.parametrize("scorer", ["counts-rows", "refuses-edits"])
    @pytest.mark.parametrize("setting", sorted(LOCKSTEP_CONFIGS))
    @pytest.mark.parametrize("attack", ATTACK_NAMES)
    def test_lockstep_equals_one_record_at_a_time(
        self, tmp_path, monkeypatch, attack, setting, scorer, records, desk_classifier, desk_alphabet
    ):
        config = AttackConfig(alphabet=desk_alphabet, **LOCKSTEP_CONFIGS[setting])
        runs, calls = [], []
        for chunk in (harness._LOCKSTEP_RECORDS, 1):
            monkeypatch.setattr(harness, "_LOCKSTEP_RECORDS", chunk)
            if scorer == "counts-rows":
                oracle = CountsRows(desk_classifier)
            else:
                oracle = RefusesEditsOf(desk_classifier, victim=records[3].text, refused=records[2].text)
            transcript = tmp_path / f"{chunk}.jsonl"
            report = run_attack_suite(records, oracle, attack, config, transcript_path=transcript)
            lines = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
            for line in lines:
                line.pop("elapsed")
            if attack != "pga":  # pga scores its candidates on the classifier, not the oracle
                # the rows of an attack that raises after some of them were scored are not counted
                assert report["queries_total"] <= oracle.rows
                if scorer == "counts-rows":  # no attack raises
                    assert report["queries_total"] == oracle.rows
            runs.append((report_body(report), lines, oracle.rows))
            calls.append(getattr(oracle, "calls", None))
        assert runs[0] == runs[1]
        if scorer == "counts-rows":
            assert calls[0] < calls[1]

    @pytest.mark.parametrize("attack", ["charmer", "random", "exhaustive-k1"])
    def test_records_with_a_premise_share_the_calls_of_a_step(
        self, attack, desk_classifier, desk_alphabet, attackable_records
    ):
        # with k=1 every attacked record makes the same requests: a clean score, (probes,) candidates
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=1)
        plain = attackable_records[:12]
        paired = [
            dataclasses.replace(r, paired_text="the critics said that") if i % 2 else r for i, r in enumerate(plain)
        ]
        calls = []
        for records in (plain, paired):
            oracle = CountsRows(desk_classifier)
            report = run_attack_suite(records, oracle, attack, config)
            assert report["counts"]["attackable"] > 0 and report["queries_total"] == oracle.rows
            calls.append(oracle.calls)
        assert calls[0] == calls[1] == (3 if attack == "charmer" else 2)

    def test_a_lone_surrogate_is_written_escaped(self, tmp_path, desk_oracle, desk_alphabet):
        records = [DatasetRecord("ok", "good movie", 1), DatasetRecord("bad", "a\ud800b", 1)]
        config = AttackConfig(alphabet=desk_alphabet, n=3, k=2)
        transcript = tmp_path / "t.jsonl"
        report = run_attack_suite(records, desk_oracle, "charmer", config, transcript_path=transcript)
        first, second = transcript.read_text(encoding="utf-8").splitlines()
        lines = [json.loads(first), json.loads(second)]
        assert first == json.dumps(lines[0], sort_keys=True, ensure_ascii=False)  # as every other line
        assert second == json.dumps(lines[1], sort_keys=True) and "\\ud800" in second
        assert lines[1]["original"] == "a\ud800b"
        assert lines[1]["error"] == "OracleError: cannot score the lone surrogate U+D800"
        folded = report_from_transcripts(lines, "charmer", report["config_fingerprint"], report["alphabet_fingerprint"])
        assert report_body(folded) == report_body(report)

    @pytest.mark.parametrize("attack", ATTACK_NAMES)
    def test_attacked_lines_take_time_within_the_suite(
        self, tmp_path, attack, desk_oracle, desk_alphabet, attackable_records
    ):
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=3)
        transcript = tmp_path / "t.jsonl"
        start = time.perf_counter()
        run_attack_suite(attackable_records[:20], desk_oracle, attack, config, transcript_path=transcript)
        wall = time.perf_counter() - start
        lines = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
        attacked = [line["elapsed"] for line in lines if line["error"] is None and not line["skipped"]]
        assert attacked and min(attacked) > 0
        assert math.fsum(attacked) <= wall


class TestSuite:
    @pytest.fixture
    def suite_records(self, attackable_records):
        return attackable_records[:10]

    def test_charmer_report_and_transcript(
        self, tmp_path, suite_records, desk_oracle, desk_alphabet
    ):
        config = AttackConfig(alphabet=desk_alphabet, n=10, k=6)
        transcript = tmp_path / "t.jsonl"
        report = run_attack_suite(
            suite_records, desk_oracle, "charmer", config, transcript_path=transcript
        )
        counts = report["counts"]
        assert counts["total"] == len(suite_records)
        assert counts["skipped"] == 0  # fixture pre-filters to correct samples
        assert counts["attackable"] == counts["total"]
        assert report["asr_percent"] == pytest.approx(
            100.0 * counts["successes"] / counts["attackable"]
        )
        lines = [json.loads(l) for l in transcript.read_text().splitlines()]
        assert len(lines) == len(suite_records)
        for line, record in zip(lines, suite_records):
            assert line["schema"] == 1
            assert line["id"] == record.id
            assert line["config_fingerprint"] == report["config_fingerprint"]
            # the trace replays exactly to the reported adversarial sentence
            cur = line["original"]
            for pos, char, _loss in line["trace"]:
                if pos is not None:
                    cur = single_edit(cur, pos, char)
            assert cur == line["adversarial"]

    def test_a_transcript_that_holds_lines_is_refused_before_any_record(self, tmp_path, suite_records, desk_alphabet):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text('{"id": 0}\n')
        untouchable = FailingOracle(None, trigger="")  # any scored sentence fails the test
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2)
        with pytest.raises(FileExistsError, match=re.escape(str(transcript))):
            run_attack_suite(suite_records, untouchable, "charmer", config, transcript_path=transcript)
        assert transcript.read_text() == '{"id": 0}\n'

    def test_seeded_rerun_is_byte_identical(self, suite_records, desk_oracle, desk_alphabet):
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=4, seed=3)
        a = run_attack_suite(suite_records, desk_oracle, "random", config)
        b = run_attack_suite(suite_records, desk_oracle, "random", config)
        assert report_body(a) == report_body(b)
        assert a["timing"].keys() == {"mean_time", "std_time", "total_time"}
        assert b"timing" not in report_body(a)

    def test_all_attacks_run(self, tmp_path, suite_records, desk_oracle, desk_alphabet):
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2)
        for attack in ("charmer", "charmer-fast", "random", "exhaustive-k1", "pga"):
            transcript = tmp_path / f"{attack}.jsonl"
            report = run_attack_suite(
                suite_records[:2], desk_oracle, attack, config, transcript_path=transcript
            )
            assert report["attack"] == attack
            assert report["counts"]["total"] == 2
            lines = [json.loads(l) for l in transcript.read_text().splitlines()]
            for line, row in zip(lines, report["per_sample"], strict=True):
                a, b = line["original"], line["adversarial"]
                assert line["d_lev"] == row["d_lev"] == reference_levenshtein(a, b)
                assert row["edit_sim"] == 1 - line["d_lev"] / max(len(a), len(b))

    def test_charmer_fast_report_ignores_n(self, suite_records, desk_oracle, desk_alphabet):
        a, b = (
            run_attack_suite(
                suite_records[:3], desk_oracle, "charmer-fast",
                AttackConfig(alphabet=desk_alphabet, n=n, k=2),
            )
            for n in (1, 5)
        )
        assert report_body(a) == report_body(b)

    def test_exhaustive_k1_dlev_at_most_one(self, suite_records, desk_oracle, desk_alphabet):
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2)
        report = run_attack_suite(suite_records[:4], desk_oracle, "exhaustive-k1", config)
        for row in report["per_sample"]:
            assert row["d_lev"] <= 1

    def test_unknown_attack(self, desk_oracle, desk_alphabet):
        config = AttackConfig(alphabet=desk_alphabet)
        with pytest.raises(ValueError):
            run_attack_suite([], desk_oracle, "ddos", config)

    def test_pga_rejects_non_builtin(self, suite_records, desk_alphabet):
        class Fake(Oracle):
            num_classes = 2
            batch_limit = 8

            def _score_chunk(self, sentences):
                return [[0.0, 0.0] for _ in sentences]

        config = AttackConfig(alphabet=desk_alphabet)
        with pytest.raises(GradientUnavailableError):
            run_attack_suite(suite_records[:1], Fake(), "pga", config)

    def test_pga_reports_paired_text_as_error(self, desk_oracle, desk_alphabet, attackable_records):
        premise = "irrelevant premise"
        paired = [
            DatasetRecord(r.id, r.text, r.label, paired_text=premise)
            for r in attackable_records
            if cw_loss(desk_oracle.score_batch(join_premise(premise, [r.text]))[0], r.label) < 0
        ][:2]
        assert paired
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2)
        report = run_attack_suite(paired, desk_oracle, "pga", config)
        assert report["counts"]["errors"] == len(paired)
        for row in report["per_sample"]:
            assert row["error"].startswith("GradientUnavailableError")

    def test_all_skipped(self, desk_oracle, desk_alphabet, desk_corpus):
        # flip every label so the clean prediction is always "wrong"
        flipped = [
            DatasetRecord(r.id, r.text, 1 - r.label) for r in desk_corpus[:5]
        ]
        config = AttackConfig(alphabet=desk_alphabet)
        report = run_attack_suite(flipped, desk_oracle, "charmer", config)
        assert report["counts"]["skipped"] == 5
        assert report["asr_percent"] is None
        assert report["note"] == "no attackable samples"

    def test_per_record_errors_do_not_abort(self, suite_records, desk_oracle, desk_alphabet):
        failing = FailingOracle(desk_oracle, trigger=suite_records[0].text)
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2)
        report = run_attack_suite(suite_records[:3], failing, "charmer", config)
        assert report["counts"]["errors"] == 1
        assert report["counts"]["attackable"] == 2
        assert report["per_sample"][0]["error"] is not None
        assert report["per_sample"][1]["error"] is None

    @pytest.mark.parametrize(
        "rows",
        [
            lambda n: [[0.0, 1.0]],  # one row for the whole chunk
            lambda n: [[0.0, 1.0]] + [[0.0, 1.0, 2.0]] * (n - 1),  # ragged
        ],
        ids=["short", "ragged"],
    )
    def test_malformed_plugin_rows_are_record_errors(self, rows, desk_alphabet):
        class Plugin(Oracle):
            num_classes = 2

            def _score_chunk(self, sentences):
                return rows(len(sentences))

        records = [DatasetRecord("a", "the movie was good", 1), DatasetRecord("b", "it felt bad", 1)]
        config = AttackConfig(alphabet=desk_alphabet, n=3, k=2)
        report = run_attack_suite(records, Plugin(), "charmer", config)
        assert report["counts"]["errors"] == 2
        for row in report["per_sample"]:
            assert row["error"].startswith("OracleError: ")

    def test_a_loss_pass_that_raises_fails_only_its_own_records(
        self, monkeypatch, desk_classifier, desk_alphabet, attackable_records
    ):
        # a label out of range fails at the clean score's loss pass, non-finite rows at a step's; neither
        # call is made again, and each error lands on its record as one record at a time
        class NanEditsOf(CountsRows):
            def _score_requests(self, requests):
                rows = super()._score_requests(requests).copy()
                at = 0
                for base, positions, _ in requests:
                    if base == victim.text:
                        rows[at : at + len(positions)] = np.nan
                    at += len(positions)
                return rows

        records = list(attackable_records[:6])
        victim = records[1]
        records[3] = DatasetRecord("no-such-class", records[3].text, 5)
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=2)
        bodies = []
        for chunk in (harness._LOCKSTEP_RECORDS, 1):
            monkeypatch.setattr(harness, "_LOCKSTEP_RECORDS", chunk)
            oracle = NanEditsOf(desk_classifier)
            report = run_attack_suite(records, oracle, "charmer", config)
            errors = {row["id"]: row["error"] for row in report["per_sample"] if row["error"]}
            assert errors == {
                victim.id: "OracleError: scores must be finite",
                "no-such-class": "OracleError: label 5 out of range for 2 classes",
            }
            # uncounted: the clean row of the label out of range, and the victim's probes
            assert oracle.rows == report["queries_total"] + 1 + 2 * len(victim.text) + 1
            bodies.append(report_body(report))
        assert bodies[0] == bodies[1]

    def test_a_clean_score_without_rows_is_a_record_error(self, desk_alphabet):
        class NoRows(Oracle):  # overrides score_batch, so no chunk check applies
            num_classes = 2

            def score_batch(self, sentences):
                return np.empty((0, 2))

        records = [DatasetRecord("a", "the movie was good", 1), DatasetRecord("b", "it felt bad", 0)]
        report = run_attack_suite(records, NoRows(), "charmer", AttackConfig(alphabet=desk_alphabet, n=3, k=2))
        assert report["counts"]["errors"] == 2
        for row in report["per_sample"]:
            assert row["error"] == "OracleError: expected 1 score rows of 2 classes, got shape (0, 2)"

    def test_lone_surrogate_is_a_record_error(self, desk_oracle, desk_alphabet):
        records = [DatasetRecord("ok", "good movie", 1), DatasetRecord("bad", "a\ud800b", 1)]
        config = AttackConfig(alphabet=desk_alphabet, n=3, k=2)
        report = run_attack_suite(records, desk_oracle, "charmer", config)
        assert report["counts"]["errors"] == 1
        assert report["per_sample"][0]["error"] is None
        assert report["per_sample"][1]["error"] == "OracleError: cannot score the lone surrogate U+D800"

    def test_paired_text_routes_through_premise(self, desk_classifier, desk_alphabet, attackable_records):
        class Seen(BuiltinOracle):
            def score_batch(self, sentences):
                seen.extend(sentences)
                return super().score_batch(sentences)

            def _score_requests(self, requests):
                seen.extend(base for base, _, _ in requests)
                return super()._score_requests(requests)

        seen = []
        base = attackable_records[0]
        paired = DatasetRecord(base.id, base.text, base.label, paired_text="irrelevant premise")
        config = AttackConfig(alphabet=desk_alphabet, n=5, k=3)
        report = run_attack_suite([paired], Seen(desk_classifier), "charmer", config)
        assert seen[0] == "irrelevant premise\n" + base.text
        assert all(s.startswith("irrelevant premise\n") for s in seen)
        # the premise shifts scores, so the record may be skipped, but the
        # suite must still produce a structurally complete report
        counts = report["counts"]
        assert counts["total"] == 1
        assert counts["skipped"] + counts["attackable"] == 1

    def test_fingerprint_distinguishes_configs(self, suite_records, desk_oracle, desk_alphabet):
        a = run_attack_suite(
            suite_records[:1], desk_oracle, "charmer",
            AttackConfig(alphabet=desk_alphabet, n=5, k=2),
        )
        b = run_attack_suite(
            suite_records[:1], desk_oracle, "charmer",
            AttackConfig(alphabet=desk_alphabet, n=6, k=2),
        )
        assert a["config_fingerprint"] != b["config_fingerprint"]
        # every PgaConfig field shapes the pga output, so each one is fingerprinted
        config = AttackConfig(alphabet=desk_alphabet)
        base = PgaConfig()
        for f in dataclasses.fields(PgaConfig):
            changed = dataclasses.replace(base, **{f.name: getattr(base, f.name) + 1})
            assert config_fingerprint("pga", config, changed) != config_fingerprint(
                "pga", config, base
            ), f.name


# field values of every JSON type, with the texts a loader must not trip on
_odd_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["﻿", "a\r\nb", "a\rb", "\x00", "\ud800", "a\udfffb", "😀", " ", ""]),
)
_value = st.one_of(
    _odd_text,
    st.integers(-3, 3),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["text", "a"]), st.integers(0, 2), max_size=2),
)
_column = st.sampled_from(["id", "text", "label", "paired_text", "extra", "Text", ""])


def _encode(text: str, bom: bool, crlf: bool, nul_at) -> bytes:
    """UTF-8 bytes of ``text``; a lone surrogate becomes its (invalid) three bytes."""
    if crlf:
        text = text.replace("\n", "\r\n")
    raw = text.encode("utf-8", "surrogatepass")
    if nul_at is not None:
        at = nul_at % (len(raw) + 1)
        raw = raw[:at] + b"\x00" + raw[at:]
    return (b"\xef\xbb\xbf" if bom else b"") + raw


@st.composite
def fuzzed_dataset(draw):
    """``(format, bytes)`` of a JSONL or CSV file with odd encodings and columns."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    rows = draw(st.lists(st.lists(st.tuples(_column, _value), max_size=6), min_size=1, max_size=4))
    if fmt == "jsonl":
        ascii_only = draw(st.booleans())
        lines = []
        for pairs in rows:  # written by hand so that a key may repeat
            body = ", ".join(f"{json.dumps(k)}: {json.dumps(v, ensure_ascii=ascii_only)}" for k, v in pairs)
            lines.append(draw(st.sampled_from(["{" + body + "}", "[" + body + "]", body, ""])))
        text = "\n".join(lines) + "\n"
    else:
        header = draw(st.lists(_column, max_size=5))  # columns may repeat or be missing
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for pairs in rows:
            writer.writerow(["" if v is None else v for _, v in pairs])
        text = out.getvalue()
    raw = _encode(text, draw(st.booleans()), draw(st.booleans()), draw(st.none() | st.integers(0, 200)))
    return fmt, raw


class TestLoaderFuzz:
    @settings(max_examples=400, deadline=None)
    @given(fuzzed_dataset())
    def test_records_or_dataset_error(self, tmp_path_factory, dataset):
        fmt, raw = dataset
        path = tmp_path_factory.mktemp("fuzz") / f"d.{fmt}"
        path.write_bytes(raw)
        try:
            records = load_dataset(path, fmt)
        except DatasetError:
            return
        for r in records:
            assert isinstance(r.text, str) and r.text and "\x00" not in r.text
            assert type(r.label) is int and r.label >= 0

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"text": "a", "label": 1' + "0" * 5000 + "}"], ids=["deep", "digits"])
    def test_pathological_json_is_a_dataset_error(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(DatasetError, match="d.jsonl:1: malformed JSON"):
            load_dataset(path)

    @settings(max_examples=5, deadline=None)
    @given(fuzzed_dataset())
    def test_attack_run_exits_cleanly(self, tmp_path_factory, fuzz_model, dataset):
        fmt, raw = dataset
        path = tmp_path_factory.mktemp("fuzz") / f"d.{fmt}"
        path.write_bytes(raw)
        proc = subprocess.run(
            [sys.executable, "-m", "charmer.cli", "run", "--dataset", str(path), "--format", fmt,
             "--oracle", f"builtin:{fuzz_model}", "--n", "2", "--k", "2"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory, desk_classifier):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    desk_classifier.save(path)
    return path
