"""Batch evaluation: dataset ingestion, metrics, transcripts and reports.

Records are attacked in chunks of ``_LOCKSTEP_RECORDS``, in lockstep: at
each step the requests of all live records of a chunk are answered together
(``_attack_chunk``, through ``attack.answer_requests``): the candidates of
every record that asks for them in one build, each kind of scoring request
in one oracle call, and the CW losses of each call's rows in one pass with a
label per row. A record with a ``paired_text`` premise (sentence-pair tasks,
where only the hypothesis is attacked) joins its premise to each of its
scoring requests (``join_premise``), so its requests share those calls too.
Transcripts are JSON Lines, one object per record, written in record order
as soon as a record and those before it are done, so a crash loses at most
one chunk of lines. A line's ``elapsed`` is the time of its attack's own
steps plus its row share of each build, call and loss pass that answered
its attack. The report is
``report_from_transcripts`` of those lines: each line's ``id``, ``skipped``,
``success``, ``d_lev``, ``queries``, ``final_loss`` and ``error`` make its
``per_sample`` row, with ``edit_sim`` from ``d_lev``, ``original`` and
``adversarial``; the counts, ASR and means come from those rows;
``queries_total`` sums ``queries`` plus 1 for each ``clean_loss`` (the clean
score); ``timing`` comes from ``elapsed``. Reports keep all timing statistics
under a single ``timing`` key so seeded reruns can be compared byte-for-byte
on the remainder (see ``report_body``).

Attack success rate (ASR) uses as denominator only the samples the clean
oracle classifies correctly; initially misclassified samples are skipped.
Edit-distance and similarity statistics average over successful attacks only.
The similarity column is normalized edit similarity, labeled ``edit_sim``
everywhere to avoid confusion with embedding-based similarity scores.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import re
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .attack import (
    STEPS,
    AttackConfig,
    AttackOutcome,
    BuildRequest,
    answer_requests,
    charmer_attack,
    exhaustive_k1,
    random_position_baseline,
)
from .classifier import BuiltinClassifier, BuiltinOracle
from .oracle import EditRequest, Oracle, OracleError, check_edits
from .pga import GradientUnavailableError, PgaConfig, pga_attack
from .sentence import XI, Alphabet, L_MAX, levenshtein, single_edit

log = logging.getLogger("charmer")

TRANSCRIPT_SCHEMA = 1
REPORT_SCHEMA = 1

# records attacked in lockstep: each step scores the requests of all of them together
_LOCKSTEP_RECORDS = 64


class DatasetError(ValueError):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")


@dataclass
class DatasetRecord:
    id: str
    text: str
    label: int
    paired_text: Optional[str] = None


def _reject_lone_surrogates(raw: str, field: str, where: str) -> None:
    """A lone surrogate is no Unicode scalar value: no UTF-8 output can encode it."""
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DatasetError(f"{where}: {field} contains the lone surrogate U+{ord(raw[exc.start]):04X}")


def _clean_text(raw, l_max: int, where: str, field: str = "text") -> tuple[str, bool]:
    if not isinstance(raw, str):
        raise DatasetError(f"{where}: {field} must be a string, not {type(raw).__name__}")
    if XI in raw:
        raise DatasetError(f"{where}: {field} contains the reserved character U+0000")
    _reject_lone_surrogates(raw, field, where)
    if len(raw) > l_max:
        return raw[:l_max], True
    return raw, False


def load_dataset(
    path,
    format: str = "jsonl",
    cap: Optional[int] = 1000,
    l_max: int = L_MAX,
) -> list[DatasetRecord]:
    """Read records in file order; ids default to the row index and must be
    unique.

    Texts longer than ``l_max`` are truncated (a warning totals them up) and
    at most ``cap`` records are retained; ``cap`` must be at least 1.
    """
    if format not in ("jsonl", "csv"):
        raise DatasetError(f"unknown dataset format: {format!r}")
    if cap is not None and cap < 1:
        raise DatasetError(f"cap must be at least 1 record, not {cap}")
    records: list[DatasetRecord] = []
    ids: set[str] = set()
    truncated = 0

    def add(row_no: int, obj: dict) -> None:
        nonlocal truncated
        where = f"{path}:{row_no}"
        if "text" not in obj or obj.get("text") in (None, ""):
            raise DatasetError(f"{where}: missing required field 'text'")
        if "label" not in obj or obj.get("label") in (None, ""):
            raise DatasetError(f"{where}: missing required field 'label'")
        raw = obj["label"]
        # a JSON integer (bool is an int subclass, 1.7 a float) or a string
        # of digits, as every CSV field is
        if type(raw) is int:
            label = raw
        elif isinstance(raw, str) and _INTEGER.fullmatch(raw):
            label = int(raw)
        else:
            raise DatasetError(f"{where}: label {raw!r} is not an integer")
        if label < 0:
            raise DatasetError(f"{where}: label must be a nonnegative class index")
        text, was_truncated = _clean_text(obj["text"], l_max, where)
        truncated += was_truncated
        paired = obj.get("paired_text")
        if paired is not None and paired != "":
            paired, pt = _clean_text(paired, l_max, where, "paired_text")
            truncated += pt
        else:
            paired = None
        rid = str(obj.get("id")) if obj.get("id") not in (None, "") else str(len(records))
        _reject_lone_surrogates(rid, "id", where)
        if rid in ids:
            raise DatasetError(f"{where}: duplicate id {rid!r}")
        ids.add(rid)
        records.append(DatasetRecord(id=rid, text=text, label=label, paired_text=paired))

    try:
        with open(path, encoding="utf-8", newline="") as fh:  # a quoted CSV field keeps its "\r\n"
            if format == "jsonl":
                for row_no, line in enumerate(fh, start=1):
                    if cap is not None and len(records) >= cap:
                        break
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
                        raise DatasetError(f"{path}:{row_no}: malformed JSON ({exc})") from None
                    if not isinstance(obj, dict):
                        raise DatasetError(f"{path}:{row_no}: expected a JSON object")
                    add(row_no, obj)
            else:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or "text" not in reader.fieldnames:
                    raise DatasetError(f"{path}: missing required column 'text'")
                if "label" not in reader.fieldnames:
                    raise DatasetError(f"{path}: missing required column 'label'")
                for row_no, row in enumerate(reader, start=2):
                    if cap is not None and len(records) >= cap:
                        break
                    add(row_no, row)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # raised only by the reader
        raise DatasetError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None
    if truncated:
        log.warning("%d text field(s) truncated to %d characters", truncated, l_max)
    return records


def extract_alphabet(records: Sequence[DatasetRecord], test_char: str = " ") -> Alphabet:
    """Every scalar value occurring in any attackable text, sorted for a
    stable fingerprint."""
    if not records:
        raise DatasetError("cannot extract an alphabet from an empty record set")
    return Alphabet.from_texts((r.text for r in records), test_char=test_char)


def _edit_sim(d_lev: int, a: str, b: str) -> float:
    return 1.0 - d_lev / max(len(a), len(b), 1)


def similarity(a: str, b: str) -> float:
    """Normalized edit similarity in [0, 1]; reported as ``edit_sim``."""
    return _edit_sim(levenshtein(a, b), a, b)


def config_fingerprint(attack: str, config: AttackConfig, pga_config: Optional[PgaConfig]) -> str:
    payload = {
        "attack": attack,
        "n": config.n,
        "k": config.k,
        "constraints": sorted(
            name for name in config.constraints.FLAG_NAMES if getattr(config.constraints, name)
        ),
        "segments": config.segment_preselect,
        "budget": config.budget,
        "seed": config.seed,
        "alphabet": config.alphabet.fingerprint(),
    }
    if pga_config is not None:
        payload["pga"] = dataclasses.asdict(pga_config)  # every field shapes the output
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _pga(oracle: Oracle, s: str, y: int, config: AttackConfig, *, classifier: BuiltinClassifier, pga_config: PgaConfig):
    return pga_attack(classifier, s, y, pga_config, config.alphabet)


# every attack is fn(oracle, s, y, config) -> AttackOutcome; pga's extra
# inputs are bound in run_attack_suite
ATTACKS = {
    "charmer": charmer_attack,
    "charmer-fast": charmer_attack,  # with n=1, set in run_attack_suite
    "random": random_position_baseline,
    "exhaustive-k1": exhaustive_k1,
    "pga": _pga,
}
ATTACK_NAMES = tuple(ATTACKS)


def run_attack_suite(
    records: Sequence[DatasetRecord],
    oracle: Oracle,
    attack: str,
    config: AttackConfig,
    pga_config: Optional[PgaConfig] = None,
    transcript_path=None,
) -> dict:
    """Attack every correctly-classified record and report on them.

    One transcript line per record is written as soon as it is produced, and
    the report is ``report_from_transcripts`` of those lines. A transcript
    that exists and is not empty raises ``FileExistsError`` before any
    record is attacked, and is left as it was. Oracle failures on individual
    samples are recorded and the suite continues.
    """
    if attack not in ATTACKS:
        raise ValueError(f"unknown attack {attack!r}; expected one of {ATTACK_NAMES}")
    run = ATTACKS[attack]
    if attack == "charmer-fast":
        config = dataclasses.replace(config, n=1)
    if attack == "pga":
        if not isinstance(oracle, BuiltinOracle):
            raise GradientUnavailableError("the pga attack needs a builtin oracle")
        if pga_config is None:
            pga_config = PgaConfig(k=min(config.k, 2), seed=config.seed)
        run = functools.partial(run, classifier=oracle.classifier, pga_config=pga_config)
    else:
        pga_config = None

    fingerprint = config_fingerprint(attack, config, pga_config)
    alpha_fp = config.alphabet.fingerprint()
    if transcript_path and os.path.exists(transcript_path) and os.path.getsize(transcript_path):
        raise FileExistsError(f"transcript {transcript_path} exists and is not empty; give a new or empty file")
    lines = _transcript_lines(records, oracle, run, config, fingerprint, alpha_fp, transcript_path)
    return report_from_transcripts(lines, attack, fingerprint, alpha_fp)


def _transcript_lines(records, oracle, run, config, fingerprint, alpha_fp, transcript_path):
    """Attack the records, ``_LOCKSTEP_RECORDS`` at a time; write, flush and yield each line in record order.

    A line that UTF-8 cannot encode, which only a lone surrogate makes, is
    written with ASCII escapes.
    """
    records = list(records)
    with open(transcript_path, "a", encoding="utf-8") if transcript_path else contextlib.nullcontext() as out_fh:
        for start in range(0, len(records), _LOCKSTEP_RECORDS):
            chunk = records[start : start + _LOCKSTEP_RECORDS]
            for entry in _attack_chunk(chunk, oracle, run, config, fingerprint, alpha_fp):
                if out_fh is not None:
                    try:
                        out_fh.write(json.dumps(entry, sort_keys=True, ensure_ascii=False) + "\n")
                    except UnicodeEncodeError:  # raised before anything is written
                        out_fh.write(json.dumps(entry, sort_keys=True) + "\n")
                    out_fh.flush()
                yield entry


def _whole(run, oracle, s, y, config):
    """An attack without steps (pga) as steps: it runs whole in its first step and makes no request."""
    return run(oracle, s, y, config)
    yield


def _attack_chunk(records, oracle, run, config, fingerprint, alpha_fp):
    """Attack ``records`` in lockstep; yield their transcript lines in record order as they finish.

    Each record first asks for its clean score. A record that the oracle
    classifies correctly then runs its attack's steps (``attack.STEPS``). At
    each step the live records' requests, each scoring request joined to its
    record's premise (``join_premise``), are answered together
    (``attack.answer_requests``): one candidate build for all builds, one
    oracle call per kind of scoring request and one loss pass per call.
    Each record then takes its next step with its own answer. An attack
    without steps (pga) scores on the classifier, where no premise goes, so
    a record with one fails with ``GradientUnavailableError`` there.
    A record leaves when its attack returns, when its request or step raises
    ``OracleError``, or when it is skipped. Its line's ``elapsed`` is the time
    of its attack's own steps plus, for each build, call and loss pass that
    answered its attack's requests, that one's time times its share of the
    rows.
    """
    lines = [
        {
            "schema": TRANSCRIPT_SCHEMA,
            "id": record.id,
            "original": record.text,
            "paired_text": record.paired_text,
            "config_fingerprint": fingerprint,
            "alphabet_fingerprint": alpha_fp,
            # skipped and errored records keep these unattacked values
            "error": None,
            "skipped": False,
            "adversarial": record.text,
            "success": False,
            "edits_used": 0,
            "d_lev": 0,
            "final_loss": None,
            "queries": 0,
            "elapsed": 0.0,
            "trace": [],
        }
        for record in records
    ]
    steps, spent = {}, [0.0] * len(records)  # the attacks under way, and their time so far
    # clean scores first
    pending = {i: (join_premise(record.paired_text, [record.text]), record.label) for i, record in enumerate(records)}
    written = 0
    while pending:
        answers, pending = answer_requests(oracle, config.alphabet, pending), {}
        for i in sorted(answers):
            record, line, (answer, seconds) = records[i], lines[i], answers[i]
            try:
                if isinstance(answer, OracleError):
                    raise answer
                if i in steps:
                    spent[i] += seconds
                else:  # the clean score
                    clean_loss = float(answer[0])
                    line["clean_loss"] = clean_loss
                    if clean_loss >= 0:
                        line.update(skipped=True, final_loss=clean_loss)
                        continue
                    if run in STEPS:
                        steps[i] = STEPS[run](record.text, config)
                    elif record.paired_text is None:
                        steps[i] = _whole(run, oracle, record.text, record.label, config)
                    else:  # it scores sentences on the classifier, where no premise goes
                        raise GradientUnavailableError("pga cannot score a paired_text premise")
                    answer = None  # the attack's first step
                start = time.perf_counter()
                try:
                    request = join_premise(record.paired_text, steps[i].send(answer))
                    pending[i] = (request, record.label)
                except StopIteration as stop:
                    elapsed, outcome = spent[i] + time.perf_counter() - start, stop.value
                    line.update(
                        adversarial=outcome.adversarial,
                        success=outcome.success,
                        edits_used=outcome.edits_used,
                        d_lev=levenshtein(record.text, outcome.adversarial),
                        final_loss=outcome.final_loss if outcome.final_loss is not None else line["clean_loss"],
                        queries=outcome.queries,
                        elapsed=elapsed,
                        trace=[[t.position, t.char, t.loss] for t in outcome.trace],
                    )
                else:
                    spent[i] += time.perf_counter() - start
            except OracleError as exc:
                line["error"] = f"{type(exc).__name__}: {exc}"
                log.warning("record %s failed: %s", record.id, exc)
        while written < len(records) and written not in pending:
            yield lines[written]
            written += 1


def join_premise(premise: Optional[str], request):
    """``request`` of a record with ``premise`` as the oracle scores it, after the premise and a newline.

    Sentences get that prefix, and so does an ``EditRequest``'s base, with
    every expanded position moved by two per character of the prefix. The
    edits are checked against the base first: those the request would refuse
    without a premise raise its ``SentenceError`` here, rather than edit the
    premise. Without a premise, or for a ``BuildRequest``, whose candidates
    are edits of the hypothesis alone, the request is unchanged.
    """
    if premise is None or isinstance(request, BuildRequest):
        return request
    prefix = premise + "\n"
    if isinstance(request, EditRequest):
        positions, codes = check_edits(request.positions, request.codes)
        outside = (positions < 1) | (positions > 2 * len(request.base) + 1)
        if outside.any():
            single_edit(request.base, int(positions[outside.argmax()]), XI)  # raises as without the premise
        return EditRequest(prefix + request.base, positions + 2 * len(prefix), codes)
    return [prefix + s for s in request]


def report_from_transcripts(lines, attack: str, config_fingerprint: str, alphabet_fingerprint: str) -> dict:
    """The report of transcript lines (dicts, in record order); no I/O and no oracle.

    See the module docstring for which line field feeds which report field;
    ``timing`` reads only the lines that were attacked (not skipped, no error).
    """
    per_sample, elapsed, queries_total = [], [], 0
    for line in lines:
        row = {key: line[key] for key in ("id", "skipped", "success", "d_lev", "queries", "final_loss", "error")}
        row["edit_sim"] = _edit_sim(line["d_lev"], line["original"], line["adversarial"])
        per_sample.append(row)
        queries_total += line["queries"] + (1 if "clean_loss" in line else 0)  # the clean score
        if line["error"] is None and not line["skipped"]:
            elapsed.append(line["elapsed"])
    ok = [row for row in per_sample if row["success"]]
    dlev_ok = [row["d_lev"] for row in ok]
    sim_ok = [row["edit_sim"] for row in ok]
    skipped = sum(row["skipped"] for row in per_sample)
    errors = sum(row["error"] is not None for row in per_sample)
    attackable = len(per_sample) - skipped - errors
    return {
        "schema": REPORT_SCHEMA,
        "attack": attack,
        "config_fingerprint": config_fingerprint,
        "alphabet_fingerprint": alphabet_fingerprint,
        "counts": {
            "total": len(per_sample),
            "skipped": skipped,
            "attackable": attackable,
            "successes": len(ok),
            "errors": errors,
        },
        "asr_percent": (100.0 * len(ok) / attackable) if attackable else None,
        "mean_dlev": statistics.fmean(dlev_ok) if dlev_ok else None,
        "std_dlev": statistics.pstdev(dlev_ok) if dlev_ok else None,
        "mean_edit_sim": statistics.fmean(sim_ok) if sim_ok else None,
        "queries_total": queries_total,
        "note": None if attackable else "no attackable samples",
        "per_sample": per_sample,
        "timing": {
            "mean_time": statistics.fmean(elapsed) if elapsed else None,
            "std_time": statistics.pstdev(elapsed) if elapsed else None,
            "total_time": math.fsum(elapsed),
        },
    }


def report_body(report: dict) -> bytes:
    """Canonical report bytes with volatile timing information stripped."""
    stable = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(stable, sort_keys=True, ensure_ascii=False).encode("utf-8")
