"""Batch evaluation: dataset ingestion, metrics, transcripts and reports.

Records are attacked in chunks of ``_LOCKSTEP_RECORDS``, in lockstep: a
chunk is one ``attack.drive`` with a run per record (``_attack_chunk``),
whose first request is the record's clean score and whose next are its
attack's steps (``STEPS``, by name). At each step the requests of all live
records are answered together: the candidates of every record that asks for
them in one build, each kind of scoring request in one oracle call, and the
CW losses of each call's rows in one pass with a label per row. A record
with a ``paired_text`` premise (sentence-pair tasks, where only the
hypothesis is attacked) has its premise joined to each of its scoring
requests (``attack.join_premise``), so its requests share those calls too.
Transcripts are JSON Lines, one object per record, written in record order
as soon as a record and those before it are done, so a crash loses at most
one chunk of lines. A line's ``elapsed`` is its run's seconds: the time of
its own steps plus its row share of each build, call and loss pass that
answered it, its clean score included. The report is
``report_from_transcripts`` of those lines: each line's ``id``, ``skipped``,
``success``, ``d_lev``, ``queries``, ``final_loss`` and ``error`` make its
``per_sample`` row, with ``edit_sim`` from ``d_lev``, ``original`` and
``adversarial``; the counts, ASR and means come from those rows;
``queries_total`` sums ``queries`` plus 1 for each ``clean_loss`` (the clean
score), and a line with an ``error`` counts in ``queries`` the rows answered
before its attack failed; ``timing`` comes from ``elapsed``. Reports keep
all timing statistics under a single ``timing`` key so seeded reruns can be
compared byte-for-byte on the remainder (see ``report_body``).

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

from .attack import AttackConfig, _exhaustive_k1, _greedy_attack, drive
from .classifier import BuiltinOracle
from .oracle import Oracle, OracleError
from .pga import GradientUnavailableError, PgaConfig, pga_attack
from .sentence import XI, Alphabet, L_MAX, levenshtein

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


def _pga_steps(s: str, y: int, config: AttackConfig, *, classifier, pga_config: PgaConfig):
    """pga as steps: it scores on the classifier itself, so it makes no request."""
    return pga_attack(classifier, s, y, pga_config, config.alphabet)
    yield


# every attack's steps by name, fn(s, y, config) -> generator (see attack.py); pga's classifier and config are
# bound in run_attack_suite
STEPS = {
    "charmer": _greedy_attack,
    "charmer-fast": _greedy_attack,  # with n=1, set in run_attack_suite
    "random": functools.partial(_greedy_attack, pick="draw"),
    "exhaustive-k1": _exhaustive_k1,
    "pga": _pga_steps,
}
ATTACK_NAMES = tuple(STEPS)


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
    if attack not in STEPS:
        raise ValueError(f"unknown attack {attack!r}; expected one of {ATTACK_NAMES}")
    steps = STEPS[attack]
    if attack == "charmer-fast":
        config = dataclasses.replace(config, n=1)
    if attack == "pga":
        if not isinstance(oracle, BuiltinOracle):
            raise GradientUnavailableError("the pga attack needs a builtin oracle")
        if pga_config is None:
            pga_config = PgaConfig(k=min(config.k, 2), seed=config.seed)
        steps = functools.partial(steps, classifier=oracle.classifier, pga_config=pga_config)
    else:
        pga_config = None

    fingerprint = config_fingerprint(attack, config, pga_config)
    alpha_fp = config.alphabet.fingerprint()
    if transcript_path and os.path.exists(transcript_path) and os.path.getsize(transcript_path):
        raise FileExistsError(f"transcript {transcript_path} exists and is not empty; give a new or empty file")
    lines = _transcript_lines(records, oracle, attack, steps, config, fingerprint, alpha_fp, transcript_path)
    return report_from_transcripts(lines, attack, fingerprint, alpha_fp)


def _transcript_lines(records, oracle, attack, steps, config, fingerprint, alpha_fp, transcript_path):
    """Attack the records, ``_LOCKSTEP_RECORDS`` at a time; write, flush and yield each line in record order.

    A line that UTF-8 cannot encode, which only a lone surrogate makes, is
    written with ASCII escapes.
    """
    records = list(records)
    with open(transcript_path, "a", encoding="utf-8") if transcript_path else contextlib.nullcontext() as out_fh:
        for start in range(0, len(records), _LOCKSTEP_RECORDS):
            chunk = records[start : start + _LOCKSTEP_RECORDS]
            for entry in _attack_chunk(chunk, oracle, attack, steps, config, fingerprint, alpha_fp):
                if out_fh is not None:
                    try:
                        out_fh.write(json.dumps(entry, sort_keys=True, ensure_ascii=False) + "\n")
                    except UnicodeEncodeError:  # raised before anything is written
                        out_fh.write(json.dumps(entry, sort_keys=True) + "\n")
                    out_fh.flush()
                yield entry


def _attack_chunk(records, oracle, attack, steps, config, fingerprint, alpha_fp):
    """Attack ``records`` in lockstep, one ``attack.drive`` run per record (``_record_steps``); yield their lines
    in record order, each as soon as its record and those before it are done."""
    unattacked = {  # what skipped and errored records keep
        "schema": TRANSCRIPT_SCHEMA, "config_fingerprint": fingerprint, "alphabet_fingerprint": alpha_fp,
        "error": None, "skipped": False, "success": False, "edits_used": 0, "d_lev": 0, "final_loss": None,
        "queries": 0, "elapsed": 0.0,
    }
    lines = [
        dict(unattacked, id=r.id, original=r.text, paired_text=r.paired_text, adversarial=r.text, trace=[])
        for r in records
    ]
    runs = {
        i: (_record_steps(r, line, attack, steps, config), r.label, r.paired_text)
        for i, (r, line) in enumerate(zip(records, lines))
    }
    done, written = [False] * len(records), 0
    for i, result, seconds, rows in drive(oracle, config.alphabet, runs):
        record, line = records[i], lines[i]
        if isinstance(result, OracleError):
            # the clean score, if it was answered, is counted through clean_loss
            line.update(error=f"{type(result).__name__}: {result}", queries=rows - ("clean_loss" in line))
            log.warning("record %s failed: %s", record.id, result)
        elif result is not None:  # None: skipped
            line.update(
                adversarial=result.adversarial,
                success=result.success,
                edits_used=result.edits_used,
                d_lev=levenshtein(record.text, result.adversarial),
                final_loss=result.final_loss if result.final_loss is not None else line["clean_loss"],
                queries=result.queries,
                elapsed=seconds,
                trace=[[t.position, t.char, t.loss] for t in result.trace],
            )
        done[i] = True
        while written < len(records) and done[written]:
            yield lines[written]
            written += 1


def _record_steps(record, line, attack, steps, config):
    """A record's run: its clean score, then its attack's steps unless the oracle already misclassifies it.

    The clean score goes into the line at once, so that a line whose attack fails keeps it.
    """
    line["clean_loss"] = clean_loss = float((yield [record.text])[0])
    if clean_loss >= 0:
        line.update(skipped=True, final_loss=clean_loss)
        return None
    if attack == "pga" and record.paired_text is not None:  # it scores on the classifier, where no premise goes
        raise GradientUnavailableError("pga cannot score a paired_text premise")
    return (yield from steps(record.text, record.label, config))


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
