"""Self-contained property suites runnable from the command line.

Each suite re-derives its expected values from an independent reference
(full-matrix distance table, active-set quadratic program, exhaustive
neighborhood scan) rather than trusting the implementation under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import zlib
from unittest import mock

import numpy as np

from . import harness
from .attack import AttackConfig, PjcConstraints, build_request, candidate_edits, charmer_attack, exhaustive_k1
from .classifier import _CODE_BITS, BuiltinOracle, TrainConfig, _gram_keys, _hash_keys, _padded_codes, train_builtin
from .pga import PgaConfig, project_simplex
from .oracle import EditRequest
from .sentence import XI, Alphabet, contract, distinct_edits, expand, levenshtein, single_edit
from .synth import make_keyword_corpus

SUITES = ("sentence-space", "projection", "equivalence")


def reference_levenshtein(a: str, b: str) -> int:
    """Independent full-matrix distance table (not the two-row production path)."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[len(a)][len(b)]


def reference_simplex_projection(u_hat: np.ndarray) -> np.ndarray:
    """Active-set search: try every support and keep the feasible KKT point."""
    m = len(u_hat)
    best = None
    best_dist = None
    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            lam = (sum(u_hat[i] for i in support) - 1.0) / r
            u = np.zeros(m)
            feasible = True
            for i in range(m):
                if i in support:
                    u[i] = u_hat[i] - lam
                    if u[i] < -1e-12:
                        feasible = False
                        break
                elif u_hat[i] - lam > 1e-12:
                    feasible = False
                    break
            if feasible:
                dist = float(np.sum((u - u_hat) ** 2))
                if best_dist is None or dist < best_dist:
                    best, best_dist = u, dist
    assert best is not None
    return best


def _random_string(rng: random.Random, chars: str, max_len: int) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randint(0, max_len)))


def run_sentence_space_suite(samples: int = 1000, seed: int = 0) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    chars = "abcdefghijklmnop"  # 16 distinct characters
    lines = []
    ok = True
    sentences = [_random_string(rng, chars, 32) for _ in range(samples)]
    for s in sentences:
        e = expand(s)
        if contract(e) != s or len(e) != 2 * len(s) + 1:
            ok = False
            lines.append(f"FAIL round-trip/expansion length on {s!r}")
            break
    for _ in range(samples):
        a, b, c = (rng.choice(sentences) for _ in range(3))
        dab, dba = levenshtein(a, b), levenshtein(b, a)
        ref = reference_levenshtein(a, b)
        checks = (
            dab == ref,
            dab == dba,
            (dab == 0) == (a == b),
            levenshtein(a, c) <= dab + levenshtein(b, c),
            dab >= abs(len(a) - len(b)),
        )
        if not all(checks):
            ok = False
            lines.append(f"FAIL metric axioms on {a!r}, {b!r}, {c!r}")
            break
    lines.append(f"{'PASS' if ok else 'FAIL'} sentence-space: {samples} random sentences")
    return ok, lines


def run_projection_suite(instances: int = 100, seed: int = 0) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    ok = True
    lines = []
    for _ in range(instances):
        m = int(rng.integers(1, 5))
        u_hat = rng.normal(0, 2, m)
        got = project_simplex(u_hat)
        ref = reference_simplex_projection(u_hat)
        if np.linalg.norm(got - ref) > 1e-9:
            ok = False
            lines.append(f"FAIL projection mismatch on {u_hat}")
            break
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        u_hat = rng.normal(0, 3, m)
        p = project_simplex(u_hat)
        feasible = np.all(p >= 0) and abs(p.sum() - 1) <= 1e-10
        idem = np.allclose(project_simplex(p), p, atol=1e-10)
        shift = np.allclose(project_simplex(u_hat + rng.normal()), p, atol=1e-9)
        if not (feasible and idem and shift):
            ok = False
            lines.append(f"FAIL projection properties on m={m}")
            break
    lines.append(f"{'PASS' if ok else 'FAIL'} projection: oracle match and properties")
    return ok, lines


def misindexed_gram(classifier, sentences: list[str]) -> str | None:
    """The first n-gram of ``sentences`` whose packed key the scorer indexes wrongly, described.

    Each distinct packed key is looked up as scoring looks it up
    (``_hash_keys``), unpacked here and checked against CRC32 of the gram's
    UTF-8 bytes salted with its order, modulo the feature dimension.
    """
    keys = np.unique(_gram_keys(*_padded_codes(sentences), classifier.ngram_orders)[0])
    mask = (1 << _CODE_BITS) - 1
    for key, got in zip(keys.tolist(), _hash_keys(keys, classifier.feature_dim).tolist()):
        gram = "".join(chr((key >> shift & mask) - 1) for shift in range(0, 63, _CODE_BITS) if key >> shift)
        want = zlib.crc32(gram.encode("utf-8") + bytes([len(gram)])) % classifier.feature_dim
        if got != want:
            return f"the n-gram {gram!r} has feature index {got}, not {want}"
    return None


def two_edit_walks(rng: random.Random, s: str, chars: tuple[str, ...]):
    """Seeded walks of two single edits from ``s``, two after each of eight first edits.

    Returns their ``(walks, 2)`` positions and code points (0 for the
    sentinel) and the sentences that ``single_edit`` reaches.
    """
    positions, codes, walked = [], [], []
    for _ in range(8):
        i, c = rng.randint(1, 2 * len(s) + 1), rng.choice(chars)
        t = single_edit(s, i, c)
        for _ in range(2):
            j, d = rng.randint(1, 2 * len(t) + 1), rng.choice(chars)
            positions.append((i, j))
            codes.append([0 if x == XI else ord(x) for x in (c, d)])
            walked.append(single_edit(t, j, d))
    return np.array(positions, dtype=np.int64), np.array(codes, dtype=np.int64), walked


def run_equivalence_suite(samples: int = 100, seed: int = 0) -> tuple[bool, list[str]]:
    corpus = make_keyword_corpus(300, seed=seed)
    clf = train_builtin([(r.text, r.label) for r in corpus], TrainConfig(seed=seed))
    oracle = BuiltinOracle(clf)
    alphabet = Alphabet.from_texts(r.text for r in corpus)
    eval_records = make_keyword_corpus(samples, seed=seed + 1)
    rng = random.Random(seed)
    ok = True
    lines = []
    requests, by_request = [], []
    for record in eval_records:
        s = record.text
        edits = distinct_edits([s], [range(1, 2 * len(s) + 2)], alphabet.replacement_chars())[:, 1:]
        by_edit = oracle.score_edits(s, edits[:, 0], edits[:, 1])
        requests.append(EditRequest(s, edits[:, 0], edits[:, 1]))
        by_request.append(by_edit)
        edited = [single_edit(s, i, chr(c)) for i, c in edits.tolist()]
        by_sentence = oracle.score_batch(edited)
        if by_edit.tobytes() != by_sentence.tobytes():
            ok = False
            lines.append(f"FAIL single-edit scores differ from the edited sentences' on record {record.id}: {s!r}")
            break
        # both scorers look grams up in one table, so a wrong entry would not show above
        wrong = misindexed_gram(clf, [s, *edited])
        if wrong:
            ok = False
            lines.append(f"FAIL {wrong} on record {record.id}: {s!r}")
            break
        # walks of more than one edit share their first edits, which the scorer dedupes; single edits do not
        positions, codes, walked = two_edit_walks(rng, s, alphabet.replacement_chars())
        if clf.walk_logits(s, positions, codes).tobytes() != clf.candidate_logits(walked).tobytes():
            ok = False
            lines.append(f"FAIL two-edit walk scores differ from the walked sentences' on record {record.id}: {s!r}")
            break
        config = AttackConfig(alphabet=alphabet, n=2 * len(s) + 1, k=1)
        outcome = charmer_attack(oracle, s, record.label, config)
        best = exhaustive_k1(oracle, s, record.label, config)
        if outcome.adversarial != best.adversarial or outcome.final_loss != best.final_loss:
            ok = False
            lines.append(f"FAIL equivalence on record {record.id}: {s!r}")
            break
    config, pga_config = AttackConfig(alphabet=alphabet, seed=seed), PgaConfig(iterations=10, candidate_cap=64, seed=seed)
    # every other record is a sentence pair, whose requests join the others' after the premise
    premise = "the critics said that"
    suite = [dataclasses.replace(r, paired_text=premise) if i % 2 else r for i, r in enumerate(eval_records)]
    for attack in harness.ATTACK_NAMES if ok else ():
        together = harness.run_attack_suite(suite, oracle, attack, config, pga_config=pga_config)
        with mock.patch.object(harness, "_LOCKSTEP_RECORDS", 1):
            alone = harness.run_attack_suite(suite, oracle, attack, config, pga_config=pga_config)
        if harness.report_body(together) != harness.report_body(alone):
            ok = False
            lines.append(f"FAIL the {attack} report of records in lockstep differs from that of one record at a time")
    # the records' requests in one call, as records in lockstep share one, against each request alone
    in_one_call = np.split(oracle._score_requests(requests), np.cumsum([len(rows) for rows in by_request])[:-1])
    for record, alone, rows in zip(eval_records, by_request, in_one_call):
        if rows.tobytes() != alone.tobytes():
            ok = False
            lines.append(f"FAIL the record's rows of one call over every record's edits differ on record {record.id}")
            break
    # the records' candidates built in one call, as a lockstep step builds them, against each built alone;
    # every other record under every PJC constraint, at seeded positions
    builds = [
        build_request(
            r.text,
            [rng.randint(1, 2 * len(r.text) + 1) for _ in range(8)],
            alphabet,
            PjcConstraints.all_enabled() if j % 2 else None,
        )
        for j, r in enumerate(eval_records)
    ]
    together = candidate_edits(builds, alphabet)
    for j, (record, build) in enumerate(zip(eval_records, builds)):
        if together[together[:, 0] == j, 1:].tobytes() != candidate_edits([build], alphabet)[:, 1:].tobytes():
            ok = False
            lines.append(f"FAIL the candidates built for every record in one call differ on record {record.id}")
            break
    lines.append(
        f"{'PASS' if ok else 'FAIL'} equivalence: single-edit scores and two-edit walk scores equal their "
        f"sentences', one call over every record's edits scores as a call per record, one build of every "
        f"record's candidates builds them as a build per record, every n-gram has its "
        f"CRC32 feature index, the full-width single-edit attack matches the exhaustive scan exactly, and "
        f"every attack reports alike in lockstep and one record at a time on {samples} samples, half of them "
        f"after a premise"
    )
    return ok, lines


def run_suite(name: str) -> tuple[bool, list[str]]:
    if name == "sentence-space":
        return run_sentence_space_suite()
    if name == "projection":
        return run_projection_suite()
    if name == "equivalence":
        return run_equivalence_suite()
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
