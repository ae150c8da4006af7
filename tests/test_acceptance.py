"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every check recomputes its expected values through the independent references
in ``charmer.verify`` and ``tests/reference.py`` or through hand-derived
parametrizations; nothing is trusted from the production code path it is
auditing.
"""

import json
import random
import re
import statistics
import string
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from reference import brute_force_ball, central_difference_gradient, reference_feature_rows

from charmer.attack import (
    AttackConfig,
    PjcConstraints,
    charmer_attack,
    exhaustive_k1,
    random_position_baseline,
)
from charmer.classifier import BuiltinClassifier, mixture_loss_and_grad
from charmer.cli import main
from charmer.harness import report_body
from charmer.oracle import Oracle, cw_loss
from charmer.pga import PgaConfig, pga_attack, project_simplex
from charmer.sentence import (
    XI,
    Alphabet,
    ball_size_bounds,
    contract,
    enumerate_ball,
    expand,
    generate_neighbors,
    levenshtein,
    single_edit,
)
from charmer.synth import make_keyword_corpus
from charmer.verify import reference_levenshtein, reference_simplex_projection


def record_line(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --- criterion 6 produces the traces criterion 5 audits, so both share a run


@pytest.fixture(scope="module")
def desk_run(desk_oracle, desk_alphabet, attackable_records):
    """Charmer n=20/k=10 plus the k=1 ordering sweep on the held-out samples."""
    main_cfg = AttackConfig(alphabet=desk_alphabet, n=20, k=10)
    outcomes = [
        charmer_attack(desk_oracle, r.text, r.label, main_cfg)
        for r in attackable_records
    ]

    def asr(outs):
        return sum(o.success for o in outs) / len(outs)

    k1_outcomes = {}
    for name, maker in (
        (
            "n20",
            lambda r, seed: charmer_attack(
                desk_oracle, r.text, r.label,
                AttackConfig(alphabet=desk_alphabet, n=20, k=1, seed=seed),
            ),
        ),
        (
            "n1",
            lambda r, seed: charmer_attack(
                desk_oracle, r.text, r.label,
                AttackConfig(alphabet=desk_alphabet, n=1, k=1, seed=seed),
            ),
        ),
        (
            "random",
            lambda r, seed: random_position_baseline(
                desk_oracle, r.text, r.label,
                AttackConfig(alphabet=desk_alphabet, n=1, k=1, seed=seed),
            ),
        ),
    ):
        k1_outcomes[name] = [
            [maker(r, seed) for r in attackable_records] for seed in range(5)
        ]

    return {
        "outcomes": outcomes,
        "asr": asr(outcomes),
        "ordering": {
            name: statistics.fmean(asr(outs) for outs in runs)
            for name, runs in k1_outcomes.items()
        },
        "all_traces": [o.trace for o in outcomes]
        + [o.trace for runs in k1_outcomes.values() for outs in runs for o in outs],
    }


def test_criterion_1_sentence_space_suite():
    rng = random.Random(2024)
    start = time.perf_counter()
    failures = 0
    sentences = []
    for _ in range(1000):
        chars = rng.sample(string.ascii_lowercase + " 0123", rng.randint(1, 16))
        sentences.append("".join(rng.choice(chars) for _ in range(rng.randint(0, 32))))
    for s in sentences:
        e = expand(s)
        failures += contract(e) != s
        failures += len(e) != 2 * len(s) + 1
    for a, b, c in zip(sentences, sentences[1:], sentences[2:]):
        dab = levenshtein(a, b)
        failures += dab != reference_levenshtein(a, b)
        failures += dab != levenshtein(b, a)
        failures += (dab == 0) != (a == b)
        failures += levenshtein(a, c) > dab + levenshtein(b, c)
    elapsed = time.perf_counter() - start
    record_line(
        1,
        failures == 0 and elapsed < 10.0,
        f"1000 sentences, {failures} failures, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_worked_examples():
    checks = [
        levenshtein("Hello", "Helo") == 1,
        levenshtein("Hello", "Hallo") == 1,
        levenshtein("Hello", "Helloo") == 1,
        levenshtein("Hello", "Haloo") == 2,
        expand("Hello") == XI + XI.join("Hello") + XI,
        contract(XI + "H" + XI + "eel" + XI + "l" + XI + "o" + XI) == "Heello",
        contract(XI + "H" + XI + "e" + XI + "l" + XI + XI + XI + "o" + XI) == "Helo",
        contract(expand("Hello")) == "Hello",
        single_edit("Hello", 6, XI) == "Helo",
        single_edit("Hello", 8, XI) == "Helo",
    ]
    record_line(2, all(checks), f"{sum(checks)}/{len(checks)} worked examples exact")


def test_criterion_3_ball_correctness():
    import itertools

    start = time.perf_counter()
    mismatches = bound_violations = 0
    for chars in (("a",), ("a", "b"), ("a", "b", "c")):
        alphabet = Alphabet(chars)
        for length in range(5):
            for combo in itertools.product(chars, repeat=length):
                s = "".join(combo)
                for k in (1, 2):
                    got = set(enumerate_ball(s, alphabet, k))
                    if k == 1:
                        mismatches += set(generate_neighbors(s, alphabet)) != got
                    mismatches += got != brute_force_ball(s, chars, k)
                    lower, upper = ball_size_bounds(len(s), len(chars), k)
                    bound_violations += len(got) > upper
                    # the lower bound assumes k deletions are available; with a
                    # one-letter alphabet and |S| < k the ball is smaller
                    if len(chars) > 1 or len(s) >= k:
                        bound_violations += len(got) < lower
                    if len(chars) == 1 and len(s) >= k:
                        mismatches += len(got) != 2 * k + 1
    elapsed = time.perf_counter() - start
    record_line(
        3,
        mismatches == 0 and bound_violations == 0 and elapsed < 60.0,
        f"all |Γ|≤3, |S|≤4, k≤2 balls exact, bounds hold, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_equivalence(desk_oracle, desk_alphabet):
    samples = make_keyword_corpus(100, seed=13, start_id=5000)
    mismatches = 0
    for r in samples:
        config = AttackConfig(alphabet=desk_alphabet, n=2 * len(r.text) + 1, k=1)
        greedy = charmer_attack(desk_oracle, r.text, r.label, config)
        best = exhaustive_k1(desk_oracle, r.text, r.label, config)
        if greedy.adversarial != best.adversarial or abs(greedy.final_loss - best.final_loss) > 1e-12:
            mismatches += 1
    record_line(4, mismatches == 0, f"100 samples, {mismatches} mismatches vs exhaustive k=1")


def test_criterion_5_monotone_traces(desk_run):
    violations = total = 0
    for trace in desk_run["all_traces"]:
        losses = [step.loss for step in trace]
        total += max(len(losses) - 1, 0)
        violations += sum(b < a for a, b in zip(losses, losses[1:]))
    record_line(
        5,
        violations == 0,
        f"{violations} non-monotone steps across {len(desk_run['all_traces'])} traces ({total} transitions)",
    )


def test_criterion_6_desk_efficacy(desk_corpus, desk_classifier, desk_run):
    texts = [r.text for r in desk_corpus]
    labels = np.array([r.label for r in desk_corpus])
    acc = float((desk_classifier.predict(texts) == labels).mean())
    asr = desk_run["asr"]
    order = desk_run["ordering"]
    ordered = order["n20"] >= order["n1"] >= order["random"]
    record_line(
        6,
        acc >= 0.95 and asr >= 0.95 and ordered,
        f"train acc {acc:.3f} (≥0.95), ASR {100 * asr:.1f}% (≥95%), "
        f"k=1 ordering n20 {order['n20']:.3f} ≥ n1 {order['n1']:.3f} ≥ random {order['random']:.3f}",
    )


def test_criterion_7_simplex_projection():
    rng = np.random.default_rng(7)
    worst_oracle = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        u_hat = rng.uniform(-5, 5, size=m)
        diff = np.linalg.norm(project_simplex(u_hat) - reference_simplex_projection(u_hat))
        worst_oracle = max(worst_oracle, float(diff))
    worst_prop = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        u_hat = rng.uniform(-10, 10, size=m)
        u = project_simplex(u_hat)
        worst_prop = max(
            worst_prop,
            abs(float(u.sum()) - 1.0),
            float(-u.min()) if u.min() < 0 else 0.0,
            float(np.abs(project_simplex(u) - u).max()),
            float(np.abs(project_simplex(u_hat + 3.7) - u).max()),
        )
    record_line(
        7,
        worst_oracle < 1e-9 and worst_prop < 1e-9,
        f"QP-oracle diff {worst_oracle:.2e} (< 1e-9), property residual {worst_prop:.2e}",
    )


def test_criterion_8_gradient_check(desk_classifier):
    rng = np.random.default_rng(8)
    texts = [r.text for r in make_keyword_corpus(40, seed=21)]
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 8))
        cands = list(rng.choice(texts, size=m, replace=False))
        rows = reference_feature_rows(cands, desk_classifier.ngram_orders, desk_classifier.feature_dim)
        F = rows @ desk_classifier.weights.T
        u = rng.dirichlet(np.ones(m))
        y = int(rng.integers(0, 2))
        _, grad = mixture_loss_and_grad(desk_classifier, F, u, y)
        fd = central_difference_gradient(
            lambda v: mixture_loss_and_grad(desk_classifier, F, v, y)[0], u
        )
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / scale))
    record_line(8, worst < 1e-5, f"100 instances, max relative gradient error {worst:.2e} (< 1e-5)")


def test_criterion_9_pga_sanity(desk_classifier, desk_alphabet, attackable_records, desk_run):
    config = PgaConfig(iterations=100, k=2, candidate_cap=1024)
    subset = attackable_records[:40]
    outcomes = [
        pga_attack(desk_classifier, r.text, r.label, config, desk_alphabet)
        for r in subset
    ]
    out_of_ball = sum(levenshtein(r.text, o.adversarial) > config.k for r, o in zip(subset, outcomes))
    pga_asr = 100.0 * sum(o.success for o in outcomes) / len(outcomes)
    pga_time = statistics.fmean(o.elapsed for o in outcomes)
    greedy = desk_run["outcomes"][: len(subset)]
    greedy_asr = 100.0 * sum(o.success for o in greedy) / len(greedy)
    greedy_time = statistics.fmean(o.elapsed for o in greedy)
    record_line(
        9,
        out_of_ball == 0,
        f"{out_of_ball} outputs outside S_k; side-by-side on {len(subset)} desk samples — "
        f"PGA ASR {pga_asr:.1f}% @ {pga_time * 1000:.0f}ms/sample vs "
        f"greedy ASR {greedy_asr:.1f}% @ {greedy_time * 1000:.0f}ms/sample",
    )


def test_criterion_10_cli_end_to_end(tmp_path, desk_classifier):
    dataset = tmp_path / "eval.jsonl"
    with open(dataset, "w", encoding="utf-8") as fh:
        for r in make_keyword_corpus(20, seed=17, start_id=9000):
            fh.write(json.dumps({"id": r.id, "text": r.text, "label": r.label}) + "\n")
    labels = {r.id: r.label for r in make_keyword_corpus(20, seed=17, start_id=9000)}
    model = tmp_path / "model.bin"
    desk_classifier.save(model)

    reports = []
    transcripts = []
    for name in ("one", "two"):
        transcript = tmp_path / f"{name}.jsonl"
        report = tmp_path / f"{name}.json"
        code = main(
            [
                "run",
                "--dataset", str(dataset),
                "--oracle", f"builtin:{model}",
                "--attack", "charmer",
                "--seed", "0",
                "--out", str(transcript),
                "--report", str(report),
            ]
        )
        assert code == 0
        reports.append(json.loads(report.read_text()))
        transcripts.append(transcript)

    loaded = BuiltinClassifier.load(model)
    replay_bad = 0
    for line in transcripts[0].read_text().splitlines():
        entry = json.loads(line)
        cur = entry["original"]
        for pos, char, _loss in entry["trace"]:
            if pos is not None:
                cur = single_edit(cur, pos, char)
        rescored = cw_loss(loaded.logits([cur])[0].tolist(), labels[entry["id"]])
        replay_bad += cur != entry["adversarial"]
        replay_bad += abs(rescored - entry["final_loss"]) > 1e-9

    counts = reports[0]["counts"]
    asr_exact = (
        reports[0]["asr_percent"] * counts["attackable"] / 100.0
        == pytest.approx(counts["successes"], abs=1e-9)
    )
    identical = report_body(reports[0]) == report_body(reports[1])
    record_line(
        10,
        replay_bad == 0 and asr_exact and identical,
        f"20-record run: {replay_bad} replay/re-score failures (tol 1e-9), "
        f"ASR·attackable == successes: {asr_exact}, byte-identical report bodies: {identical}",
    )


# --- criterion 11: independent PJC audit of every scored candidate ----------

_LOWER = frozenset(string.ascii_lowercase)


class CaptureOracle(Oracle):
    """Pass-through oracle retaining every scored batch for later audit."""

    def __init__(self, inner):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.batch_limit = inner.batch_limit
        self.batches = []

    def score_batch(self, sentences):
        sentences = list(sentences)
        self.batches.append(sentences)
        return self.inner.score_batch(sentences)

    def _score_chunk(self, sentences):  # pragma: no cover - unused
        raise NotImplementedError


def audit_words(s):
    """1-based inclusive character spans of maximal non-space runs."""
    return [(m.start() + 1, m.end()) for m in re.finditer(r"[^ ]+", s)]


def edit_parametrizations(s, c):
    """All (expanded position, char) pairs with single_edit(s, i, ch) == c."""
    if len(c) == len(s):
        diffs = [l for l in range(len(s)) if s[l] != c[l]]
        return [(2 * (l + 1), c[l]) for l in diffs] if len(diffs) == 1 else []
    if abs(len(c) - len(s)) != 1:
        return []
    longer, shorter = (c, s) if len(c) > len(s) else (s, c)
    prefix = 0
    while prefix < len(shorter) and longer[prefix] == shorter[prefix]:
        prefix += 1
    suffix = 0
    while suffix < len(shorter) - 0 and suffix < len(shorter) and longer[-1 - suffix] == shorter[-1 - suffix]:
        suffix += 1
    lo = max(len(longer) - 1 - suffix, 0)
    hi = min(prefix, len(longer) - 1)
    out = []
    for p in range(lo, hi + 1):
        if longer[:p] + longer[p + 1 :] == shorter:
            if len(c) > len(s):
                out.append((2 * p + 1, c[p]))  # insertion before char index p
            else:
                out.append((2 * (p + 1), XI))  # deletion of s[p]
    return out


def audit_allows(s, i, ch, edited):
    """Independent restatement of the five PJC rules for one parametrization."""
    if i % 2 == 0 and s[i // 2 - 1] not in _LOWER:
        return False  # may only touch lowercase English characters
    if ch != XI and ch not in _LOWER:
        return False  # may only write lowercase English characters
    for w, (a, b) in enumerate(audit_words(s)):
        if 2 * a - 1 <= i <= 2 * b + 1:
            if i in (2 * a - 1, 2 * a, 2 * b, 2 * b + 1):
                return False  # first/last character (or flanking slot) of a word
            if b - a + 1 < 4:
                return False  # word too short
            if w in edited:
                return False  # word already perturbed
    return True


def test_criterion_11_pjc_audit(desk_oracle, desk_alphabet, attackable_records):
    config = AttackConfig(
        alphabet=desk_alphabet, n=20, k=10, constraints=PjcConstraints.all_enabled()
    )
    violations = audited = 0
    for record in attackable_records:
        capture = CaptureOracle(desk_oracle)
        outcome = charmer_attack(capture, record.text, record.label, config)
        states = [record.text]
        for step in outcome.trace:
            states.append(single_edit(states[-1], step.position, step.char))
        assert states[-1] == outcome.adversarial
        edited = set()
        for j, step in enumerate(outcome.trace):
            s_j = states[j]
            probes, candidates = capture.batches[2 * j], capture.batches[2 * j + 1]
            assert len(probes) == 2 * len(s_j) + 1
            for cand in candidates:
                if cand == s_j:
                    continue  # identity edits bypass the constraints by design
                audited += 1
                params = edit_parametrizations(s_j, cand)
                if not params or not any(
                    audit_allows(s_j, i, ch, edited) for i, ch in params
                ):
                    violations += 1
            # under the full constraint set no edit may create or destroy a
            # word, so positional word ordinals stay comparable across steps
            assert len(audit_words(states[j + 1])) == len(audit_words(s_j))
            if states[j + 1] != s_j:
                for w, (a, b) in enumerate(audit_words(s_j)):
                    if 2 * a - 1 <= step.position <= 2 * b + 1:
                        edited.add(w)
    record_line(
        11,
        violations == 0,
        f"{audited} scored candidates across {len(attackable_records)} full-PJC runs, "
        f"{violations} constraint violations",
    )
