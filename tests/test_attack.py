from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmer.attack import (
    AttackConfig,
    EditHistory,
    PjcConstraints,
    _probe_request,
    build_request,
    candidate_edits,
    charmer_attack,
    exhaustive_k1,
    pjc_violates,
    random_position_baseline,
    select_positions,
    word_spans,
)
from charmer.classifier import BuiltinClassifier, BuiltinOracle
from charmer.oracle import Oracle, OracleError, cw_loss, score_together
from charmer.sentence import XI, Alphabet, generate_neighbors, levenshtein, single_edit
from reference import ReferenceEditHistory, reference_hashed_counts, reference_single_edits

ALPHA_AB = Alphabet(("a", "b"))


def as_triples(s, edits):
    """``[position, code]`` rows as (candidate, position, char), the candidate built by ``single_edit``."""
    return [(single_edit(s, i, chr(c)), i, chr(c)) for i, c in edits.tolist()]


def built(s, positions, alphabet, constraints=None, history=None):
    """The ``[position, code]`` rows ``candidate_edits`` builds for one record."""
    return candidate_edits([build_request(s, positions, alphabet, constraints, history)], alphabet)[:, 1:]


def ranked(oracle, s, y, n, test_char=" ", allowed=None):
    """``select_positions`` of the probes of ``s``, scored with ``oracle``."""
    probes = _probe_request(s, test_char, allowed)
    return select_positions(probes, cw_loss(oracle.score_edits(*probes), y), n)


class LengthOracle(Oracle):
    """Longer sentence = higher class-1 score; deterministic and cheap."""

    num_classes = 2
    batch_limit = 512

    def _score_chunk(self, sentences):
        return [[0.0, float(len(s))] for s in sentences]


class CharCountOracle(Oracle):
    """Class-1 score counts occurrences of a target character."""

    num_classes = 2
    batch_limit = 512

    def __init__(self, target="b"):
        self.target = target

    def _score_chunk(self, sentences):
        return [[0.0, float(s.count(self.target))] for s in sentences]


class ConstantOracle(Oracle):
    num_classes = 2
    batch_limit = 512

    def _score_chunk(self, sentences):
        return [[1.0, 0.0] for _ in sentences]


class OneRowOracle(Oracle):
    """Overrides ``score_batch`` itself and answers every batch with one row."""

    num_classes = 2

    def score_batch(self, sentences):
        return np.array([[0.0, float(len(sentences))]])


class BatchLogOracle(Oracle):
    """Wraps another oracle and logs every score_batch size."""

    def __init__(self, inner):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.batch_limit = inner.batch_limit
        self.batch_sizes = []

    def score_batch(self, sentences):
        sentences = list(sentences)
        self.batch_sizes.append(len(sentences))
        return self.inner.score_batch(sentences)

    def _score_chunk(self, sentences):  # pragma: no cover - unused
        raise NotImplementedError


class TestWordSpans:
    @pytest.mark.parametrize(
        "s,spans",
        [
            ("hi there", [(1, 2), (4, 8)]),
            ("  a  bb ", [(3, 3), (6, 7)]),
            ("", []),
            ("   ", []),
            ("word", [(1, 4)]),
        ],
    )
    def test_examples(self, s, spans):
        assert word_spans(s) == spans


class TestSelectPositions:
    def test_constant_oracle_orders_by_index(self):
        positions = ranked(ConstantOracle(), "abc", 0, 4)
        assert positions == [1, 2, 3, 4]

    def test_probe_count_is_expanded_length(self):
        oracle = BatchLogOracle(ConstantOracle())
        ranked(oracle, "abcd", 0, 3)
        assert oracle.batch_sizes == [9]

    def test_ranks_critical_character_first(self):
        # deleting the only 'b' (position 4 in "a b a") hurts class 1 most
        positions = ranked(CharCountOracle("b"), "aba", 1, 1, test_char=" ")
        # probe at position 4 replaces 'b' with ' ': count drops to 0
        assert positions == [4]

    def test_allowed_restricts_probes(self):
        oracle = BatchLogOracle(ConstantOracle())
        positions = ranked(oracle, "abc", 0, 10, allowed={2, 5})
        assert positions == [2, 5]
        assert oracle.batch_sizes == [2]

    def test_space_position_probed_with_sentinel(self):
        # "a b": position 4 holds the test char, so the probe deletes it
        positions = ranked(LengthOracle(), "a b", 0, 1)
        # class 0 is the label; shorter sentence -> lower class-1 score -> lower
        # loss, so deletion probes rank last and an insertion slot wins
        assert positions[0] in (1, 3, 5, 7)

    def test_a_score_batch_override_with_one_row_raises(self):
        # the scoring call that answers an attack's requests refuses a wrong row count
        probes = _probe_request("good movie", " ", None)
        with pytest.raises(OracleError, match="expected 21 score rows"):
            score_together(OneRowOracle(), [probes])
        with pytest.raises(OracleError):
            charmer_attack(OneRowOracle(), "good movie", 1, AttackConfig(alphabet=ALPHA_AB, n=5, k=2))


class TestCandidates:
    def test_worked_example(self):
        # positions sorted; the no-op (3, ξ) repeats "ab" and is dropped
        assert as_triples("ab", built("ab", [3, 2], ALPHA_AB)) == [
            ("ab", 2, "a"),
            ("bb", 2, "b"),
            ("b", 2, XI),
            ("aab", 3, "a"),
            ("abb", 3, "b"),
        ]

    def test_dedup_keeps_first_parametrization(self):
        edits = as_triples("aa", built("aa", [1, 2], ALPHA_AB))
        cands = [c for c, _, _ in edits]
        assert cands == sorted(set(cands), key=cands.index)
        # "aaa" reachable from both positions; kept with its earliest position
        triples = {c: (i, ch) for c, i, ch in edits}
        assert triples["aaa"] == (1, "a")

    def test_positions_sorted_so_order_is_rank_independent(self):
        assert built("ab", [3, 1], ALPHA_AB).tolist() == built("ab", [1, 3], ALPHA_AB).tolist()

    def test_out_of_range_position(self):
        with pytest.raises(ValueError):
            built("ab", [6], ALPHA_AB)

    def test_all_candidates_within_one_edit(self):
        alphabet = Alphabet(tuple("abc"))
        for cand, i, c in as_triples("abc", built("abc", list(range(1, 8)), alphabet)):
            assert levenshtein("abc", cand) <= 1
            assert cand == single_edit("abc", i, c)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="aab héllo wörld", max_size=14),
        st.lists(st.integers(1, 29), max_size=8),
        st.sets(st.sampled_from(PjcConstraints.FLAG_NAMES)),
        st.sets(st.integers(0, 3)),
    )
    def test_equal_the_string_reference(self, s, positions, flags, edited):
        # the bench counts attack.candidates as the length of this array
        positions = [i for i in positions if i <= 2 * len(s) + 1]
        alphabet = Alphabet(tuple("aelo É"))
        history = EditHistory()
        history.edited = edited
        constraints = PjcConstraints.from_names(sorted(flags))
        spans = word_spans(s)

        def keep(cand, i, c):
            return cand == s or not pjc_violates(s, i, c, constraints, edited, spans)

        edits = built(s, positions, alphabet, constraints, history)
        expected = list(reference_single_edits(s, sorted(set(positions)), alphabet.replacement_chars(), keep))
        assert as_triples(s, edits) == expected
        assert len(edits) == len({cand for cand, _, _ in expected})


class TestPjc:
    def test_loweng_blocks_non_english(self):
        c = PjcConstraints(loweng=True)
        assert pjc_violates("héllo", 4, "a", c)  # replacing 'é'
        assert pjc_violates("hello", 4, "É", c)  # inserting non-English
        assert not pjc_violates("hello", 4, "a", c)
        assert not pjc_violates("héllo", 2, XI, c)  # deleting 'h' is fine

    def test_first_and_last(self):
        c_first = PjcConstraints(first=True)
        c_last = PjcConstraints(last=True)
        # word "there" in "hi there" spans chars 4..8
        s = "hi there"
        assert pjc_violates(s, 7, "x", c_first)  # 2a-1
        assert pjc_violates(s, 8, "x", c_first)  # 2a
        assert not pjc_violates(s, 9, "x", c_first)
        assert pjc_violates(s, 16, "x", c_last)  # 2b
        assert pjc_violates(s, 17, "x", c_last)  # 2b+1
        assert not pjc_violates(s, 15, "x", c_last)

    def test_length_blocks_short_words(self):
        c = PjcConstraints(length=True)
        s = "hi there"
        assert pjc_violates(s, 3, "x", c)  # inside "hi"
        assert not pjc_violates(s, 9, "x", c)  # inside "there"

    def test_repeat_uses_history(self):
        c = PjcConstraints(repeat=True)
        assert pjc_violates("hi there", 9, "x", c, edited_words={1})
        assert not pjc_violates("hi there", 9, "x", c, edited_words={0})

    def test_between_words_unowned(self):
        # position 6 of "hi there" is the insertion slot inside the space gap
        for c in (PjcConstraints(first=True), PjcConstraints(length=True)):
            assert not pjc_violates("hi there", 6, "x", c)

    def test_filtering_in_candidate_edits(self):
        c = PjcConstraints(length=True)
        edits = as_triples("hi", built("hi", [3], ALPHA_AB, constraints=c))
        # only the no-op survives: every real edit touches the 2-char word
        assert edits == [("hi", 3, XI)]

    def test_noop_bypasses_filters(self):
        c = PjcConstraints.all_enabled()
        edits = as_triples("aaaa", built("aaaa", [2], Alphabet(("a",)), constraints=c))
        assert ("aaaa", 2, "a") in edits

    def test_from_names(self):
        c = PjcConstraints.from_names(["first", "LAST"])
        assert c.first and c.last and not c.repeat
        with pytest.raises(ValueError):
            PjcConstraints.from_names(["bogus"])
        assert not PjcConstraints.from_names([]).any()
        assert PjcConstraints.all_enabled().any()


class TestEditHistory:
    def test_replacement_marks_word(self):
        h = EditHistory()
        h.record("hi there", 8, "x", "hi xhere")
        assert h.edited == {1}

    def test_deletion_shifts_marks(self):
        h = EditHistory()
        h.record("hi there", 3, "x", "hix there")  # insert into word 0
        assert h.edited == {0}
        h.record("hix there", 2, XI, "ix there")  # delete 'h'; word 0 survives
        assert h.edited == {0}

    def test_space_insertion_splits_word(self):
        h = EditHistory()
        h.record("there", 6, "x", "thxere")
        assert h.edited == {0}
        h.record("thxere", 5, " ", "th xere")  # split: both halves marked
        assert h.edited == {0, 1}

    def test_noop_ignored(self):
        h = EditHistory()
        h.record("abc", 2, "a", "abc")
        assert h.edited == set()

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(alphabet="ab ", max_size=12),
        st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(("a", "b", " ", XI))), max_size=10),
    )
    def test_matches_index_shifting_reference(self, s, steps):
        # spaces split and join words, the sentinel deletes, and repeats are no-ops
        history, reference = EditHistory(), ReferenceEditHistory()
        for r, c in steps:
            i = 1 + r % (2 * len(s) + 1)
            t = single_edit(s, i, c)
            history.record(s, i, c, t)
            reference.record(s, i, c, t)
            assert history.edited == reference.edited
            s = t


class PositionLogOracle(CharCountOracle):
    """Logs the positions of every edit request it scores, one list per request."""

    def __init__(self, target="b"):
        super().__init__(target)
        self.requests = []

    def _score_requests(self, requests):
        self.requests += [[int(i) for i in positions] for _, positions, _ in requests]
        return super()._score_requests(requests)


class TestPreselect:
    @pytest.mark.parametrize("attack", [charmer_attack, random_position_baseline])
    def test_edits_stay_in_the_top_segment(self, attack):
        # label 1: masking "bbb" zeroes the class-1 score, so that segment
        # produces the highest loss and is the one kept
        oracle = PositionLogOracle()
        config = AttackConfig(alphabet=ALPHA_AB, n=5, k=3, segment_preselect=1)
        outcome = attack(oracle, "aa bbb aa", 1, config)
        assert outcome.trace
        # word "bbb" spans chars 4..6 -> expanded 7..13, and it only shrinks; every probe and candidate lies there
        assert all(7 <= step.position <= 13 for step in outcome.trace)
        positions = [i for request in oracle.requests for i in request]
        assert positions and all(7 <= i <= 13 for i in positions)

    def test_few_segments_allows_everything(self):
        # two words and m = 2: no segment is cut, so the first probes cover all 17 positions of "hi there"
        oracle = PositionLogOracle()
        config = AttackConfig(alphabet=ALPHA_AB, n=5, k=1, segment_preselect=2)
        charmer_attack(oracle, "hi there", 0, config)
        assert set(oracle.requests[0]) == set(range(1, 18))

    @pytest.mark.parametrize("m", [2, 3])
    def test_few_segments_spend_no_mask_query(self, m):
        def run(segments):
            config = AttackConfig(alphabet=ALPHA_AB, n=3, k=2, segment_preselect=segments)
            return charmer_attack(CharCountOracle("b"), "aa bbb", 1, config)

        preselected, plain = run(m), run(None)
        assert (preselected.queries, preselected.trace) == (plain.queries, plain.trace)


class TestGreedyLoop:
    def test_success_on_easy_oracle(self):
        # label 0, class-1 score counts 'b': one inserted 'b' flips it
        config = AttackConfig(alphabet=ALPHA_AB, n=5, k=3)
        outcome = charmer_attack(CharCountOracle("b"), "aaa", 0, config)
        assert outcome.success
        assert outcome.edits_used == 1
        assert outcome.final_loss >= 0
        assert levenshtein("aaa", outcome.adversarial) <= 1

    def test_trace_loss_monotone(self, desk_oracle, desk_alphabet, attackable_records):
        config = AttackConfig(alphabet=desk_alphabet, n=10, k=6)
        for record in attackable_records[:8]:
            outcome = charmer_attack(desk_oracle, record.text, record.label, config)
            losses = [step.loss for step in outcome.trace]
            assert all(b >= a for a, b in zip(losses, losses[1:]))
            assert levenshtein(record.text, outcome.adversarial) <= len(outcome.trace)

    @pytest.mark.parametrize("attack", [charmer_attack, exhaustive_k1])
    def test_trace_replays_to_adversarial(self, attack, desk_oracle, desk_alphabet, attackable_records):
        config = AttackConfig(alphabet=desk_alphabet, n=10, k=6)
        record = attackable_records[0]
        outcome = attack(desk_oracle, record.text, record.label, config)
        assert outcome.trace
        cur = record.text
        for step in outcome.trace:
            cur = single_edit(cur, step.position, step.char)
        assert cur == outcome.adversarial

    def test_query_accounting(self):
        inner = BatchLogOracle(CharCountOracle("b"))
        config = AttackConfig(alphabet=ALPHA_AB, n=2, k=3)
        outcome = charmer_attack(inner, "aaa", 0, config)
        # one probe batch of 2*3+1=7, then one candidate batch
        assert inner.batch_sizes[0] == 7
        assert outcome.queries == sum(inner.batch_sizes)

    def test_fast_mode_batch_shape(self):
        inner = BatchLogOracle(ConstantOracle())
        config = AttackConfig(alphabet=ALPHA_AB, n=1, k=2)
        charmer_attack(inner, "abab", 0, config)
        # per iteration: probes 2|s'|+1, then at most |Γ|+1 candidates
        assert inner.batch_sizes[0] == 9
        assert inner.batch_sizes[1] <= len(ALPHA_AB.chars) + 1

    def test_budget_exhaustion(self):
        config = AttackConfig(alphabet=ALPHA_AB, n=5, k=10, budget=7)
        outcome = charmer_attack(ConstantOracle(), "aaa", 0, config)
        # probes fit exactly; the candidate batch does not
        assert not outcome.success
        assert outcome.queries <= 7
        assert outcome.adversarial == "aaa"
        assert outcome.edits_used == 0

    def test_constrained_to_empty_terminates(self):
        config = AttackConfig(
            alphabet=Alphabet(("É",)), n=5, k=3,
            constraints=PjcConstraints(loweng=True),
        )
        # every real edit is blocked by loweng; only the no-op survives, so
        # the loop can never make progress and must still terminate cleanly
        outcome = charmer_attack(ConstantOracle(), "É", 0, config)
        assert not outcome.success
        assert outcome.adversarial == "É"

    def test_budget_never_exceeded(self, desk_oracle, desk_alphabet, attackable_records):
        record = attackable_records[0]
        config = AttackConfig(alphabet=desk_alphabet, n=20, k=10, budget=200)
        outcome = charmer_attack(desk_oracle, record.text, record.label, config)
        assert outcome.queries <= 200


class TestEquivalenceAndBaselines:
    def test_full_n_k1_matches_exhaustive(self, desk_oracle, desk_alphabet, attackable_records):
        for record in attackable_records[:12]:
            n_full = 2 * len(record.text) + 1
            config = AttackConfig(alphabet=desk_alphabet, n=n_full, k=1)
            greedy = charmer_attack(desk_oracle, record.text, record.label, config)
            best = exhaustive_k1(desk_oracle, record.text, record.label, config)
            assert greedy.adversarial == best.adversarial
            assert greedy.final_loss == pytest.approx(best.final_loss, abs=1e-12)

    @pytest.mark.parametrize("budget", [1, 5])
    def test_exhaustive_refuses_a_neighborhood_past_the_budget(self, desk_oracle, desk_alphabet, attackable_records, budget):
        record = attackable_records[0]
        inner = BatchLogOracle(desk_oracle)
        outcome = exhaustive_k1(inner, record.text, record.label, AttackConfig(alphabet=desk_alphabet, budget=budget))
        assert inner.batch_sizes == []
        assert (outcome.adversarial, outcome.success, outcome.edits_used) == (record.text, False, 0)
        assert (outcome.final_loss, outcome.queries, outcome.trace) == (None, 0, [])

    def test_exhaustive_within_the_budget(self, desk_oracle, desk_alphabet, attackable_records):
        record = attackable_records[0]
        size = len(generate_neighbors(record.text, desk_alphabet))
        free = exhaustive_k1(desk_oracle, record.text, record.label, AttackConfig(alphabet=desk_alphabet))
        exact = exhaustive_k1(desk_oracle, record.text, record.label, AttackConfig(alphabet=desk_alphabet, budget=size))
        assert exact.queries == free.queries == size
        assert (exact.adversarial, exact.final_loss) == (free.adversarial, free.final_loss)

    def test_random_baseline_deterministic(self, desk_oracle, desk_alphabet, attackable_records):
        record = attackable_records[0]
        config = AttackConfig(alphabet=desk_alphabet, n=3, k=4, seed=11)
        a = random_position_baseline(desk_oracle, record.text, record.label, config)
        b = random_position_baseline(desk_oracle, record.text, record.label, config)
        assert a.adversarial == b.adversarial
        assert [s.loss for s in a.trace] == [s.loss for s in b.trace]

    def test_random_full_n_equals_charmer_full_n(self, desk_oracle, desk_alphabet, attackable_records):
        # with n covering every position both variants search the same set
        record = attackable_records[1]
        n_full = 2 * (len(record.text) + 10) + 1
        config = AttackConfig(alphabet=desk_alphabet, n=n_full, k=2)
        a = charmer_attack(desk_oracle, record.text, record.label, config)
        b = random_position_baseline(desk_oracle, record.text, record.label, config)
        assert a.adversarial == b.adversarial

    def test_config_validation(self, desk_alphabet):
        with pytest.raises(ValueError):
            AttackConfig(alphabet=desk_alphabet, n=0)
        with pytest.raises(ValueError):
            AttackConfig(alphabet=desk_alphabet, k=0)
        # counts are ints: a float, a bool or a string would fail later as a bare TypeError, or not at all
        for name in ("n", "k", "budget", "segment_preselect"):
            for bad in (2.5, 2.0, True, "3", None if name in ("n", "k") else 0.5):
                with pytest.raises(ValueError, match=name):
                    AttackConfig(alphabet=desk_alphabet, **{name: bad})

    @pytest.mark.parametrize(
        "fields", [{"budget": -5}, {"budget": 0}, {"segment_preselect": 0}, {"budget": -5, "segment_preselect": 0}]
    )
    def test_budget_and_segments_must_be_positive(self, desk_alphabet, fields):
        with pytest.raises(ValueError):
            AttackConfig(alphabet=desk_alphabet, **fields)
        AttackConfig(alphabet=desk_alphabet, budget=1, segment_preselect=1)


class TestLossOrder:
    """The array rankings the attack uses equal the key formulas they replaced."""

    @given(
        st.lists(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0)) | st.floats(-1e3, 1e3), min_size=1, max_size=24),
        st.integers(min_value=1, max_value=30),
    )
    def test_stable_argsort_and_argmax(self, losses, n):
        arr = np.array(losses)
        ranked = sorted(range(len(losses)), key=lambda j: (-losses[j], j))
        assert np.argsort(-arr, kind="stable")[:n].tolist() == ranked[:n]
        assert int(np.argmax(arr)) == max(range(len(losses)), key=lambda j: (losses[j], -j))


class TestExactTies:
    """Equal n-gram multisets tie exactly, and the lowest index wins."""

    SENTENCE = "abcab cabca bcabc"
    ALPHABET = Alphabet(tuple("abcxyz "))

    @staticmethod
    def exact_losses(weights, bias, texts, y):
        # exact rational sums of the float weights, independent of the classifier
        out = []
        for t in texts:
            idx, val = reference_hashed_counts(t, (1,), weights.shape[1])
            z = [
                sum((Fraction(float(w)) * int(v) for w, v in zip(weights[c, idx], val)), Fraction(float(bias[c])))
                for c in range(2)
            ]
            out.append(z[1 - y] - z[y])
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_lowest_index_wins(self, seed):
        rng = np.random.default_rng(seed)
        weights, bias = rng.normal(size=(2, 64)), rng.normal(size=2)
        oracle = BuiltinOracle(BuiltinClassifier((1,), 64, weights, bias))
        s, y = self.SENTENCE, 1
        neighbors = generate_neighbors(s, self.ALPHABET)
        losses = self.exact_losses(weights, bias, neighbors, y)
        best = max(losses)
        tied = [j for j, v in enumerate(losses) if v == best]
        assert len(tied) >= 2  # a real tie between distinct sentences
        expected = neighbors[tied[0]]
        config = AttackConfig(alphabet=self.ALPHABET, n=2 * len(s) + 1, k=1)
        assert exhaustive_k1(oracle, s, y, config).adversarial == expected
        assert charmer_attack(oracle, s, y, config).adversarial == expected
