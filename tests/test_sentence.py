import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmer.sentence import (
    XI,
    _ball_lower_bound,
    Alphabet,
    BallBudgetError,
    SentenceError,
    ball_size_bounds,
    contract,
    distinct_edits,
    enumerate_ball,
    expand,
    generate_neighbors,
    levenshtein,
    single_edit,
    single_edit_rows,
)
from charmer.verify import reference_levenshtein
from reference import brute_force_ball, reference_single_edits

ALPHA_AB = Alphabet(("a", "b"))
ALPHA_A = Alphabet(("a",))

short_text = st.text(alphabet="abcdefghijklmnop", max_size=32)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("Hello", "Helo", 1),
            ("Hello", "Hallo", 1),
            ("Hello", "Helloo", 1),
            ("Hello", "Haloo", 2),
            ("", "abc", 3),
            ("abc", "abc", 0),
        ],
    )
    def test_worked_examples(self, a, b, d):
        assert levenshtein(a, b) == d

    @settings(max_examples=200)
    @given(short_text, short_text, short_text)
    def test_metric_axioms(self, a, b, c):
        dab = levenshtein(a, b)
        assert dab == reference_levenshtein(a, b)
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert levenshtein(a, c) <= dab + levenshtein(b, c)
        assert dab >= abs(len(a) - len(b))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab é😀", max_size=80), st.text(alphabet="ab é😀", max_size=80))
    @example("", "")
    @example("é😀", "")
    @example("😀", "é")
    def test_matches_reference_with_multibyte(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1024), st.integers(0, 1024), st.integers(0, 20), st.randoms(use_true_random=False))
    @example(1024, 1024, 0, random.Random(0))
    @example(1024, 1024, 5, random.Random(1))
    @example(0, 1024, 0, random.Random(2))
    def test_long_strings_match_reference(self, n, m, edits, rng):
        a = "".join(rng.choice("ab é😀") for _ in range(n))
        if edits:  # a few edits of a, or else an unrelated string
            b = a
            for _ in range(edits):
                i = rng.randrange(len(b) + 1)
                b = b[:i] + rng.choice("ab é😀") + b[i + 1 :] if rng.random() < 0.5 else b[:i] + b[i + 1 :]
        else:
            b = "".join(rng.choice("ab é😀") for _ in range(m))
        assert levenshtein(a, b) == reference_levenshtein(a, b)


class TestExpandContract:
    def test_expand_hello(self):
        assert expand("Hello") == XI + "H" + XI + "e" + XI + "l" + XI + "l" + XI + "o" + XI

    def test_expand_base_cases(self):
        assert expand("") == XI
        assert expand("ab") == XI + "a" + XI + "b" + XI

    def test_contract_worked_examples(self):
        assert contract(XI + "H" + XI + "eel" + XI + "l" + XI + "o" + XI) == "Heello"
        assert contract(XI + "H" + XI + "e" + XI + "l" + XI + XI + XI + "o" + XI) == "Helo"
        assert contract(XI + "H" + XI + "el" + XI + "lo" + XI) == "Hello"
        assert contract("") == ""

    def test_expand_rejects_sentinel(self):
        with pytest.raises(SentenceError):
            expand("a" + XI + "b")

    @given(short_text)
    def test_round_trip_and_length(self, s):
        e = expand(s)
        assert contract(e) == s
        assert len(e) == 2 * len(s) + 1
        assert all(e[i] == XI for i in range(0, len(e), 2))


class TestSingleEdit:
    def test_nonunique_deletion(self):
        assert single_edit("Hello", 6, XI) == "Helo"
        assert single_edit("Hello", 8, XI) == "Helo"

    def test_identity_replacement(self):
        for j in range(1, 6):
            assert single_edit("Hello", 2 * j, "Hello"[j - 1]) == "Hello"

    def test_out_of_range(self):
        with pytest.raises(SentenceError):
            single_edit("ab", 0, "a")
        with pytest.raises(SentenceError):
            single_edit("ab", 6, "a")

    def test_rejects_sentinel(self):
        with pytest.raises(SentenceError):
            single_edit("a" + XI, 1, "b")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="ab é€😀\U00010348", max_size=8), min_size=1, max_size=6), st.data())
    def test_rows_equal_single_edit(self, texts, data):
        width = max(map(len, texts)) + data.draw(st.integers(1, 3))
        rows = np.zeros((len(texts), width), dtype=np.int32)
        for r, t in enumerate(texts):
            rows[r, : len(t)] = [ord(c) for c in t]
        lens = np.array([len(t) for t in texts])
        ends = [st.one_of(st.just(1), st.just(2 * len(t) + 1), st.integers(1, 2 * len(t) + 1)) for t in texts]
        positions = [data.draw(end) for end in ends]  # both ends, or anywhere
        chars = [data.draw(st.sampled_from("a😀" + XI + t)) for t in texts]  # a replacement may keep the character
        out, new_lens = single_edit_rows(rows, lens, np.array(positions), np.array([ord(c) for c in chars]))
        for r, t in enumerate(texts):
            edited = single_edit(t, positions[r], chars[r])
            assert new_lens[r] == len(edited)
            assert out[r].tolist() == [ord(c) for c in edited] + [0] * (width - len(edited))
        assert rows.tolist() == [[ord(c) for c in t] + [0] * (width - len(t)) for t in texts]  # left as it was

    def test_rows_out_of_range_or_too_narrow(self):
        rows, lens = np.array([[ord("a"), ord("b")]], dtype=np.int32), np.array([2])
        for position in (0, 6):
            with pytest.raises(SentenceError):
                single_edit_rows(rows, lens, np.array([position]), np.array([ord("c")]))
        with pytest.raises(SentenceError):  # an insertion into a full row
            single_edit_rows(rows, lens, np.array([1]), np.array([ord("c")]))
        out, new_lens = single_edit_rows(rows, lens, np.array([2]), np.array([0]))
        assert out.tolist() == [[ord("b"), 0]] and new_lens.tolist() == [1]

    @given(
        st.text(alphabet="ab é€😀", max_size=16),
        st.integers(min_value=1),
        st.sampled_from("aé€😀 " + XI),  # alphabet, test character, sentinel
    )
    @example("", 1, "a")
    @example("", 1, XI)
    @example("é€😀", 7, XI)
    def test_distance_at_most_one(self, s, i, c):
        e = expand(s)
        for slot in (1, 1 + (i - 1) % len(e), len(e)):
            edited = single_edit(s, slot, c)
            assert edited == contract(e[: slot - 1] + c + e[slot:])
            assert levenshtein(s, edited) <= 1

    def test_distinct_edits_keep(self):
        # "aab" is reachable from slots 1 and 3; rejected at 1, it enters at 3
        got = distinct_edits(["ab"], [[1, 3]], ("a",), keeps=[[[False], [True]]])
        assert got.dtype == np.int64 and got.tolist() == [[0, 3, ord("a")]]


@st.composite
def edit_grids(draw):
    """A sentence, positions (repeats allowed, in any order), replacement chars and an optional keep rule.

    The rule rejects a set of (position, char) pairs, so it is the same for
    every grid cell that holds the same pair.
    """
    s = draw(st.text(alphabet="aab é€😀", max_size=10))
    top = 2 * len(s) + 1
    positions = draw(st.lists(st.one_of(st.just(1), st.just(top), st.integers(1, top)), max_size=8))
    chars = draw(st.lists(st.sampled_from("ab é€😀x" + XI), max_size=6))
    pairs = st.tuples(st.sampled_from(positions), st.sampled_from(chars)) if positions and chars else st.nothing()
    rejected = draw(st.none() | st.sets(pairs))
    return s, positions, chars, rejected


class TestDistinctEdits:
    """``distinct_edits`` rows equal the string-built ``reference_single_edits``."""

    @settings(max_examples=500, deadline=None)
    @given(edit_grids())
    @example(("", [1], ["a", XI], None))
    @example(("aaab", [1, 2, 3, 4, 5, 6, 7, 8, 9], ["a", "b", XI], None))
    @example(("ab é€😀", list(range(1, 14)), list("ab é€😀" + XI), None))
    @example(("aab", [7, 5, 3, 1], ["a", "b"], {(5, "a")}))
    def test_rows_are_the_reference_edits(self, grid):
        s, positions, chars, rejected = grid
        keep = ref_keep = None
        if rejected is not None:
            keep = [[(i, c) not in rejected for c in chars] for i in positions]
            ref_keep = lambda cand, i, c: (i, c) not in rejected  # noqa: E731
        rows = distinct_edits([s], [positions], chars, [keep])
        assert rows.dtype == np.int64 and rows.shape == (len(rows), 3) and not rows[:, 0].any()
        got = [(single_edit(s, i, chr(c)), i, chr(c)) for _, i, c in rows.tolist()]
        assert got == list(reference_single_edits(s, positions, chars, ref_keep))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(edit_grids(), min_size=1, max_size=8),
        st.lists(st.sampled_from("ab é€😀x" + XI), max_size=6),
        st.data(),
    )
    def test_each_record_of_many_is_the_reference_in_order(self, grids, chars, data):
        # one call over every base, with one list of chars, against each base's reference
        bases, positions = [s for s, _, _, _ in grids], [at for _, at, _, _ in grids]
        rejected = [
            data.draw(st.none() | st.sets(st.tuples(st.sampled_from(at), st.sampled_from(chars))))
            if at and chars
            else data.draw(st.none() | st.just(set()))
            for at in positions
        ]
        keeps = [
            None if no is None else [[(i, c) not in no for c in chars] for i in at] for at, no in zip(positions, rejected)
        ]
        rows = distinct_edits(bases, positions, chars, keeps)
        assert rows.dtype == np.int64 and rows.shape == (len(rows), 3)
        assert rows[:, 0].tolist() == sorted(rows[:, 0].tolist())
        for r, (s, at, no) in enumerate(zip(bases, positions, rejected)):
            ref_keep = None if no is None else lambda cand, i, c, no=no: (i, c) not in no  # noqa: E731
            got = [(single_edit(s, i, chr(c)), i, chr(c)) for i, c in rows[rows[:, 0] == r, 1:].tolist()]
            assert got == list(reference_single_edits(s, at, chars, ref_keep))

    def test_runs_take_their_leftmost_form(self):
        # the deletions of "aa", the insertions of "a" next to "aa", and every no-op
        rows = distinct_edits(["aab"], [[4, 2, 5, 3, 1, 7, 6]], ["a", XI])[:, 1:]
        assert rows.tolist() == [[4, ord("a")], [4, 0], [5, ord("a")], [7, ord("a")], [6, ord("a")], [6, 0]]

    @pytest.mark.parametrize("s,positions", [("ab", [0]), ("ab", [6]), ("a" + XI, [1]), (XI, [])])
    def test_bad_input_raises_as_single_edit(self, s, positions):
        with pytest.raises(SentenceError):
            distinct_edits([s], [positions], ["a"])

    @pytest.mark.parametrize(
        "bases,positions",
        [
            (["ab", "a" + XI, "abc"], [[1], [1], [99]]),  # the sentinel comes first
            (["ab", "abc", "a" + XI], [[1], [99], [1]]),  # the range does
            ([XI, "ab"], [[], [0]]),  # a base with the sentinel and no positions
            (["", "ab", "a" + XI + "b"], [[1], [5, 6], [2]]),
        ],
    )
    def test_the_first_bad_record_raises_as_it_does_alone(self, bases, positions):
        alone = []
        for s, at in zip(bases, positions):
            try:
                distinct_edits([s], [at], ["a"])
            except SentenceError as exc:
                alone.append(str(exc))
        with pytest.raises(SentenceError) as together:
            distinct_edits(bases, positions, ["a"])
        assert str(together.value) == alone[0]


class TestNeighbors:
    def test_single_char_alphabet(self):
        assert set(generate_neighbors("aaa", ALPHA_A)) == {"aa", "aaa", "aaaa"}

    def test_empty_sentence(self):
        assert set(generate_neighbors("", ALPHA_AB)) == {"", "a", "b"}

    def test_ab_size_matches_brute_force(self):
        got = set(generate_neighbors("ab", ALPHA_AB))
        assert got == brute_force_ball("ab", ("a", "b"), 1)
        assert len(got) == 9

    def test_contains_self_and_dedup(self):
        neighbors = generate_neighbors("ab", ALPHA_AB)
        assert "ab" in neighbors
        assert len(neighbors) == len(set(neighbors))

    @pytest.mark.parametrize("chars", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_exact_vs_brute_force(self, chars):
        import itertools

        alphabet = Alphabet(chars)
        for length in range(5):
            for combo in itertools.product(chars, repeat=length):
                s = "".join(combo)
                e = expand(s)
                slow = [
                    contract(e[: i - 1] + c + e[i:])
                    for i in range(1, len(e) + 1)
                    for c in alphabet.replacement_chars()
                ]
                got = generate_neighbors(s, alphabet)
                assert got == list(dict.fromkeys(slow))  # order: first occurrence wins
                assert set(got) == brute_force_ball(s, chars, 1)


class TestBall:
    def test_single_char_alphabet_sizes(self):
        assert len(enumerate_ball("aaa", ALPHA_A, 2)) == 5

    def test_k1_equals_neighbors(self):
        assert set(enumerate_ball("ab", ALPHA_AB, 1)) == set(generate_neighbors("ab", ALPHA_AB))

    def test_k2_vs_brute_force(self):
        assert set(enumerate_ball("ab", ALPHA_AB, 2)) == brute_force_ball("ab", ("a", "b"), 2)

    def test_monotone_nesting(self):
        b1 = set(enumerate_ball("ab", ALPHA_AB, 1))
        b2 = set(enumerate_ball("ab", ALPHA_AB, 2))
        assert b1 <= b2

    def test_budget_refusal(self):
        with pytest.raises(BallBudgetError):
            enumerate_ball("abab", Alphabet(tuple("abcd")), 3, budget=100)

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="abcé", max_size=4),
        st.sampled_from(["a", "ab", "abc", "b"]),
        st.integers(min_value=1, max_value=3),
    )
    @example("", "a", 3)
    @example("éé", "ab", 2)
    @example("abca", "abc", 3)
    def test_lower_bound_and_exact_budget(self, s, chars, k):
        # characters outside Γ ("c" for small alphabets, "é" always) included
        alphabet = Alphabet(tuple(chars))
        ball = enumerate_ball(s, alphabet, k, budget=10**9)
        assert _ball_lower_bound(s, alphabet, k) <= len(ball)
        assert enumerate_ball(s, alphabet, k, budget=len(ball)) == ball
        with pytest.raises(BallBudgetError):
            enumerate_ball(s, alphabet, k, budget=len(ball) - 1)

    def test_overflow_before_enumeration(self):
        # a bench-sized pga ball: the bound alone exceeds pga's budget
        alphabet = Alphabet(tuple("abcdefghijklmnopqrstuvw "))
        s = "the movie was good and fun"
        assert _ball_lower_bound(s, alphabet, 2) > 200_000
        with pytest.raises(BallBudgetError):
            enumerate_ball(s, alphabet, 2, budget=200_000)
        with pytest.raises(SentenceError):
            enumerate_ball("a" + XI, alphabet, 2, budget=0)


class TestBallSizeBounds:
    def test_worked_values(self):
        assert ball_size_bounds(2, 2, 1) == (3, 15)
        assert ball_size_bounds(3, 2, 2) == (7, 729)
        assert ball_size_bounds(10, 1, 3) == (7, 7)

    def test_bounds_hold_on_enumerations(self):
        for chars in [("a", "b"), ("a", "b", "c")]:
            alphabet = Alphabet(chars)
            for s in ["", "a", "ab", "aba"]:
                for k in (1, 2):
                    lower, upper = ball_size_bounds(len(s), len(chars), k)
                    size = len(enumerate_ball(s, alphabet, k))
                    assert lower <= size <= upper

    def test_invalid_inputs(self):
        with pytest.raises(SentenceError):
            ball_size_bounds(3, 0, 1)
        with pytest.raises(SentenceError):
            ball_size_bounds(3, 2, 0)


class TestAlphabetAndValidation:
    def test_sentinel_excluded(self):
        with pytest.raises(SentenceError):
            Alphabet(("a", XI))

    @pytest.mark.parametrize("test_char", ["xy", "", "😀😀", "a" + XI])
    def test_test_char_must_be_one_scalar_value(self, test_char):
        with pytest.raises(SentenceError):
            Alphabet(("a",), test_char=test_char)
        with pytest.raises(SentenceError):
            Alphabet.from_texts(["ab"], test_char=test_char)

    def test_from_texts_sorted(self):
        alphabet = Alphabet.from_texts(["ba", "ab"])
        assert alphabet.chars == ("a", "b")
        assert alphabet.fingerprint() == Alphabet.from_texts(["ab"]).fingerprint()
