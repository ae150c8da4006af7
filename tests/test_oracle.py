import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmer.harness import join_premise
from charmer.oracle import CountingOracle, EditRequest, Oracle, OracleError, cw_loss, is_adversarial
from charmer.sentence import SentenceError, single_edit
from reference import reference_cw_loss

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# signed zeros, subnormals and a few repeats, so that rows tie often
tie_prone = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0)) | finite


class RecordingOracle(Oracle):
    """Echoes a fixed score per sentence while logging chunk sizes."""

    def __init__(self, num_classes=2, batch_limit=512):
        self.num_classes = num_classes
        self.batch_limit = batch_limit
        self.chunks = []
        self.batches = []

    def score_batch(self, sentences):
        self.batches.append(len(list(sentences)))
        return super().score_batch(sentences)

    def _score_chunk(self, sentences):
        self.chunks.append(len(sentences))
        return [[float(len(s)), 0.0] + [0.0] * (self.num_classes - 2) for s in sentences]


class TestCwLoss:
    @pytest.mark.parametrize(
        "scores,y,expected",
        [
            ([0.2, 0.8], 1, -0.6),
            ([0.5, 0.5], 0, 0.0),
            ([1.0, 3.0, 2.0], 0, 2.0),
        ],
    )
    def test_worked_examples(self, scores, y, expected):
        assert cw_loss(scores, y) == pytest.approx(expected)

    def test_invalid_label(self):
        with pytest.raises(OracleError):
            cw_loss([0.1, 0.9], 2)
        with pytest.raises(OracleError):
            cw_loss([0.1, 0.9], -1)

    def test_single_class_rejected(self):
        with pytest.raises(OracleError):
            cw_loss([0.5], 0)

    @given(st.lists(finite, min_size=2, max_size=6), st.data())
    def test_scale_and_shift(self, scores, data):
        y = data.draw(st.integers(min_value=0, max_value=len(scores) - 1))
        alpha = data.draw(st.floats(min_value=0.1, max_value=10))
        shift = data.draw(finite)
        base = cw_loss(scores, y)
        assert cw_loss([alpha * v for v in scores], y) == pytest.approx(alpha * base, rel=1e-9, abs=1e-6)
        assert cw_loss([v + shift for v in scores], y) == pytest.approx(base, rel=1e-9, abs=1e-6)


class TestBatchCwLoss:
    @settings(max_examples=300)
    @given(st.integers(min_value=2, max_value=5).flatmap(
        lambda c: st.lists(st.lists(tie_prone, min_size=c, max_size=c), min_size=1, max_size=12)
    ), st.integers(min_value=0, max_value=4))
    @example([[0.0, -0.0, 0.0]], 0)  # the max of the other classes is -0.0, taken first
    def test_batch_equals_rows_bit_for_bit(self, rows, y):
        y %= len(rows[0])
        batch = cw_loss(np.array(rows), y)
        assert batch.shape == (len(rows),)
        for row, loss in zip(rows, batch.tolist()):
            bits = struct.pack("<d", loss)
            assert bits == struct.pack("<d", cw_loss(row, y))
            assert bits == struct.pack("<d", reference_cw_loss(row, y))

    def test_first_maximum_keeps_the_zero_sign(self):
        # np.max over the other classes would give +0.0 here
        assert struct.pack("<d", cw_loss([0.0, -0.0, 0.0], 0)) == struct.pack("<d", -0.0 - 0.0)
        assert str(cw_loss(np.array([[0.0, -0.0, 0.0]]), 0)[0]) == "-0.0"

    def test_batch_checks(self):
        assert cw_loss(np.empty((0, 3)), 2).shape == (0,)
        assert is_adversarial(np.array([[0.2, 0.8], [0.5, 0.5]]), 0).tolist() == [True, True]
        for bad, y in (
            (np.zeros((2, 2, 2)), 0),  # not one row or one batch
            (np.zeros((2, 1)), 0),  # one class
            (np.zeros((2, 3)), 3),  # label out of range
            (np.array([[0.0, np.inf]]), 0),
            ([[0.0, 1.0], [0.0]], 0),  # ragged
            ([["0.0", "1.0"]], 0),  # not numbers
            ([[0.0, None]], 0),
        ):
            with pytest.raises(OracleError):
                cw_loss(bad, y)


class TestPerRowLabels:
    """``cw_loss`` of a batch with a label per row, as the lockstep loss pass calls it."""

    @settings(max_examples=300)
    @given(st.integers(min_value=2, max_value=5).flatmap(
        lambda c: st.lists(
            st.tuples(st.lists(tie_prone, min_size=c, max_size=c), st.integers(0, c - 1)), min_size=1, max_size=12
        )
    ))
    @example([([0.0, -0.0, 0.0], 0), ([-0.0, 0.0, -0.0], 1), ([0.0, -0.0, -0.0], 2)])  # tied signed zeros
    @example([([-0.0, 0.0, -0.0, 0.0], 2), ([0.0, -0.0, -0.0, 0.0], 0)])
    def test_equal_per_row_scalar_calls_bit_for_bit(self, rows):
        scores = np.array([row for row, _ in rows])
        labels = np.array([y for _, y in rows], dtype=np.int64)
        losses = cw_loss(scores, labels)
        assert losses.shape == (len(rows),)
        for (row, y), loss in zip(rows, losses.tolist()):
            assert struct.pack("<d", loss) == struct.pack("<d", cw_loss(row, y))

    def test_no_rows_have_no_losses(self):
        assert cw_loss(np.empty((0, 3)), np.empty(0, dtype=np.int64)).shape == (0,)

    def test_a_non_finite_row_raises(self):
        with pytest.raises(OracleError, match="scores must be finite"):
            cw_loss(np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 1.0]]), np.array([2, 0]))

    def test_a_label_out_of_range_or_a_count_that_is_not_the_rows_raises(self):
        with pytest.raises(OracleError, match="label 3 out of range for 3 classes"):
            cw_loss(np.zeros((3, 3)), np.array([0, 3, 5]))
        with pytest.raises(OracleError, match=r"2 labels for scores of shape \(3, 3\)"):
            cw_loss(np.zeros((3, 3)), np.array([0, 1]))


class TestIsAdversarial:
    @pytest.mark.parametrize(
        "scores,y,expected",
        [
            ([0.2, 0.8], 1, False),
            ([0.5, 0.5], 0, True),  # tie counts as misclassification
            ([1.0, 3.0, 2.0], 0, True),
        ],
    )
    def test_examples(self, scores, y, expected):
        assert is_adversarial(scores, y) is expected

    @given(st.lists(finite, min_size=2, max_size=6), st.data())
    def test_matches_argmax_with_ties(self, scores, data):
        y = data.draw(st.integers(min_value=0, max_value=len(scores) - 1))
        top = max(scores)
        misclassified = scores.index(top) != y or scores.count(top) > 1
        assert is_adversarial(scores, y) == misclassified


class TestBatching:
    def test_empty_batch(self):
        assert RecordingOracle().score_batch([]).shape == (0, 2)

    def test_determinism(self):
        oracle = RecordingOracle()
        assert oracle.score_batch(["abc", "abc"]).tolist() == [[3.0, 0.0], [3.0, 0.0]]

    def test_split_transparency(self):
        limited = RecordingOracle(batch_limit=3)
        wide = RecordingOracle(batch_limit=100)
        sentences = [f"s{i}" * (i + 1) for i in range(10)]
        assert limited.score_batch(sentences).tobytes() == wide.score_batch(sentences).tobytes()
        assert limited.chunks == [3, 3, 3, 1]
        half = limited.score_batch(sentences[:5]).tolist() + limited.score_batch(sentences[5:]).tolist()
        assert half == wide.score_batch(sentences).tolist()

    @pytest.mark.parametrize(
        "rows",
        [
            lambda n: [[1.0, 0.0]],  # one row for the whole chunk
            lambda n: [[1.0, 0.0]] * (n - 1) + [[1.0]],  # ragged
            lambda n: [["1.0", "0.0"]] * n,  # strings
            lambda n: [[1.0, None]] * n,
            lambda n: [1.0] * n,  # no class axis
        ],
        ids=["short", "ragged", "strings", "none", "flat"],
    )
    def test_malformed_chunks_raise_oracle_error(self, rows):
        class Plugin(Oracle):
            num_classes = 2

            def _score_chunk(self, sentences):
                return rows(len(sentences))

        with pytest.raises(OracleError):
            Plugin().score_batch(["a", "bb", "ccc"])

    def test_chunks_of_different_widths_raise_oracle_error(self):
        class Widening(RecordingOracle):
            def _score_chunk(self, sentences):
                return [[0.0] * (len(s) + 1) for s in sentences]

        with pytest.raises(OracleError):
            Widening(batch_limit=1).score_batch(["a", "bb"])

    def test_counting_wrapper(self):
        inner = RecordingOracle()
        counting = CountingOracle(inner)
        counting.score_batch(["a", "bb"])
        counting.score_batch(["ccc"])
        assert counting.queries == 3

    def test_counting_skips_batches_the_inner_oracle_refuses(self, desk_oracle):
        class Refusing(RecordingOracle):
            def _score_chunk(self, sentences):
                if "bad" in sentences:
                    raise OracleError("refused")
                return super()._score_chunk(sentences)

        for inner, bad in ((Refusing(), "bad"), (desk_oracle, "a\ud800b")):
            counting = CountingOracle(inner)
            counting.score_batch(["a"])
            with pytest.raises(OracleError):
                counting.score_batch(["ok", bad])
            assert counting.queries == 1

    def test_paired_prefix(self):
        scores = RecordingOracle().score_batch(join_premise("pre", ["xy"]))
        # length of "pre" + newline + "xy"
        assert scores.tolist() == [[6.0, 0.0]]

    def test_a_plugin_that_overrides_score_edits_is_refused(self):
        # score_edits is one request of _score_requests; the calls that score many requests would bypass it
        with pytest.raises(TypeError, match="override _score_requests"):

            class ChecksEachRequest(RecordingOracle):
                def score_edits(self, base, positions, codes):
                    return super().score_edits(base, positions, codes)


class EditRecordingOracle(RecordingOracle):
    """Logs every sentence it scores and every edit request."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sentences = []
        self.edits = []

    def _score_chunk(self, sentences):
        self.sentences += sentences
        return super()._score_chunk(sentences)

    def _score_requests(self, requests):
        self.edits += [(base, list(positions), list(codes)) for base, positions, codes in requests]
        return super()._score_requests(requests)


class TestScoreEdits:
    def test_default_is_score_batch_of_the_edited_sentences(self):
        oracle = EditRecordingOracle()
        codes = [ord("x"), 0, ord("b"), ord("😀"), 0]
        rows = oracle.score_edits("ab", np.array([1, 2, 4, 5, 3]), np.array(codes))
        assert oracle.sentences == ["xab", "b", "ab", "ab😀", "ab"]
        assert rows.tobytes() == oracle.score_batch(oracle.sentences[:]).tobytes()
        assert oracle.batches == [5, 5]

    def test_counting_counts_rows(self):
        inner = EditRecordingOracle()
        counting = CountingOracle(inner)
        counting.score_edits("ab", np.array([1, 2]), np.array([ord("x"), 0]))
        counting.score_edits("ab", np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        counting.score_edits("ab", np.array([1, 3, 5]), np.array([ord("y")] * 3))
        assert counting.queries == 5
        assert inner.edits == [("ab", [1, 2], [ord("x"), 0]), ("ab", [], []), ("ab", [1, 3, 5], [ord("y")] * 3)]

    def test_counting_skips_edits_the_inner_oracle_refuses(self, desk_oracle):
        for inner in (EditRecordingOracle(), desk_oracle):
            counting = CountingOracle(inner)
            with pytest.raises(SentenceError, match="out of range"):
                counting.score_edits("abc", [9], [65])
            with pytest.raises(SentenceError, match="2 edit positions but 1 codes"):
                counting.score_edits("abc", [1, 2], [65])
            assert counting.queries == 0
            counting.score_edits("abc", [1], [65])
            assert counting.queries == 1

    @pytest.mark.parametrize(
        "positions, codes, message",
        [
            ([1], [97.9], "codes must be integers, not float64"),
            ([1.0], [97], "positions must be integers, not float64"),
            (np.array([1], dtype=np.float32), [97], "positions must be integers, not float32"),
            ([True], [97], "positions must be integers, not bool"),
            ([1], [False], "codes must be integers, not bool"),
            ([1], [-1], "the code point -0x1 is not a Unicode scalar value"),
            ([1], [0xD800], "the code point 0xd800 is not a Unicode scalar value"),
            ([1, 3], [97, 0x110000], "the code point 0x110000 is not a Unicode scalar value"),
        ],
    )
    def test_edits_that_are_not_integers_raise(self, desk_oracle, positions, codes, message):
        # a float code was truncated by the builtin scorer ([97.9] scored "aabc") and raised TypeError in the
        # default; code -1 raised ValueError in the default, and 0xD800 was scored there as a lone surrogate
        for oracle in (EditRecordingOracle(), desk_oracle):
            with pytest.raises(SentenceError, match=message):
                oracle.score_edits("abc", positions, codes)
            with pytest.raises(SentenceError, match=message):
                oracle._score_requests([EditRequest("abc", [1], [97]), EditRequest("abc", positions, codes)])
            empty = [EditRequest("abc", [], np.array([], dtype=np.float32)), EditRequest("abc", np.array([]), [])]
            assert oracle.score_edits("abc", [], []).shape[0] == 0 and oracle._score_requests(empty).shape[0] == 0

    def test_paired_shifts_positions_past_the_premise(self):
        inner = EditRecordingOracle()
        request = EditRequest("xy", np.array([1, 4]), np.array([ord("z"), 0]))
        rows = inner._score_requests([join_premise("pre", request)])
        assert inner.edits == [("pre\nxy", [9, 12], [ord("z"), 0])]
        assert inner.sentences == ["pre\nzxy", "pre\nx"]
        assert rows.tobytes() == inner.score_batch(join_premise("pre", ["zxy", "x"])).tobytes()

    def test_default_raises_before_it_scores_any_slice(self):
        oracle = EditRecordingOracle(batch_limit=2)
        requests = [EditRequest("ab", [1, 2, 3], [97] * 3), EditRequest("ab", [5, 6], [97] * 2)]
        with pytest.raises(SentenceError, match=r"position 6 out of range \[1, 5\]"):
            oracle._score_requests(requests)
        with pytest.raises(SentenceError, match="sentinel"):
            oracle._score_requests([requests[0], EditRequest("a\x00", [1], [97])])
        assert oracle.sentences == []
        assert oracle._score_requests(requests[:1]).shape == (3, 2) and oracle.chunks == [2, 1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="ab é😀\x00", max_size=8),
        st.lists(st.tuples(st.integers(-1, 19), st.sampled_from([0, ord("a"), ord("é"), ord("😀")])), max_size=6),
    )
    @example("ab", [(5, ord("x")), (0, 0)])
    @example("a\x00", [])
    @example("a\x00", [(1, ord("b"))])
    def test_default_edits_as_single_edit_does_row_by_row(self, base, edits):
        expected, error = [], None
        for i, c in edits:
            try:
                expected.append(single_edit(base, i, chr(c)))
            except SentenceError as exc:
                error = str(exc)
                break
        oracle = EditRecordingOracle()
        positions = np.array([i for i, _ in edits], dtype=np.int64)
        codes = np.array([c for _, c in edits], dtype=np.int64)
        if error is None:
            rows = oracle.score_edits(base, positions, codes)
            assert oracle.sentences == expected and len(rows) == len(edits)
        else:
            with pytest.raises(SentenceError) as raised:
                oracle.score_edits(base, positions, codes)
            assert str(raised.value) == error and oracle.sentences == []
