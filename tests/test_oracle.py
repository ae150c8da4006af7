import pytest
from hypothesis import given
from hypothesis import strategies as st

from charmer.oracle import CountingOracle, Oracle, OracleError, PairedOracle, cw_loss, is_adversarial

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


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
        assert RecordingOracle().score_batch([]) == []

    def test_determinism(self):
        oracle = RecordingOracle()
        assert oracle.score_batch(["abc", "abc"]) == [[3.0, 0.0], [3.0, 0.0]]

    def test_split_transparency(self):
        limited = RecordingOracle(batch_limit=3)
        wide = RecordingOracle(batch_limit=100)
        sentences = [f"s{i}" * (i + 1) for i in range(10)]
        assert limited.score_batch(sentences) == wide.score_batch(sentences)
        assert limited.chunks == [3, 3, 3, 1]
        half = limited.score_batch(sentences[:5]) + limited.score_batch(sentences[5:])
        assert half == wide.score_batch(sentences)

    def test_counting_wrapper(self):
        inner = RecordingOracle()
        counting = CountingOracle(inner)
        counting.score_batch(["a", "bb"])
        counting.score_batch(["ccc"])
        assert counting.queries == 3

    def test_paired_prefix(self):
        inner = RecordingOracle()
        paired = PairedOracle(inner, premise="pre")
        scores = paired.score_batch(["xy"])
        # length of "pre" + newline + "xy"
        assert scores == [[6.0, 0.0]]


class NearRecordingOracle(RecordingOracle):
    """Records the hint of every score_near call."""

    def __init__(self):
        super().__init__()
        self.hints = []

    def score_near(self, sentences, base):
        self.hints.append((list(sentences), base))
        return super().score_near(sentences, base)


class TestScoreNear:
    def test_default_is_score_batch(self):
        oracle = RecordingOracle()
        assert oracle.score_near(["a", "bb"], "anything") == oracle.score_batch(["a", "bb"])
        assert oracle.batches == [2, 2]

    def test_counting_counts_sentences_not_the_hint(self):
        inner = NearRecordingOracle()
        counting = CountingOracle(inner)
        counting.score_near(["a", "bb"], "base")
        counting.score_near([], "base")
        assert counting.queries == 2
        assert inner.hints == [(["a", "bb"], "base"), ([], "base")]

    def test_paired_prefixes_premise_to_both(self):
        inner = NearRecordingOracle()
        paired = PairedOracle(inner, premise="pre")
        assert paired.score_near(["xy"], "xz") == [[6.0, 0.0]]
        assert inner.hints == [(["pre\nxy"], "pre\nxz")]
