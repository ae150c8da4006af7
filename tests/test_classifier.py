import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmer import classifier as classifier_module
from charmer.classifier import (
    MAGIC,
    BuiltinClassifier,
    BuiltinOracle,
    TrainConfig,
    feature_matrix,
    mixture_loss_and_grad,
    train_builtin,
)
from charmer.oracle import OracleError, cw_loss
from charmer.synth import make_keyword_corpus
from reference import (
    central_difference_gradient,
    feature_mixture_loss_and_grad,
    reference_hashed_counts,
)

SMALL = TrainConfig(feature_dim=4096, steps=200, seed=0)


class TestFeatures:
    def test_deterministic_and_counted(self):
        X1 = feature_matrix(["hello"], (1, 2, 3), 4096)
        X2 = feature_matrix(["hello"], (1, 2, 3), 4096)
        assert (X1 != X2).nnz == 0
        # padded length 7: 7 unigrams + 6 bigrams + 5 trigrams
        assert X1.sum() == 18

    def test_empty_batch(self):
        X = feature_matrix([], (1, 2), 128)
        assert X.shape == (0, 128)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab é€😀\x02\x03", max_size=24), st.sampled_from([(1, 2, 3), (2,), (3, 1)]))
    @example("", (1, 2, 3))
    @example("\x02\x03é€😀", (1, 2, 3))
    def test_counts_match_per_gram_hashing(self, text, orders):
        # bypass the sentence cache; the gram tables persist across examples
        for dim in (1 << 16, 7):
            idx, val = classifier_module._hashed_counts.__wrapped__(text, orders, dim)
            ref_idx, ref_val = reference_hashed_counts(text, orders, dim)
            assert idx.tolist() == ref_idx.tolist()  # order included
            assert val.tolist() == ref_val.tolist()

    def test_gram_table_cap(self, monkeypatch):
        monkeypatch.setattr(classifier_module, "_GRAM_TABLE_CAP", 3)
        monkeypatch.setattr(classifier_module, "_GRAM_TABLES", {})
        text = "abcabd é"
        idx, val = classifier_module._hashed_counts.__wrapped__(text, (1, 2, 3), 4096)
        ref_idx, ref_val = reference_hashed_counts(text, (1, 2, 3), 4096)
        assert idx.tolist() == ref_idx.tolist() and val.tolist() == ref_val.tolist()
        assert len(classifier_module._GRAM_TABLES[4096]) <= 3


class TestTraining:
    def test_memorizes_single_sample(self):
        clf = train_builtin([("only sample here", 1), ("something else", 0)], SMALL)
        assert clf.predict(["only sample here"])[0] == 1

    def test_separable_accuracy(self, desk_corpus, desk_classifier):
        texts = [r.text for r in desk_corpus]
        labels = np.array([r.label for r in desk_corpus])
        acc = float((desk_classifier.predict(texts) == labels).mean())
        assert acc >= 0.95

    def test_seeded_determinism_bitwise(self):
        data = [(r.text, r.label) for r in make_keyword_corpus(40, seed=3)]
        a = train_builtin(data, SMALL)
        b = train_builtin(data, SMALL)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(OracleError):
            train_builtin([], SMALL)

    def test_single_class_rejected(self):
        with pytest.raises(OracleError):
            train_builtin([("a", 0), ("b", 0)], SMALL)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        clf = train_builtin([("good stuff", 1), ("bad stuff", 0)], SMALL)
        path = tmp_path / "model.bin"
        clf.save(path)
        assert path.read_bytes()[:4] == MAGIC
        loaded = BuiltinClassifier.load(path)
        assert loaded.ngram_orders == clf.ngram_orders
        assert loaded.feature_dim == clf.feature_dim
        np.testing.assert_array_equal(loaded.weights, clf.weights)
        np.testing.assert_array_equal(loaded.bias, clf.bias)
        np.testing.assert_array_equal(
            loaded.logits(["good stuff", "zzz"]), clf.logits(["good stuff", "zzz"])
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(OracleError):
            BuiltinClassifier.load(path)


class TestOracleAdapter:
    def test_empty_and_determinism(self, desk_oracle):
        assert desk_oracle.score_batch([]) == []
        a = desk_oracle.score_batch(["the movie was good", "the movie was good"])
        assert a[0] == a[1]

    def test_trained_sample_scores(self, desk_oracle, desk_corpus):
        row = desk_oracle.score_batch([desk_corpus[0].text])[0]
        assert int(np.argmax(row)) == desk_corpus[0].label


@pytest.fixture(scope="module")
def clf():
    return train_builtin(
        [(r.text, r.label) for r in make_keyword_corpus(60, seed=5)], SMALL
    )


class TestMixtureGradient:
    def test_one_hot_equals_single_candidate(self, clf):
        cands = ["the movie was good", "the movie was bxd", "awful pace"]
        F = clf.features(cands) @ clf.weights.T
        for i, cand in enumerate(cands):
            u = np.zeros(len(cands))
            u[i] = 1.0
            loss, _ = mixture_loss_and_grad(clf, F, u, 1)
            assert loss == pytest.approx(cw_loss(clf.logits([cand])[0].tolist(), 1), abs=1e-9)

    def test_single_candidate(self, clf):
        F = clf.features(["whatever text"]) @ clf.weights.T
        loss, grad = mixture_loss_and_grad(clf, F, np.array([1.0]), 0)
        assert grad.shape == (1,)

    def test_matches_finite_differences(self, clf):
        rng = np.random.default_rng(42)
        texts = [r.text for r in make_keyword_corpus(30, seed=9)]
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 7))
            cands = list(rng.choice(texts, size=m, replace=False))
            F = clf.features(cands) @ clf.weights.T
            u = rng.dirichlet(np.ones(m))
            y = int(rng.integers(0, 2))
            _, grad = mixture_loss_and_grad(clf, F, u, y)
            fd = central_difference_gradient(
                lambda v: mixture_loss_and_grad(clf, F, v, y)[0], u
            )
            denom = max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, float(np.max(np.abs(grad - fd)) / denom))
        assert worst < 1e-5

    def test_matches_feature_row_formula(self, clf):
        rng = np.random.default_rng(7)
        texts = [r.text for r in make_keyword_corpus(30, seed=9)] + ["", "é€😀"]
        for _ in range(100):
            m = int(rng.integers(1, 9))
            F = clf.features(list(rng.choice(texts, size=m, replace=False)))
            u = rng.dirichlet(np.ones(m))
            y = int(rng.integers(0, 2))
            loss, grad = mixture_loss_and_grad(clf, F @ clf.weights.T, u, y)
            ref_loss, ref_grad = feature_mixture_loss_and_grad(clf, F, u, y)
            assert abs(loss - ref_loss) <= 1e-12 * max(abs(ref_loss), 1.0)
            scale = max(float(np.max(np.abs(ref_grad))), 1.0)
            assert float(np.max(np.abs(grad - ref_grad))) <= 1e-12 * scale

    def test_dimension_mismatch(self, clf):
        F = clf.features(["abc", "def"])
        with pytest.raises(OracleError):
            mixture_loss_and_grad(clf, F @ clf.weights.T, np.array([1.0]), 0)
        with pytest.raises(OracleError):  # feature rows, not logit rows
            mixture_loss_and_grad(clf, F, np.array([0.5, 0.5]), 0)
