from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from charmer import pga as pga_module
from charmer.classifier import BuiltinClassifier, TrainConfig, train_builtin
from charmer.pga import GradientUnavailableError, PgaConfig, _ascend, _sample_ball, pga_attack, project_simplex
from charmer.sentence import XI, Alphabet, SentenceError, levenshtein, single_edit
from charmer.verify import reference_simplex_projection
from reference import reference_pga_ascent, reference_sample_ball, reference_sample_walks

finite_vec = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


class TestProjection:
    @pytest.mark.parametrize(
        "u_hat,expected",
        [
            ([0.8, 0.6], [0.6, 0.4]),
            ([0.5, 0.5], [0.5, 0.5]),
            ([2.0, -1.0], [1.0, 0.0]),
            ([1.0], [1.0]),
            ([0.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]),
        ],
    )
    def test_worked_examples(self, u_hat, expected):
        np.testing.assert_allclose(project_simplex(u_hat), expected, atol=1e-12)

    def test_fixed_point_on_simplex(self):
        u = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(u), u, atol=1e-12)

    @settings(max_examples=300)
    @given(finite_vec)
    def test_matches_active_set_oracle(self, u_hat):
        u_hat = np.array(u_hat)
        got = project_simplex(u_hat)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(got >= 0)
        np.testing.assert_allclose(got, reference_simplex_projection(u_hat), atol=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))
        with pytest.raises(ValueError):
            project_simplex(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 1.0]))
        with pytest.raises(ValueError):
            project_simplex(np.array([np.inf, 1.0]))


@pytest.fixture(scope="module")
def clf(desk_classifier):
    return desk_classifier


class TestPgaAttack:
    def test_result_inside_ball(self, desk_classifier, desk_alphabet, attackable_records):
        config = PgaConfig(iterations=50, k=2, candidate_cap=512)
        for record in attackable_records[:5]:
            outcome = pga_attack(
                desk_classifier, record.text, record.label, config, desk_alphabet
            )
            assert levenshtein(record.text, outcome.adversarial) <= config.k
            assert outcome.edits_used == levenshtein(record.text, outcome.adversarial)
            assert len(outcome.trace) == config.iterations
            assert outcome.queries == 1

    def test_deterministic(self, desk_classifier, desk_alphabet, attackable_records):
        record = attackable_records[0]
        config = PgaConfig(iterations=30, k=2, candidate_cap=256, seed=4)
        a = pga_attack(desk_classifier, record.text, record.label, config, desk_alphabet)
        b = pga_attack(desk_classifier, record.text, record.label, config, desk_alphabet)
        assert a.adversarial == b.adversarial
        assert [s.loss for s in a.trace] == [s.loss for s in b.trace]

    def test_single_candidate_degenerate(self, desk_classifier):
        # |Γ|=1 and the sentence is one repeated char: the k=1 ball still has
        # 3 members, so shrink further with an empty sentence and k=1
        alphabet = Alphabet(("a",))
        config = PgaConfig(iterations=5, k=1)
        outcome = pga_attack(desk_classifier, "", 0, config, alphabet)
        assert outcome.adversarial in ("", "a")

    def test_cap_subsamples_deterministically(self, desk_classifier, desk_alphabet):
        config = PgaConfig(iterations=3, k=2, candidate_cap=64, seed=9)
        s = "the movie was good fun"
        a = pga_attack(desk_classifier, s, 1, config, desk_alphabet)
        b = pga_attack(desk_classifier, s, 1, config, desk_alphabet)
        assert a.adversarial == b.adversarial

    def test_loss_improves_over_uniform(self, desk_classifier, desk_alphabet, attackable_records):
        # the chosen candidate should do at least as well as the original
        record = attackable_records[0]
        config = PgaConfig(iterations=100, k=2, candidate_cap=1024)
        outcome = pga_attack(
            desk_classifier, record.text, record.label, config, desk_alphabet
        )
        assert outcome.final_loss >= outcome.trace[0].loss

    def test_rejects_non_builtin(self, desk_oracle, desk_alphabet):
        with pytest.raises(GradientUnavailableError):
            pga_attack(desk_oracle, "abc", 0, PgaConfig(), desk_alphabet)

    def test_config_validation(self):
        for step in (0.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                PgaConfig(step_size=step)
        with pytest.raises(ValueError):
            PgaConfig(iterations=0)
        for bad in (dict(candidate_cap=0), dict(candidate_cap=-3), dict(k=0), dict(k=-1)):
            with pytest.raises(ValueError):
                PgaConfig(**bad)
        for name in ("iterations", "k", "candidate_cap"):
            for bad in (2.5, 2.0, True, "3", None):
                with pytest.raises(ValueError, match=name):
                    PgaConfig(**{name: bad})


def _bias_only(bias) -> BuiltinClassifier:
    """A classifier whose mixture loss reads only its bias and the logit rows given."""
    bias = np.asarray(bias, dtype=np.float64)
    return BuiltinClassifier(ngram_orders=(1,), feature_dim=1, weights=np.zeros((len(bias), 1)), bias=bias)


class TestFixedPointExit:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_equals_the_full_loop(self, classes, data):
        row = st.lists(st.floats(-4, 4, allow_nan=False), min_size=classes, max_size=classes)
        rows = np.array(data.draw(st.lists(row, min_size=1, max_size=6)))
        clf = _bias_only(data.draw(row))
        y = data.draw(st.integers(0, classes - 1))
        step = data.draw(st.sampled_from([1e-6, 0.01, 0.1, 1.0, 10.0]))
        iterations = data.draw(st.integers(1, 60))
        u, losses = _ascend(clf, rows, y, PgaConfig(step_size=step, iterations=iterations))
        ref_u, ref_losses, fixed_at = reference_pga_ascent(clf, rows, y, step, iterations)
        event("fixed point" if fixed_at is not None else "no fixed point")
        assert u.tobytes() == ref_u.tobytes()
        assert np.array(losses).tobytes() == np.array(ref_losses).tobytes()

    @pytest.mark.parametrize(
        "step,iterations,fixed",
        [(0.1, 200, True), (1e-6, 40, False)],
        ids=["reaches-a-vertex", "crawls"],
    )
    def test_computes_steps_up_to_the_fixed_point_only(self, step, iterations, fixed):
        clf = _bias_only([0.0, 0.0])
        rows = np.array([[0.0, 1.0], [0.0, -1.0], [0.5, 0.0]])  # y = 0: row 0 gains most
        _, ref_losses, fixed_at = reference_pga_ascent(clf, rows, 0, step, iterations)
        assert (fixed_at is not None) == fixed
        with mock.patch.object(pga_module, "project_simplex", wraps=project_simplex) as projected:
            _, losses = _ascend(clf, rows, 0, PgaConfig(step_size=step, iterations=iterations))
        assert projected.call_count == (fixed_at + 1 if fixed else iterations)
        assert losses == ref_losses and len(losses) == iterations

    def test_attack_equals_the_reference_pipeline(self, desk_classifier, desk_alphabet, attackable_records):
        # desk records overflow the ball budget, so candidates come from sampled walks
        config = PgaConfig()
        for record in attackable_records[:3]:
            outcome = pga_attack(desk_classifier, record.text, record.label, config, desk_alphabet)
            candidates = reference_sample_ball(record.text, desk_alphabet, config.k, config.candidate_cap, config.seed)
            rows = desk_classifier.candidate_logits(candidates)
            u, losses, _ = reference_pga_ascent(desk_classifier, rows, record.label, config.step_size, config.iterations)
            assert outcome.adversarial == candidates[int(np.argmax(u))]
            assert [step.loss for step in outcome.trace] == losses


def _replayed(s, positions, codes):
    """The sentences that sampled walks reach, replayed edit by edit through ``single_edit``."""
    out = []
    for walk_positions, walk_codes in zip(positions.tolist(), codes.tolist()):
        t = s
        for i, c in zip(walk_positions, walk_codes):
            t = single_edit(t, i, chr(c))
        out.append(t)
    return out


def check_sample(s, alphabet, k, cap, seed):
    """The sampled walks are the reference's first walks, in the sorted order of their sentences."""
    positions, codes = _sample_ball(s, alphabet, k, cap, seed)
    walks = reference_sample_walks(s, alphabet, k, cap, seed)
    assert positions.shape == codes.shape == (len(walks), k)
    assert _replayed(s, positions, codes) == sorted(walks)
    for candidate, walk_positions, walk_codes in zip(sorted(walks), positions.tolist(), codes.tolist()):
        edits = walks[candidate] or ((1, XI),) * k  # s itself: k no-op edits
        assert list(zip(walk_positions, map(chr, walk_codes))) == list(edits)
    return walks


class TestSampleBall:
    @pytest.mark.parametrize(
        "s,k,cap,seed",
        [("", 1, 8, 0), ("", 3, 50, 1), ("ab", 2, 30, 2), ("abc", 1, 1000, 3),
         ("the movie was good fun", 2, 256, 0), ("a é😀 b", 3, 128, 5)],
    )
    def test_candidates_equal_the_set_sampler_and_walks_replay(self, s, k, cap, seed):
        alphabet = Alphabet(tuple("ab é😀"))
        walks = check_sample(s, alphabet, k, cap, seed)
        assert sorted(walks) == reference_sample_ball(s, alphabet, k, cap, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.text(alphabet="ab é€😀\U00010348", max_size=6),  # code points of one, two and three bytes
        chars=st.sampled_from(["", "a", "ab", "a€", "ab é😀", "x😀\U00010348"]),  # "": the sentinel alone
        k=st.sampled_from([1, 2, 3, 4, 10]),
        cap=st.one_of(st.just(1), st.integers(2, 60)),
        seed=st.one_of(st.integers(-(2**40), -1), st.integers(0, 9), st.integers(2**32, 2**70)),
    )
    def test_draws_what_random_draws(self, s, chars, k, cap, seed):
        walks = check_sample(s, Alphabet(tuple(chars)), k, cap, seed)
        event("ball smaller than cap" if len(walks) < cap else "cap reached")

    def test_rounds_stop_at_the_cap(self):
        # a first round too small for the cap, so that later rounds must top it up exactly
        alphabet = Alphabet(tuple("ab é😀"))
        with mock.patch.object(pga_module, "_ROUND_CODES", 1), mock.patch.object(pga_module, "_CHUNK_ROWS", 7):
            walks = check_sample("the movie was good fun", alphabet, 2, 300, 3)
        assert len(walks) == 300

    def test_sentinel_in_the_sentence_raises(self):
        with pytest.raises(SentenceError):
            _sample_ball("a" + XI, Alphabet(("a",)), 1, 4, 0)
