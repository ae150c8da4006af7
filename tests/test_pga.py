import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmer.classifier import BuiltinClassifier, TrainConfig, train_builtin
from charmer.pga import GradientUnavailableError, PgaConfig, pga_attack, project_simplex
from charmer.sentence import Alphabet, levenshtein
from charmer.verify import reference_simplex_projection

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
