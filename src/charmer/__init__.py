"""Character-level adversarial attack toolkit.

Greedy single-edit search over Levenshtein edit balls against a pluggable
classifier oracle, plus a projected-gradient relaxation and a batch
evaluation harness.
"""

from .attack import (
    AttackConfig,
    AttackOutcome,
    PjcConstraints,
    charmer_attack,
    exhaustive_k1,
    preselect_segments,
    random_position_baseline,
    select_positions,
)
from .classifier import (
    BuiltinClassifier,
    BuiltinOracle,
    TrainConfig,
    mixture_loss_and_grad,
    train_builtin,
)
from .harness import (
    DatasetRecord,
    extract_alphabet,
    load_dataset,
    run_attack_suite,
    similarity,
)
from .oracle import Oracle, cw_loss, is_adversarial
from .pga import PgaConfig, pga_attack, project_simplex
from .remote import RemoteOracle
from .sentence import (
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

__all__ = [
    "AttackConfig",
    "AttackOutcome",
    "Alphabet",
    "BuiltinClassifier",
    "BuiltinOracle",
    "DatasetRecord",
    "Oracle",
    "PgaConfig",
    "PjcConstraints",
    "RemoteOracle",
    "TrainConfig",
    "XI",
    "ball_size_bounds",
    "charmer_attack",
    "contract",
    "cw_loss",
    "enumerate_ball",
    "exhaustive_k1",
    "expand",
    "extract_alphabet",
    "generate_neighbors",
    "is_adversarial",
    "levenshtein",
    "load_dataset",
    "mixture_loss_and_grad",
    "pga_attack",
    "preselect_segments",
    "project_simplex",
    "random_position_baseline",
    "run_attack_suite",
    "select_positions",
    "similarity",
    "single_edit",
    "train_builtin",
]

__version__ = "0.1.0"
