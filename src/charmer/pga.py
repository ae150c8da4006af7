"""Projected gradient ascent over convex mixtures of edit-ball candidates.

Relaxes the discrete candidate choice to weights on the probability simplex:
the classifier is evaluated on the convex mixture of candidate feature rows,
the weights follow the loss gradient and are projected back onto the simplex
after every step, and the candidate with the largest final weight is taken
as the attack sentence. The classifier is linear, so the candidates' logit
rows are computed once and every step works on them alone. A ball too large
to enumerate is sampled by random walks of single edits, and each sampled
candidate is scored from the sentence's integer logits along the first walk
that reached it (``BuiltinClassifier.walk_logits``), bit-equal to scoring it
from scratch. Each step depends on the weights alone, so the loop stops at
the first step that returns its weights byte for byte; the trace still has
``iterations`` losses. Requires the builtin classifier, which exposes exact
mixture gradients; remote oracles do not.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .attack import AttackOutcome, TraceStep
from .classifier import BuiltinClassifier, mixture_loss_and_grad
from .oracle import OracleError, cw_loss
from .sentence import Alphabet, BallBudgetError, enumerate_ball, levenshtein, single_edit

# candidates enumerate_ball may build before pga falls back to sampling
_BALL_BUDGET = 200_000


class GradientUnavailableError(OracleError):
    """The supplied oracle kind does not expose mixture gradients."""


@dataclass
class PgaConfig:
    step_size: float = 0.1
    iterations: int = 200
    k: int = 2  # edit budget for candidate generation
    candidate_cap: int = 4096  # balls above this are subsampled deterministically
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.step_size < math.inf) or self.iterations < 1:
            raise ValueError("step_size must be finite and > 0, and iterations >= 1")
        if self.k < 1 or self.candidate_cap < 1:
            raise ValueError("k and candidate_cap must be >= 1")


def project_simplex(u_hat) -> np.ndarray:
    """Euclidean projection onto {u : u_i >= 0, sum(u) = 1}.

    Sorted-threshold method: the projection is max(u_hat - lam, 0) for the
    unique lam making the result sum to one, which is exactly the KKT system
    of the underlying quadratic program.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    if u_hat.ndim != 1 or u_hat.size < 1:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(u_hat)):
        raise ValueError("projection input must be finite")
    desc = np.sort(u_hat)[::-1]
    css = np.cumsum(desc) - 1.0
    rho = np.nonzero(desc - css / np.arange(1, u_hat.size + 1) > 0)[0][-1]
    lam = css[rho] / (rho + 1.0)
    return np.maximum(u_hat - lam, 0.0)


def _sample_ball(s: str, alphabet: Alphabet, k: int, cap: int, seed: int):
    """Seeded sample of S_k(s, Γ) by composing k random single edits.

    Used when full enumeration would exceed the ball budget; every walk of k
    single edits stays within distance k of the start, so membership in the
    ball is preserved. The original sentence is always included. Returns the
    sorted candidates and, for each, the first walk that reached it, as
    ``(i_1, t_1, ..., i_k, t_k)`` with ``t_j = single_edit(t_{j-1}, i_j, c_j)``
    and ``t_0 = s`` (``s`` itself has no steps).
    """
    rng = random.Random(seed)
    walks = {s: ()}
    chars = alphabet.replacement_chars()
    attempts = cap * 20
    while len(walks) < cap and attempts > 0:
        attempts -= 1
        t, walk = s, []
        for _ in range(k):
            i = rng.randrange(2 * len(t) + 1) + 1
            t = single_edit(t, i, rng.choice(chars))
            walk += (i, t)
        walks.setdefault(t, walk)
    candidates = sorted(walks)
    return candidates, [walks[c] for c in candidates]


def _ascend(classifier: BuiltinClassifier, logit_rows: np.ndarray, y: int, config: PgaConfig):
    """Projected gradient ascent from uniform weights over the candidates.

    Returns the final weights and the loss before each of the
    ``config.iterations`` steps. A step depends on the weights alone, so
    once one returns the weights it was given, byte for byte, every later
    step would too: the loop stops there and repeats that step's loss for
    the steps left.
    """
    m = len(logit_rows)
    u = np.full(m, 1.0 / m)
    losses: list[float] = []
    for step in range(config.iterations):
        loss, grad = mixture_loss_and_grad(classifier, logit_rows, u, y)
        losses.append(loss)
        nxt = project_simplex(u + config.step_size * grad)
        if nxt.tobytes() == u.tobytes():
            losses += [loss] * (config.iterations - step - 1)
            break
        u = nxt
    return u, losses


def pga_attack(
    classifier: BuiltinClassifier,
    s: str,
    y: int,
    config: PgaConfig,
    alphabet: Alphabet,
) -> AttackOutcome:
    if not isinstance(classifier, BuiltinClassifier):
        raise GradientUnavailableError(
            "projected gradient ascent needs the builtin classifier; "
            "this oracle kind has no mixture gradients"
        )
    start = time.perf_counter()
    try:
        candidates = enumerate_ball(s, alphabet, config.k, budget=_BALL_BUDGET)
    except BallBudgetError:
        candidates, walks = _sample_ball(
            s, alphabet, config.k, config.candidate_cap, config.seed
        )
        logit_rows = classifier.walk_logits(s, walks)
    else:
        if len(candidates) > config.candidate_cap:
            rng = random.Random(config.seed)
            candidates = sorted(rng.sample(candidates, config.candidate_cap))
        logit_rows = classifier.candidate_logits(candidates)
    u, losses = _ascend(classifier, logit_rows, y, config)
    j = int(np.argmax(u))  # first maximum on ties
    adversarial = candidates[j]
    final_loss = cw_loss(classifier.logits([adversarial])[0], y)
    return AttackOutcome(
        original=s,
        adversarial=adversarial,
        success=final_loss >= 0,
        edits_used=levenshtein(s, adversarial),
        final_loss=final_loss,
        queries=1,
        elapsed=time.perf_counter() - start,
        trace=[TraceStep(position=None, char=None, loss=loss) for loss in losses],
    )
