"""Projected gradient ascent over convex mixtures of edit-ball candidates.

Relaxes the discrete candidate choice to weights on the probability simplex:
the classifier is evaluated on the convex mixture of candidate feature rows,
the weights follow the loss gradient and are projected back onto the simplex
after every step, and the candidate with the largest final weight is taken
as the attack sentence. The classifier is linear, so the candidates' logit
rows are computed once and every step works on them alone. A ball too large
to enumerate is sampled by random walks of single edits, drawn exactly as
``random.Random(seed)`` would draw them but read straight off its Mersenne
Twister words (``_sample_ball``). The walks stay arrays of positions and
code points, and the sampled sentences code-point rows; each sampled
candidate is scored from the sentence's integer logits along the first walk
that reached it (``BuiltinClassifier.walk_logits``), bit-equal to scoring it
from scratch. Only the chosen candidate becomes a string, by replaying its
walk through ``single_edit``. Each step depends on the weights alone, so the loop stops at
the first step that returns its weights byte for byte; the trace still has
``iterations`` losses. Requires the builtin classifier, which exposes exact
mixture gradients; remote oracles do not.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .attack import AttackOutcome, TraceStep, check_counts
from .classifier import _CHUNK_ROWS, BuiltinClassifier, mixture_loss_and_grad
from .oracle import OracleError, cw_loss
from .sentence import (
    XI, Alphabet, BallBudgetError, SentenceError, enumerate_ball, levenshtein, single_edit, single_edit_rows,
)

# candidates enumerate_ball may build before pga falls back to sampling
_BALL_BUDGET = 200_000
# code points the final rows of one round of sampled walks may hold (int32, 16 MiB)
_ROUND_CODES = 1 << 22


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
        if not (0 < self.step_size < math.inf):
            raise ValueError("step_size must be finite and > 0")
        check_counts(self, "iterations", "k", "candidate_cap")


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


def _words(seed: int):
    """The 32-bit words ``random.Random(seed).getrandbits(32)`` returns, in order.

    Both are the Mersenne Twister MT19937: numpy's, started from a copy of
    the state ``Random`` seeds, returns the same words.
    """
    state = random.Random(seed).getstate()[1]
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937", "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    return itertools.chain.from_iterable(iter(lambda: mt.random_raw(1024).tolist(), None))


def _draw_walks(next_word, length: int, k: int, n_chars: int, attempts: int):
    """Positions and character indices of ``attempts`` walks of ``k`` edits.

    Draws what ``i = rng.randrange(2 * len(t) + 1) + 1`` and then
    ``rng.choice(chars)`` draw for each edit of a sentence ``t`` that starts
    ``length`` long, the sentinel last in ``chars``: ``randrange(n)`` and
    ``choice`` take ``getrandbits(n.bit_length())`` until it is below
    ``n``, and ``getrandbits(b)`` is the next word's top ``b`` bits for
    ``b <= 32``. Returns two ``(attempts, k)`` arrays.
    """
    positions, indices = [], []
    c_shift, sentinel = 32 - n_chars.bit_length(), n_chars - 1
    for _ in range(attempts):
        t = length
        for _ in range(k):
            n = 2 * t + 1
            shift = 32 - n.bit_length()
            i = next_word() >> shift
            while i >= n:
                i = next_word() >> shift
            c = next_word() >> c_shift
            while c >= n_chars:
                c = next_word() >> c_shift
            positions.append(i + 1)
            indices.append(c)
            t += (c != sentinel) if i % 2 == 0 else -(c == sentinel)  # an insertion or a deletion
    return (np.array(a, dtype=np.int64).reshape(attempts, k) for a in (positions, indices))


def _final_rows(s: str, positions: np.ndarray, codes: np.ndarray, width: int, dtype) -> np.ndarray:
    """Code-point rows, zero-padded to ``width``, of the sentences the walks reach from ``s``."""
    out = np.zeros((len(positions), width), dtype=dtype)
    out[:, : len(s)] = np.fromiter(map(ord, s), dtype=dtype, count=len(s))
    for chunk in range(0, len(positions), _CHUNK_ROWS):
        rows = out[chunk : chunk + _CHUNK_ROWS]
        lens = np.full(len(rows), len(s))
        for i, c in zip(positions[chunk : chunk + _CHUNK_ROWS].T, codes[chunk : chunk + _CHUNK_ROWS].T):
            rows, lens = single_edit_rows(rows, lens, i, c)
        out[chunk : chunk + _CHUNK_ROWS] = rows
    return out


def _sample_ball(s: str, alphabet: Alphabet, k: int, cap: int, seed: int):
    """Seeded sample of S_k(s, Γ) by composing k random single edits.

    Used when full enumeration would exceed the ball budget; every walk of k
    single edits stays within distance k of the start, so membership in the
    ball is preserved. The original sentence is always included. Samples
    exactly what ``t = single_edit(t, rng.randrange(2 * len(t) + 1) + 1,
    rng.choice(chars))``, k times from ``t = s`` with ``rng =
    random.Random(seed)``, samples attempt after attempt, until ``cap``
    distinct sentences or ``cap * 20`` attempts: the draws are read off the
    Mersenne Twister words themselves (``_words``, ``_draw_walks``). The
    sentences are code-point rows (``single_edit_rows``), and they compare
    and sort as big-endian bytes in code-point order. Attempts are drawn in
    rounds of about as many as should find the distinct sentences still
    missing; the attempt that finds the last one ends the sample. Returns
    the first walk that reached each sentence, in the sentences' sorted
    order, as two ``(m, k)`` arrays: the expanded positions and the code
    points, 0 for the sentinel. ``s`` itself is k no-op edits, the sentinel
    at position 1.
    """
    if XI in s:
        raise SentenceError("cannot edit a sentence containing the sentinel")
    chars = alphabet.replacement_chars()
    codes = np.fromiter(map(ord, chars), dtype=np.int32, count=len(chars))  # the sentinel is 0
    width = len(s) + k
    dtype = np.min_scalar_type(max(map(ord, s + "".join(chars))))  # holds every code point of the rows

    def keys(positions, indices):
        rows = _final_rows(s, positions, codes[indices], width, dtype)
        return rows.astype(dtype.newbyteorder(">")).view(f"V{dtype.itemsize * width}").ravel()

    next_word = _words(seed).__next__
    positions, indices = [np.ones((1, k), dtype=np.int64)], [np.full((1, k), len(chars) - 1)]
    seen = keys(positions[0], indices[0])  # the distinct sentences, sorted
    first = np.zeros(1, dtype=np.int64)  # the walk that first reached each
    attempts, tried = cap * 20, 0
    while len(seen) < cap and attempts > 0:
        need = cap - len(seen)
        found = (len(seen) - 1) / tried if tried else 1.0  # the share of attempts that found a new one
        guess = math.ceil(need / found) + need // 16 + 2 if found else attempts
        batch = min(attempts, guess, max(_CHUNK_ROWS, _ROUND_CODES // width))
        pos, idx = _draw_walks(next_word, len(s), k, len(chars), batch)
        merged, at = np.unique(np.concatenate([seen, keys(pos, idx)]), return_index=True)
        fresh = np.sort(at[at >= len(seen)]) - len(seen)  # the attempts that found a new sentence
        if len(fresh) >= need:
            batch = int(fresh[need - 1]) + 1
            merged, at = merged[at < len(seen) + batch], at[at < len(seen) + batch]
        first = np.where(at < len(seen), first[np.minimum(at, len(seen) - 1)], 1 + tried + at - len(seen))
        seen = merged
        positions.append(pos[:batch])
        indices.append(idx[:batch])
        attempts -= batch
        tried += batch
    return np.concatenate(positions)[first], codes[np.concatenate(indices)[first]]


def _replay(s: str, positions: np.ndarray, codes: np.ndarray, j: int) -> str:
    """The sentence that walk ``j`` reaches from ``s``, built by ``single_edit``."""
    for i, c in zip(positions[j].tolist(), codes[j].tolist()):
        s = single_edit(s, i, chr(c))
    return s


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
        positions, codes = _sample_ball(s, alphabet, config.k, config.candidate_cap, config.seed)
        logit_rows = classifier.walk_logits(s, positions, codes)
        candidate = functools.partial(_replay, s, positions, codes)
    else:
        if len(candidates) > config.candidate_cap:
            rng = random.Random(config.seed)
            candidates = sorted(rng.sample(candidates, config.candidate_cap))
        logit_rows = classifier.candidate_logits(candidates)
        candidate = candidates.__getitem__
    u, losses = _ascend(classifier, logit_rows, y, config)
    adversarial = candidate(int(np.argmax(u)))  # first maximum on ties
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
