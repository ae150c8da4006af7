"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: balls are brute-force
enumerations over all short strings, measured with the full-matrix distance
table of ``charmer.verify``, gradients are central finite differences, n-gram
features (and the packed keys of n-grams) are hashed gram by gram and the
mixture loss is evaluated on feature rows. The simplex-projection reference is
``charmer.verify``'s active-set search. The edit-history reference follows
each character index through an edit by hand, and the margin loss takes the
per-row Python ``max``. The PGA loop reference runs every step, and the ball
sampler reference draws from ``random.Random`` itself and builds every
sentence with ``single_edit``. The training reference keeps its weights as
``(classes, feature_dim)`` and updates them in one expression. The single-edit
reference builds every candidate sentence and deduplicates them as strings.
"""

from __future__ import annotations

import itertools
import random
import re
import zlib
from collections import Counter

import numpy as np
from scipy import sparse

from charmer.classifier import mixture_loss_and_grad
from charmer.pga import project_simplex
from charmer.sentence import single_edit
from charmer.verify import reference_levenshtein


def brute_force_ball(s: str, chars: tuple[str, ...], k: int) -> set[str]:
    """All strings over ``chars`` of length <= len(s)+k within distance k."""
    out = set()
    for length in range(len(s) + k + 1):
        for combo in itertools.product(chars, repeat=length):
            cand = "".join(combo)
            if reference_levenshtein(s, cand) <= k:
                out.add(cand)
    return out


def reference_single_edits(s: str, positions, chars, keep=None):
    """Distinct ``(candidate, position, char)`` single edits of ``s``.

    Yielded position by position as given, then ``chars`` in order; a
    candidate keeps its first parametrization. ``keep(candidate, position,
    char)``, if given, filters parametrizations: a candidate it rejects at
    one position may still enter through another.
    """
    seen: set[str] = set()
    for i in positions:
        for c in chars:
            cand = single_edit(s, i, c)
            if cand in seen or (keep is not None and not keep(cand, i, c)):
                continue
            seen.add(cand)
            yield cand, i, c


def central_difference_gradient(fn, u: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(u, dtype=float)
    for i in range(len(u)):
        up, down = u.copy(), u.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2 * step)
    return grad


def reference_hashed_counts(text: str, orders: tuple[int, ...], dim: int):
    """Hashed n-gram counts of ``text``, CRC32 per gram, in first-occurrence order."""
    padded = "\x02" + text + "\x03"
    counts: dict[int, float] = {}
    for n in orders:
        salt = bytes([n])
        for i in range(len(padded) - n + 1):
            h = zlib.crc32(padded[i : i + n].encode("utf-8") + salt) % dim
            counts[h] = counts.get(h, 0.0) + 1.0
    return np.array(list(counts), dtype=np.int64), np.array(list(counts.values()))


def reference_feature_rows(texts, orders: tuple[int, ...], dim: int) -> sparse.csr_matrix:
    """Float CSR rows of ``reference_hashed_counts``, one per text, each in first-occurrence order."""
    rows = [reference_hashed_counts(text, orders, dim) for text in texts]
    return sparse.csr_matrix(
        (np.concatenate([v for _, v in rows]), np.concatenate([i for i, _ in rows]),
         np.cumsum([0] + [len(i) for i, _ in rows])),
        shape=(len(rows), dim),
    )


def reference_gram_index(gram: str, dim: int) -> int:
    """The feature index of one n-gram: CRC32 of its UTF-8 bytes and its order, modulo ``dim``."""
    return zlib.crc32(gram.encode("utf-8") + bytes([len(gram)])) % dim


def reference_pack(gram: str) -> int:
    """The packed key of an n-gram: its i-th code point plus one in bits ``21 i`` to ``21 i + 20``."""
    return sum((ord(c) + 1) << (21 * i) for i, c in enumerate(gram))


def reference_train_builtin(dataset, orders: tuple[int, ...], dim: int, steps: int, lr: float, l2: float, seed: int):
    """Weights ``(classes, dim)`` and bias of full-batch softmax regression on
    hashed counts: ``steps`` gradient steps from ``normal(0, 1e-3)`` weights."""
    X = reference_feature_rows([text for text, _ in dataset], orders, dim)
    labels = np.array([y for _, y in dataset])
    o = int(labels.max()) + 1
    Y = np.zeros((len(dataset), o))
    Y[np.arange(len(dataset)), labels] = 1.0
    W = np.random.default_rng(seed).normal(0.0, 1e-3, size=(o, dim))
    b = np.zeros(o)
    n = len(dataset)
    for _ in range(steps):
        Z = X @ W.T + b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        G = (P - Y) / n
        W -= lr * (np.asarray(G.T @ X) + l2 * W)
        b -= lr * G.sum(axis=0)
    return W, b


def reference_window_counts(text: str, orders: tuple[int, ...], dim: int, lo: int, width: int) -> Counter:
    """Hashed counts of the padded grams that share a character with the
    ``width`` characters from ``lo`` on, or that span ``lo`` when ``width`` is 0."""
    padded = "\x02" + text + "\x03"
    counts: Counter = Counter()
    for n in orders:
        for i in range(len(padded) - n + 1):
            if i < lo + width and i + n > lo:
                counts[zlib.crc32(padded[i : i + n].encode("utf-8") + bytes([n])) % dim] += 1
    return counts


def feature_mixture_loss_and_grad(classifier, features, u: np.ndarray, y: int):
    """CW loss and its gradient in ``u`` on the mixture of feature rows ``Fᵀu``."""
    z = classifier.weights @ np.asarray(features.T @ u).ravel() + classifier.bias
    masked = z.copy()
    masked[y] = -np.inf
    j = int(np.argmax(masked))
    grad = features @ (classifier.weights[j] - classifier.weights[y])
    return float(z[j] - z[y]), np.asarray(grad).ravel()


def reference_cw_loss(scores, y: int) -> float:
    """Best other-class score minus the true-class score, by Python ``max``
    over one row of floats: the first maximum among equal scores."""
    return max(v for i, v in enumerate(scores) if i != y) - scores[y]


class ReferenceEditHistory:
    """Indices of the perturbed words, each old character index shifted through
    every edit. Positions index the sentinel-expanded sentence: an even ``2p``
    is character ``p`` (1-based), an odd ``2p + 1`` the slot after it, and
    ``"\x00"`` stands for nothing."""

    def __init__(self):
        self.edited: set[int] = set()

    @staticmethod
    def _spans(s: str) -> list[tuple[int, int]]:
        return [(m.start() + 1, m.end()) for m in re.finditer(r"[^ ]+", s)]

    def record(self, old_sentence: str, position: int, char: str, new_sentence: str) -> None:
        if new_sentence == old_sentence:
            return
        old_spans = self._spans(old_sentence)
        p = position // 2
        if position % 2 == 0:
            delta = -1 if char == "\x00" else 0  # edited character p
        else:
            delta = 1  # insertion after character p

        def shift(x: int):
            if delta == -1:
                if x == p:
                    return None
                return x if x < p else x - 1
            if delta == 1:
                return x if x <= p else x + 1
            return x

        # a word over characters [a, b] owns expanded positions 2a-1 .. 2b+1
        owners = [w for w, (a, b) in enumerate(old_spans) if 2 * a - 1 <= position <= 2 * b + 1]
        marked: set[int] = set()
        for w in self.edited | set(owners[:1]):
            a, b = old_spans[w]
            marked.update(sx for sx in map(shift, range(a, b + 1)) if sx is not None)
        if delta == 1:
            marked.add(p + 1)
        elif delta == 0:
            marked.add(p)
        self.edited = {
            w for w, (a, b) in enumerate(self._spans(new_sentence)) if any(a <= x <= b for x in marked)
        }


def reference_pga_ascent(classifier, logit_rows, y: int, step_size: float, iterations: int):
    """All ``iterations`` projected gradient steps from uniform weights.

    Returns the final weights, the loss before each step and the first step
    whose projection returned its input byte for byte (``None`` if none did).
    """
    u = np.full(len(logit_rows), 1.0 / len(logit_rows))
    losses, fixed_at = [], None
    for step in range(iterations):
        loss, grad = mixture_loss_and_grad(classifier, logit_rows, u, y)
        losses.append(loss)
        nxt = project_simplex(u + step_size * grad)
        if fixed_at is None and nxt.tobytes() == u.tobytes():
            fixed_at = step
        u = nxt
    return u, losses, fixed_at


def reference_sample_walks(s: str, alphabet, k: int, cap: int, seed: int) -> dict[str, tuple]:
    """The sentences that seeded walks of k single edits reach, each with the first walk that did.

    A walk is its edits ``((i_1, c_1), ..., (i_k, c_k))``; ``s`` itself is
    reached by the empty walk before any is drawn.
    """
    rng = random.Random(seed)
    out = {s: ()}
    chars = alphabet.replacement_chars()
    attempts = cap * 20
    while len(out) < cap and attempts > 0:
        attempts -= 1
        t, walk = s, []
        for _ in range(k):
            edit = (rng.randrange(2 * len(t) + 1) + 1, rng.choice(chars))
            t = single_edit(t, *edit)
            walk.append(edit)
        out.setdefault(t, tuple(walk))
    return out


def reference_sample_ball(s: str, alphabet, k: int, cap: int, seed: int) -> list[str]:
    """The sorted set of sentences that seeded walks of k single edits reach."""
    return sorted(reference_sample_walks(s, alphabet, k, cap, seed))
