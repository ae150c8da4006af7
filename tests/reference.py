"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: balls are brute-force
enumerations over all short strings, measured with the full-matrix distance
table of ``charmer.verify``, gradients are central finite differences, n-gram
features are hashed gram by gram and the mixture loss is evaluated on feature
rows. The simplex-projection reference is ``charmer.verify``'s active-set
search.
"""

from __future__ import annotations

import itertools
import zlib
from collections import Counter

import numpy as np

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
