"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: balls are brute-force
enumerations over all short strings, measured with the full-matrix distance
table of ``charmer.verify``, and gradients are central finite differences.
The simplex-projection reference is ``charmer.verify``'s active-set search.
"""

from __future__ import annotations

import itertools

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
