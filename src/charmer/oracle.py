"""Classifier oracle contract, Carlini-Wagner margin loss and batching.

An oracle maps a batch of sentences to one row of per-class real scores each
(logits or probabilities; only orderings and margins are used). Labels are
0-based class indices throughout the code.
"""

from __future__ import annotations

import math
from typing import Sequence


class OracleError(Exception):
    pass


def _check_label(num_classes: int, y: int) -> None:
    if not 0 <= y < num_classes:
        raise OracleError(f"label {y} out of range for {num_classes} classes")


def cw_loss(scores: Sequence[float], y: int) -> float:
    """Margin loss: best score among the other classes minus the true-class score.

    Unclipped, so it can take any real value. Nonnegative exactly when the
    scores misclassify (ties with the true class count as misclassification).
    """
    if len(scores) < 2:
        raise OracleError("need at least 2 classes")
    _check_label(len(scores), y)
    if any(not math.isfinite(v) for v in scores):
        raise OracleError("scores must be finite")
    best_other = max(v for i, v in enumerate(scores) if i != y)
    return best_other - scores[y]


def is_adversarial(scores: Sequence[float], y: int) -> bool:
    return cw_loss(scores, y) >= 0.0


class Oracle:
    """Base class for batched sentence scorers.

    Subclasses implement ``_score_chunk``; ``score_batch`` transparently
    splits oversized batches so batch size is never an error.
    """

    num_classes: int
    batch_limit: int = 512

    def score_batch(self, sentences: Sequence[str]) -> list[list[float]]:
        sentences = list(sentences)
        out: list[list[float]] = []
        for start in range(0, len(sentences), self.batch_limit):
            out.extend(self._score_chunk(sentences[start : start + self.batch_limit]))
        return out

    def score_near(self, sentences: Sequence[str], base: str) -> list[list[float]]:
        """``score_batch(sentences)``, with ``base`` as a hint.

        The attack passes the sentence its batch was edited from. An oracle
        may use it to score faster, but the result must equal
        ``score_batch(sentences)`` bit for bit whatever ``base`` is; the
        score of ``base`` itself is not asked for.
        """
        return self.score_batch(sentences)

    def _score_chunk(self, sentences: list[str]) -> list[list[float]]:
        raise NotImplementedError


class CountingOracle(Oracle):
    """Wrapper that counts scored sentences, used for query budgets."""

    def __init__(self, inner: Oracle):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.batch_limit = inner.batch_limit
        self.queries = 0

    def score_batch(self, sentences: Sequence[str]) -> list[list[float]]:
        sentences = list(sentences)
        self.queries += len(sentences)
        return self.inner.score_batch(sentences)

    def score_near(self, sentences: Sequence[str], base: str) -> list[list[float]]:
        sentences = list(sentences)
        self.queries += len(sentences)  # the hint is not a query
        return self.inner.score_near(sentences, base)


class PairedOracle(Oracle):
    """Scores a hypothesis in the context of a fixed premise.

    Used for sentence-pair tasks where only the second sentence is attacked:
    the premise is prepended (newline-separated) before every scoring call.
    """

    def __init__(self, inner: Oracle, premise: str, separator: str = "\n"):
        self.inner = inner
        self.premise = premise
        self.separator = separator
        self.num_classes = inner.num_classes
        self.batch_limit = inner.batch_limit

    def score_batch(self, sentences: Sequence[str]) -> list[list[float]]:
        prefix = self.premise + self.separator
        return self.inner.score_batch([prefix + s for s in sentences])

    def score_near(self, sentences: Sequence[str], base: str) -> list[list[float]]:
        prefix = self.premise + self.separator
        return self.inner.score_near([prefix + s for s in sentences], prefix + base)
