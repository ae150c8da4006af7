"""Classifier oracle contract, Carlini-Wagner margin loss and batching.

An oracle maps m sentences to one ``(m, classes)`` float64 array of real
scores (logits or probabilities; only orderings and margins are used).
Labels are 0-based class indices throughout the code.

An attack asks for scores in requests: a list of sentences, or an
``EditRequest`` for single edits of one base sentence. ``score_together``
scores requests of one kind in one call: sentences through ``score_batch``,
edits through ``Oracle._score_requests``, the one scorer of edits, which
takes the edits of many bases at once. ``Oracle.score_edits`` is that call
for one request; a plugin that scores edits its own way overrides
``_score_requests``, never ``score_edits``. A record's premise (sentence-pair
tasks) is not the oracle's business: ``attack.drive`` joins it to the
record's requests before they are scored.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .sentence import XI, SentenceError, single_edit


class OracleError(Exception):
    pass


def _as_scores(rows) -> np.ndarray:
    """``rows`` as a float64 array; ragged or non-numeric rows raise ``OracleError``."""
    try:
        scores = np.asarray(rows)
    except ValueError:
        raise OracleError("score rows differ in length") from None
    if scores.dtype.kind not in "iuf":
        raise OracleError(f"scores must be numbers, not {scores.dtype}")
    return scores.astype(np.float64, copy=False)


def check_rows(scores, m: int, num_classes) -> np.ndarray:
    """``scores`` as a float64 array of ``m`` rows of ``num_classes`` scores.

    While ``num_classes`` is unknown (``None``), rows of any one width pass.
    Any other shape raises ``OracleError``.
    """
    z = _as_scores(scores)
    if z.ndim != 2 or len(z) != m or (num_classes is not None and z.shape[1] != num_classes):
        width = "one length" if num_classes is None else f"{num_classes} classes"
        raise OracleError(f"expected {m} score rows of {width}, got shape {z.shape}")
    return z


def check_edits(positions, codes) -> tuple[np.ndarray, np.ndarray]:
    """``positions`` and ``codes`` of single edits as 1-D arrays.

    ``SentenceError`` unless they match in length and pass
    ``check_edit_values``.
    """
    positions, codes = np.ravel(positions), np.ravel(codes)
    if len(positions) != len(codes):
        raise SentenceError(f"{len(positions)} edit positions but {len(codes)} codes")
    check_edit_values(positions, codes)
    return positions, codes


def check_edit_values(positions: np.ndarray, codes: np.ndarray) -> None:
    """``SentenceError`` unless the arrays hold integers (bools do not count) and every code is a Unicode
    scalar value (0 for the sentinel); an empty one may have any dtype, as ``np.ravel([])`` is float64."""
    for name, values in (("positions", positions), ("codes", codes)):
        if values.size and values.dtype.kind not in "iu":
            raise SentenceError(f"edit {name} must be integers, not {values.dtype}")
    if codes.size and codes.astype(np.uint64).max() >= 0xD800:  # one pass for most codes; a negative one wraps
        bad = codes[(codes < 0) | (codes > 0x10FFFF) | ((codes >= 0xD800) & (codes <= 0xDFFF))]
        if bad.size:
            raise SentenceError(f"the code point {int(bad[0]):#x} is not a Unicode scalar value")


def cw_loss(scores, y):
    """Margin loss: best score among the other classes minus the true-class score.

    ``scores`` is one row, giving a float, or an ``(m, classes)`` batch,
    giving m losses. ``y`` is the label of every row, or of a batch an array
    of m labels, one per row; the losses equal those of each row with its
    own label bit for bit. Unclipped; nonnegative exactly when the scores
    misclassify (a tie with the true class counts). The best other class is
    the first maximum, as ``max`` over the row, so tied signed zeros keep it.
    """
    z = _as_scores(scores)
    if z.ndim not in (1, 2) or z.shape[-1] < 2:
        raise OracleError("need at least 2 classes")
    labels = np.asarray(y)
    kind = labels.dtype.kind  # "O" holds an int beyond int64, which the range check below refuses; a bool is no label
    if labels.size and (kind not in "iuO" or kind == "O" and any(type(v) is not int for v in labels.flat)):
        raise OracleError(f"labels must be integers, not {labels.dtype}")
    if labels.ndim and labels.shape != z.shape[:-1]:
        raise OracleError(f"{labels.size} labels for scores of shape {z.shape}")
    outside = (labels < 0) | (labels >= z.shape[-1])
    if outside.any():
        raise OracleError(f"label {labels[outside].flat[0]} out of range for {z.shape[-1]} classes")
    if not np.isfinite(z).all():
        raise OracleError("scores must be finite")
    labels = np.broadcast_to(labels, z.shape[:-1])[..., None]
    others = z.copy()
    np.put_along_axis(others, labels, -np.inf, axis=-1)
    best = others.argmax(axis=-1)[..., None]
    del others  # a batch of many records' rows is large
    loss = np.take_along_axis(z, best, axis=-1)[..., 0]
    loss -= np.take_along_axis(z, labels, axis=-1)[..., 0]
    return float(loss) if z.ndim == 1 else loss


def is_adversarial(scores, y: int):
    """Whether ``cw_loss(scores, y) >= 0``: a bool for one row, an array for a batch."""
    return cw_loss(scores, y) >= 0.0


class EditRequest(NamedTuple):
    """Single edits of ``base`` to score: edit ``r`` writes the code point ``codes[r]`` (0 for the sentinel)
    at expanded position ``positions[r]`` (``Oracle._score_requests``)."""

    base: str
    positions: np.ndarray
    codes: np.ndarray


def request_rows(request) -> int:
    """The number of score rows a request asks for: one per sentence or per edit."""
    return len(request.positions) if isinstance(request, EditRequest) else len(request)


class Oracle:
    """Base class for batched sentence scorers.

    Subclasses implement ``_score_chunk``; ``score_batch`` transparently
    splits oversized batches so batch size is never an error, and stacks
    the chunks' rows into one array. Edits are scored by ``_score_requests``
    alone: a subclass that defines ``score_edits`` raises ``TypeError``, as
    the calls that score many requests together would bypass it.
    """

    num_classes: int
    batch_limit: int = 512

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "score_edits" in vars(cls):
            raise TypeError(f"{cls.__name__} overrides score_edits; override _score_requests, which scores every edit")

    def score_batch(self, sentences: Sequence[str]) -> np.ndarray:
        sentences = list(sentences)
        parts: list[np.ndarray] = []
        for start in range(0, len(sentences), self.batch_limit):
            chunk = sentences[start : start + self.batch_limit]
            parts.append(check_rows(self._score_chunk(chunk), len(chunk), parts[0].shape[1] if parts else None))
        if not parts:
            return np.empty((0, getattr(self, "num_classes", None) or 0))
        return np.concatenate(parts)

    def score_edits(self, base: str, positions, codes) -> np.ndarray:
        """The scores of single edits of ``base``, one row per edit: ``_score_requests`` of one request."""
        return self._score_requests([EditRequest(base, positions, codes)])

    def _score_requests(self, requests: Sequence[EditRequest]) -> np.ndarray:
        """The rows of many edit requests ``(base, positions, codes)``, stacked in request order.

        Edit ``r`` of a request replaces expanded position ``positions[r]``
        of ``base`` with the code point ``codes[r]``, 0 for the sentinel. The
        rows must equal ``score_batch`` of the edited sentences
        (``single_edit``) bit for bit; the score of ``base`` itself is not
        asked for. The first request whose arrays ``check_edits`` refuses, or
        else the first edit that ``single_edit`` refuses, raises its
        ``SentenceError`` before anything is scored. By default the edited
        sentences of all requests are then built and scored one
        ``batch_limit`` slice at a time, so a slice packs the edits of many
        requests and the memory stays bounded.
        """
        for base, positions, codes in requests:  # checked again one at a time below, to hold no copies
            positions, _ = check_edits(positions, codes)
            outside = (positions < 1) | (positions > 2 * len(base) + 1)
            if len(positions) and (XI in base or outside.any()):
                single_edit(base, int(positions[outside.argmax()]), XI)  # raises as it would in the loop below
        edits = (
            (base, i, c)
            for base, positions, codes in requests
            for i, c in zip(*(a.tolist() for a in check_edits(positions, codes)))
        )
        parts = []
        while batch := [single_edit(base, i, chr(c)) for base, i, c in itertools.islice(edits, self.batch_limit)]:
            parts.append(self.score_batch(batch))
        if not parts:
            return np.empty((0, getattr(self, "num_classes", None) or 0))
        return np.concatenate(parts)

    def _score_chunk(self, sentences: list[str]):  # an array or a list of number rows
        raise NotImplementedError


def score_together(oracle: Oracle, requests: Sequence) -> np.ndarray:
    """The checked rows of ``requests``, all of one kind, stacked in order, from one call of ``oracle``.

    Lists of sentences go to one ``score_batch``, edit requests to one
    ``_score_requests``. The rows must come back as one row of
    ``num_classes`` scores per sentence or edit (``check_rows``).
    """
    if isinstance(requests[0], EditRequest):
        scores = oracle._score_requests(requests)
    else:
        scores = oracle.score_batch([s for sentences in requests for s in sentences])
    return check_rows(scores, sum(map(request_rows, requests)), getattr(oracle, "num_classes", None))
