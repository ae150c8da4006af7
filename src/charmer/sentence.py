"""Sentence algebra: edit distance, expansion/contraction and edit balls.

Sentences are plain ``str`` objects treated as sequences of Unicode scalar
values. A reserved sentinel character (U+0000) lets insertions and deletions
be expressed as single-position replacements of the *expanded* sentence,
which interleaves the sentinel before, between and after every character.
Replacing a real character with the sentinel encodes a deletion; replacing a
sentinel slot with a real character encodes an insertion.

All expanded-position indices in this module are 1-based and range over
``[1, 2*len(s) + 1]``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

XI = "\x00"  # reserved sentinel; rejected in every input sentence
L_MAX = 1024  # default maximum sentence length in scalar values


class SentenceError(ValueError):
    pass


class BallBudgetError(RuntimeError):
    """An edit-ball enumeration would exceed its candidate budget."""


@dataclass(frozen=True)
class Alphabet:
    """Finite character set plus the sentinel and the probe test character."""

    chars: tuple[str, ...]
    test_char: str = " "

    def __post_init__(self):
        ordered = tuple(sorted(set(self.chars)))
        object.__setattr__(self, "chars", ordered)
        if any(len(c) != 1 for c in ordered):
            raise SentenceError("alphabet entries must be single scalar values")
        if XI in ordered:
            raise SentenceError("sentinel must not be a member of the alphabet")
        if len(self.test_char) != 1:  # a probe or mask inserts it as one single edit
            raise SentenceError("test character must be a single scalar value")
        if self.test_char == XI:
            raise SentenceError("test character must differ from the sentinel")

    @classmethod
    def from_texts(cls, texts, test_char: str = " ") -> "Alphabet":
        chars = set()
        for t in texts:
            chars.update(t)
        chars.discard(XI)
        return cls(chars=tuple(chars), test_char=test_char)

    def replacement_chars(self) -> tuple[str, ...]:
        """Candidate characters in canonical order: sorted alphabet, then sentinel."""
        return self.chars + (XI,)

    def fingerprint(self) -> str:
        payload = "".join(self.chars).encode("utf-8") + b"\x00" + self.test_char.encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions and replacements.

    Bit-parallel: Myers (J. ACM 1999) in Hyyrö's (2001) edit-distance form.
    After the common prefix and suffix are cut off, each column of the DP
    table over the longer string is one Python int of vertical deltas, and
    one step per character of the shorter string advances it.
    """
    if len(a) < len(b):
        a, b = b, a
    p = 0
    while p < len(b) and a[p] == b[p]:
        p += 1
    q = 0
    while q < len(b) - p and a[-1 - q] == b[-1 - q]:
        q += 1
    a, b = a[p : len(a) - q], b[p : len(b) - q]
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    top = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def expand(s: str) -> str:
    """Interleave the sentinel before, between and after every character."""
    if XI in s:
        raise SentenceError("cannot expand a sentence containing the sentinel")
    return XI + XI.join(s) + XI if s else XI


def contract(e: str) -> str:
    """Remove every occurrence of the sentinel, preserving order."""
    return e.replace(XI, "")


def single_edit(s: str, i: int, c: str) -> str:
    """Replace position ``i`` of the expanded sentence with ``c`` and contract.

    Equals ``contract(e[:i-1] + c + e[i:])`` with ``e = expand(s)``, computed
    on ``s`` directly: an odd ``i`` inserts ``c`` after the first ``i // 2``
    characters, an even ``i`` replaces character ``i // 2`` (1-based); the
    sentinel stands for nothing, so it deletes on even positions and leaves
    ``s`` unchanged on odd ones. The result is always within edit distance 1
    of ``s``. It is the only builder of single-edit sentences;
    ``single_edit_rows`` is the same edit on rows of code points, and
    ``distinct_edits`` lists the distinct edits of many sentences at once.
    """
    if XI in s:
        raise SentenceError("cannot edit a sentence containing the sentinel")
    if not 1 <= i <= 2 * len(s) + 1:
        raise SentenceError(f"position {i} out of range [1, {2 * len(s) + 1}]")
    return s[: (i - 1) // 2] + ("" if c == XI else c) + s[i // 2 :]


def single_edit_rows(rows: np.ndarray, lens: np.ndarray, positions: np.ndarray, codes: np.ndarray):
    """``single_edit`` of many sentences at once, on rows of code points.

    Row ``r`` of the ``(n, width)`` int32 ``rows`` holds the ``lens[r]``
    code points of a sentence and then zeros; it is edited at expanded
    position ``positions[r]`` with the code point ``codes[r]``, 0 for the
    sentinel. Returns the edited rows, zero-padded to the same width, and
    their lengths; row ``r`` holds ``single_edit(t, positions[r],
    chr(codes[r]))`` for the sentence ``t`` of row ``r``.
    """
    if np.any((positions < 1) | (positions > 2 * lens + 1)):
        raise SentenceError("an edit position is out of range [1, 2 * len + 1]")
    kept = (positions - 1) // 2  # characters before the edit
    inserted = codes != 0
    shift = inserted.astype(np.int64) - (1 - positions % 2)  # an even position cuts one character
    new_lens = lens + shift
    if np.any(new_lens > rows.shape[1]):
        raise SentenceError("an edited row does not fit its width")
    moved = rows.copy()  # each row's characters from the edit on, at their new places
    grow, shrink = shift == 1, shift == -1
    moved[grow, 1:] = rows[grow, :-1]
    moved[shrink, :-1] = rows[shrink, 1:]
    moved[shrink, -1] = 0
    out = np.where(np.arange(rows.shape[1]) < kept[:, None], rows, moved)
    at = np.flatnonzero(inserted)
    out[at, kept[at]] = codes[at]
    return out, new_lens


def distinct_edits(
    bases: Sequence[str], positions: Sequence[Sequence[int]], chars: Sequence[str], keeps=None
) -> np.ndarray:
    """The distinct single edits of each of ``bases``, as ``(m, 3)`` int64 ``[record, position, code]`` rows.

    Record ``r`` edits ``bases[r]`` at ``positions[r]``; its rows follow
    those of record ``r - 1``, position by position as given, then ``chars``
    in order. The code is the character's code point, 0 for the sentinel.
    Two edits of one base are the same when they give the same sentence
    (``single_edit``), and the first of them is kept. That is, every no-op
    (the sentinel at an odd position, or an even position's own character)
    is one edit; a deletion is the deletion of the leftmost character of its
    run of equal characters; an insertion of ``c`` is the insertion at the
    leftmost slot of its run of ``c``; a replacement is itself. ``keeps``, if
    given, holds for each record ``None`` or a boolean mask over its
    ``len(positions[r])`` × ``len(chars)`` grid: an edit it rejects at one
    parametrization may still enter through another. The first record whose
    base holds the sentinel or whose position is out of range raises the
    ``SentenceError`` it raises alone.
    """
    n = len(bases)
    lens = np.fromiter(map(len, bases), dtype=np.int64, count=n)
    at = [np.asarray(p, dtype=np.int64).ravel() for p in positions]
    sizes = [len(p) for p in at]
    record = np.repeat(np.arange(n), sizes)
    at = np.concatenate([np.empty(0, dtype=np.int64), *at])
    # the bases one after another, each after a code no character has, so that
    # index starts[r] + i // 2 holds the character an even i of record r
    # replaces, or the one before the slot of an odd i
    starts = np.cumsum(lens + 1) - lens - 1
    flat = np.full(n + lens.sum(), -1, dtype=np.int64)
    is_char = np.ones(len(flat), dtype=bool)
    is_char[starts] = False
    flat[is_char] = np.frombuffer("".join(bases).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    # the records whose base holds the sentinel, and those with a position out of range
    sentinel = np.repeat(np.arange(n), lens)[flat[is_char] == 0]
    bad = np.concatenate([sentinel, record[(at < 1) | (at > 2 * lens[record] + 1)]])
    if len(bad):
        r = int(bad.min())
        if XI in bases[r]:
            raise SentenceError("cannot edit a sentence containing the sentinel")
        raise SentenceError(f"an edit position is out of range [1, {2 * lens[r] + 1}]")
    codes = np.fromiter(map(ord, chars), dtype=np.int64, count=len(chars))
    run = np.arange(len(flat))  # the index of the first character of each run of equal characters
    run[1:][flat[1:] == flat[:-1]] = 0
    here = starts[record] + at // 2
    run = np.maximum.accumulate(run)[here] - starts[record]
    # each edit's first form as one key, (origin of its record + position) * 0x110000 + code:
    # a replacement or an insertion is itself, and every no-op is position 1 with code 0
    even = at % 2 == 0
    origin = record * (2 * lens.max(initial=0) + 2)
    key = (origin + at)[:, None] * 0x110000 + codes
    # the sentinel deletes the run's first character at an even position and is a no-op at an odd one
    key[:, codes == 0] = ((origin + np.where(even, 2 * run, 1)) * 0x110000)[:, None]
    # the position's own character is a no-op at an even position and goes to the run's first slot at an odd one
    p, c = np.nonzero(flat[here][:, None] == codes)
    key[p, c] = np.where(even[p], origin[p] + 1, origin[p] + 2 * run[p] - 1) * 0x110000 + np.where(even[p], 0, codes[c])
    key = key.ravel()
    kept = np.ones(len(key), dtype=bool)
    if keeps is not None and any(keep is not None for keep in keeps):
        grids = [
            np.ones(size * len(codes), dtype=bool)
            if keep is None
            else np.reshape(np.asarray(keep, dtype=bool), size * len(codes))
            for size, keep in zip(sizes, keeps)
        ]
        kept = np.concatenate(grids)
        key = np.where(kept, key, -1 - np.arange(len(key)))  # a rejected cell is no other cell's repeat
    order = key.argsort(kind="stable")  # each key's cells in grid order
    key = key[order]
    kept[order[1:][key[1:] == key[:-1]]] = False  # the cells after a key's first
    del key, order  # a chunk's grids are large: freed before the rows are gathered
    cell = np.flatnonzero(kept)
    row = cell // max(len(codes), 1)
    return np.stack([record.take(row), at.take(row), codes.take(cell - row * len(codes))], axis=1)


def generate_neighbors(s: str, alphabet: Alphabet) -> list[str]:
    """All distinct sentences reachable by one expanded-position replacement.

    Returned in canonical order (position ascending, then alphabet order,
    sentinel last), deduplicated keeping the first occurrence. Contains ``s``
    itself whenever every character of ``s`` lies in the alphabet.
    """
    edits = distinct_edits([s], [range(1, 2 * len(s) + 2)], alphabet.replacement_chars())
    return [single_edit(s, i, chr(c)) for _, i, c in edits.tolist()]


def _ball_lower_bound(s: str, alphabet: Alphabet, k: int) -> int:
    """A lower bound on ``len(enumerate_ball(s, alphabet, k))``, in O(len(s)·k).

    Counts three disjoint families of distinct sentences within distance k,
    with ``a_i = |Γ| - [s_i ∈ Γ]`` choices of a character other than ``s_i``:

    - same length, at most k substitutions: the elementary symmetric sums
      e_0(a) + ... + e_k(a);
    - d = 1..k pure insertions, only when every character of ``s`` is in Γ:
      the supersequences of length L+d, Σ_{i≤d} C(L+d, i)(|Γ|-1)^i whatever
      ``s`` is;
    - for k ≥ 2, one substitution at q and one insertion after r ≥ q of a
      character other than ``s_r``: Σ_{q≤r} a_q·a_r. Such a sentence first
      differs from ``s`` from the left at q and from the right at r ≥ q,
      which no single insertion does, and q, r and both characters can be
      read back from it.
    """
    g = len(alphabet.chars)
    members = set(alphabet.chars)
    a = [g - (c in members) for c in s]
    e = [1] + [0] * k  # e[j] = e_j of the a_i seen so far
    for ai in a:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * ai
    total = sum(e)
    n = len(s)
    if g >= 1 and all(c in members for c in s):
        total += sum(
            math.comb(n + d, i) * (g - 1) ** i for d in range(1, k + 1) for i in range(d + 1)
        )
    if k >= 2:
        total += (sum(a) ** 2 + sum(x * x for x in a)) // 2
    return total


def enumerate_ball(s: str, alphabet: Alphabet, k: int, budget: int = 1_000_000) -> list[str]:
    """All sentences within edit distance ``k`` of ``s`` over the alphabet.

    Breadth-first expansion of single edits; refuses with BallBudgetError iff
    the ball holds more than ``budget`` distinct candidates, before building
    any when a lower bound on its size already exceeds the budget. Returns a
    sorted list for determinism.
    """
    if k < 1:
        raise SentenceError("edit radius k must be >= 1")
    if XI in s:
        raise SentenceError("cannot edit a sentence containing the sentinel")
    if _ball_lower_bound(s, alphabet, k) > budget:
        raise BallBudgetError(f"edit ball exceeds candidate budget of {budget}")
    seen = {s}
    frontier = [s]
    for _ in range(k):
        fresh = []
        for t in frontier:
            for nb in generate_neighbors(t, alphabet):
                if nb not in seen:
                    seen.add(nb)
                    fresh.append(nb)
                    if len(seen) > budget:
                        raise BallBudgetError(
                            f"edit ball exceeds candidate budget of {budget}"
                        )
        frontier = fresh
    return sorted(seen)


def ball_size_bounds(sentence_len: int, alphabet_size: int, k: int) -> tuple[int, int]:
    """Lower and upper bounds on the size of the radius-``k`` edit ball.

    For a single-character alphabet the ball size is exactly ``2k + 1``
    (assuming the sentence is at least ``k`` long), so both bounds collapse.
    """
    if alphabet_size < 1:
        raise SentenceError("alphabet size must be >= 1")
    if k < 1:
        raise SentenceError("edit radius k must be >= 1")
    if alphabet_size == 1:
        return 2 * k + 1, 2 * k + 1
    g = alphabet_size
    lower = (g ** (k + 1) - 1) // (g - 1)
    upper = (g + 1) ** k * (2 * (sentence_len + k) - 1) ** k
    return lower, upper
