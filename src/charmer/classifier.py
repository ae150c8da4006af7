"""Built-in linear classifier over hashed character n-gram counts.

Deterministic, differentiable in its weights and in convex mixtures of
feature rows, which is what the projected-gradient attack relaxation needs.
Sentences are conceptually padded with boundary markers at both ends before
n-gram extraction. Hashing uses CRC32 so the feature map is stable across
runs and machines; the persisted model format pins orders and dimension.

Training runs in float. Scoring is exact: the weights are rounded once to
fixed point, ``Wq = rint(W·2^s)`` and ``bq = rint(b·2^s)`` in int64, and the
logits are ``(X·Wq + bq) / 2^s``. Integer sums do not depend on the order of
their terms, so two sentences with the same n-gram multiset get bit-equal
logits, and a sentence scored from the difference of its n-grams with a
nearby one gets the same logits as when scored from scratch. ``s`` is the
largest scale at which ``_MAX_GRAMS`` weights and the bias cannot overflow
int64; a longer row raises ``OracleError``.

Whole rows are hashed into CSR count rows and summed from a class-major
``Wq`` (``_wq``), which has a zero column for grams that do not count.
Single edits (``walk_logits``) are not: each is one column, its
neighbourhood of codes and then the edited one down the rows
(``_edit_hoods``), so that array operations run along whole rows. Shifting
those rows gives the keys of the grams of each order, and an edit's removed
and inserted grams are fixed rows of them (``_edit_windows``), whose
weights are gathered from ``_wq``.

A sentence becomes counts one way (``_featurize``): each gram is one packed
int64 key, and its feature index comes from an open-addressing table per
feature width (``_KeyTable``): two fixed arrays of 2^17 slots, 2 MB, probed
for a whole batch at once. The keys it does not hold are hashed together,
CRC32 from byte tables (``_gram_indices``), and inserted; the table is
cleared when they would fill more than half its slots. Training, whole-row
scoring and the base row of a walk all fold these indices into per-row
counts. The base rows' counts are cached for the 64 sentences asked last
(``_hashed_counts``), the bases of one lockstep chunk of records
(``harness._LOCKSTEP_RECORDS``): each record scores its probes and then its
candidates as edits of the same base, and never goes back to an earlier one.

Everything here is numpy: training multiplies the CSR rows by the weights
in numpy passes that add the same terms in the same order as a sparse
product (``train_builtin``), and scoring sums integers, whose order does not
matter.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .attack import check_counts
from .oracle import Oracle, OracleError, check_edit_values, check_edits
from .sentence import XI, SentenceError, single_edit_rows

MAGIC = b"CHNG"
FORMAT_VERSION = 1

_BOUNDARY_LEFT = "\x02"
_BOUNDARY_RIGHT = "\x03"

# grams one scored row may hold; fixes the fixed-point scale of the weights
_MAX_GRAMS = 1 << 14
# the n-gram orders a model may use; each gram packs into one int64 key,
# 21 bits per code point + 1
_ORDERS = (1, 2, 3)
_CODE_BITS = 21
# rows scored together; bounds the memory of a large batch
_CHUNK_ROWS = 512
# rows hashed together; bounds the memory of featurizing a large batch, such as a training set
_FEATURE_ROWS = 64
# single edits scored in one walk; bounds the memory of scoring many requests at once
_WALK_ROWS = 2048
# terms (entries × classes) of one block of training's forward pass (_ell_blocks); bounds its buffer
_ELL_TERMS = 1 << 16
# classes a model file can hold: its class count is one "<I" field
_MAX_CLASSES = 2**32 - 1


# bytes a packed key's gram hashes at most: its codes of up to 4 UTF-8 bytes each, and its order
_MAX_GRAM_BYTES = 4 * max(_ORDERS) + 1
# a code's UTF-8 byte count is how many of these it reaches: 0 for the -1 past a gram's end
_UTF8_STEPS = np.array([0, 0x80, 0x800, 0x10000])


@lru_cache(maxsize=None)  # built on first use, so a process that never hashes never builds them
def _crc_tables() -> tuple[np.ndarray, np.ndarray]:
    """The shares of ``_gram_indices``, ``crc32(bytes([v]) + bytes(d)) ^ crc32(bytes(d + 1))`` at ``[d, v]``,
    and ``crc32(bytes(L))`` at ``[L]``."""
    zeros = [bytes(n) for n in range(_MAX_GRAM_BYTES + 1)]
    of_zeros = np.array([zlib.crc32(z) for z in zeros], dtype=np.uint32)
    shares = [[zlib.crc32(bytes([v]) + zeros[d]) for v in range(256)] for d in range(_MAX_GRAM_BYTES)]
    return np.array(shares, dtype=np.uint32) ^ of_zeros[1:, None], of_zeros


def _gram_indices(keys: np.ndarray, dim: int) -> np.ndarray:
    """The feature index of each packed key (``_gram_keys``): CRC32 of its gram's UTF-8 and order, mod ``dim``.

    A gram of order n hashes ``gram.encode("utf-8") + bytes([n])``, and that
    last byte is ``chr(n)`` in UTF-8, so the codes of all grams, each followed
    by its order, become their bytes in one decode from UTF-32 and encode to
    UTF-8. CRC32 is affine over GF(2): the CRC of L bytes is that of L zero
    bytes XOR the share of each byte v that lies d bytes before the end,
    ``crc32(bytes([v]) + bytes(d)) ^ crc32(bytes(d + 1))`` (``_crc_tables``;
    Sarwate's byte tables, CACM 31(8), 1988). So every byte is one gather
    and every key one XOR fold, with no Python per key.
    """
    shares, of_zeros = _crc_tables()
    codes = np.empty((max(_ORDERS) + 1, len(keys)), dtype=np.int64)  # code by code down the rows, then the order
    codes[:-1] = (keys >> _CODE_BITS * np.arange(max(_ORDERS))[:, None] & ((1 << _CODE_BITS) - 1)) - 1
    codes[-1] = (codes[:-1] >= 0).sum(axis=0)
    size = np.searchsorted(_UTF8_STEPS, codes, side="right")
    codes, size = codes.T[size.T > 0], size.sum(axis=0)
    data = np.frombuffer(codes.astype("<u4").tobytes().decode("utf-32-le").encode("utf-8"), dtype=np.uint8)
    ends = np.cumsum(size)
    share = shares.ravel().take((np.repeat(ends - 1, size) - np.arange(len(data))) << 8 | data)
    crc = np.bitwise_xor.reduceat(share, ends - size) ^ of_zeros[size]
    return crc.astype(np.int64) % dim


# slots of each packed-key table, 2 ** 17: two int64 arrays of 1 MB, at most half of them used
_KEY_TABLE_BITS = 17
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, rounded to odd


class _KeyTable:
    """Feature index of each packed gram key for one feature width (``_gram_keys``).

    An open-addressing table in two fixed arrays of ``2 ** bits`` slots, the
    keys and their feature indices (linear probing; Knuth, TAOCP vol. 3
    §6.4). A key's first slot is ``key · 0x9E3779B97F4A7C15 mod 2^64``
    shifted right by ``64 - bits`` (Fibonacci hashing); when that slot holds
    another key it tries the next, wrapping at the end. Key 0 marks a free
    slot: no packed key is 0, as each code is stored plus one. A batch is
    probed with array operations, so a key found costs no Python; the
    distinct keys not found are hashed together, CRC32 from byte tables
    (``_gram_indices``), and inserted, each from the free slot where its
    probe ended: only new keys that end at the same slot probe on. The table
    is cleared when an insert would fill more than half its slots, so every
    probe ends at a free slot; after a clear the keys go in from their first
    slots, and a batch with more new keys than half the slots inserts only
    the first of them, and still returns every index.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.bits = _KEY_TABLE_BITS
        self.keys = np.zeros(1 << self.bits, dtype=np.int64)
        self.index = np.zeros(1 << self.bits, dtype=np.int64)
        self.used = 0

    def _first_slot(self, keys: np.ndarray) -> np.ndarray:
        return ((keys.view(np.uint64) * _FIBONACCI) >> np.uint64(64 - self.bits)).astype(np.intp)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The feature index of each of the int64 ``keys``."""
        wrap = len(self.keys) - 1
        slot = self._first_slot(keys)
        found = self.keys[slot]
        out = self.index[slot]  # right where the key is in its first slot
        going = np.flatnonzero(found != keys)
        slot, found = slot[going], found[going]
        missed, ends = [], []  # the keys not held, and the free slot where the probe of each ended
        while len(going):
            free = found == 0
            missed.append(going[free])
            ends.append(slot[free])
            going, slot = going[~free], (slot[~free] + 1) & wrap
            found = self.keys[slot]
            hit = found == keys[going]
            out[going[hit]] = self.index[slot[hit]]
            going, slot, found = going[~hit], slot[~hit], found[~hit]
        missed = np.concatenate(missed) if missed else going
        if len(missed):
            new, first, same = np.unique(keys[missed], return_index=True, return_inverse=True)
            index = _gram_indices(new, self.dim)
            out[missed] = index[same]
            self._insert(new, index, np.concatenate(ends)[first])
        return out

    def _insert(self, keys: np.ndarray, index: np.ndarray, slot: np.ndarray) -> None:
        """Add distinct keys that the table does not hold, each probing on from the free ``slot`` where its
        lookup ended."""
        room = len(self.keys) // 2
        if self.used + len(keys) > room:
            self.keys[:] = 0
            self.used = 0
            keys, index = keys[:room], index[:room]
            slot = self._first_slot(keys)
        self.used += len(keys)
        wrap = len(self.keys) - 1
        while len(keys):
            free = np.flatnonzero(self.keys[slot] == 0)
            self.keys[slot[free]] = keys[free]  # of keys that share a free slot, one lands
            won = free[self.keys[slot[free]] == keys[free]]
            self.index[slot[won]] = index[won]
            lost = np.ones(len(keys), dtype=bool)
            lost[won] = False
            keys, index, slot = keys[lost], index[lost], (slot[lost] + 1) & wrap


_KEY_TABLES: dict[int, _KeyTable] = {}


def _padded_codes(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of the padded sentences, concatenated, and their lengths."""
    joined = _BOUNDARY_LEFT + (_BOUNDARY_RIGHT + _BOUNDARY_LEFT).join(texts) + _BOUNDARY_RIGHT
    try:
        raw = joined.encode("utf-32-le")
    except UnicodeEncodeError as exc:  # grams hash as UTF-8, which has no lone surrogates
        raise OracleError(f"cannot score the lone surrogate U+{ord(exc.object[exc.start]):04X}") from None
    codes = np.frombuffer(raw, dtype="<u4").view(np.int32)
    lens = np.fromiter((len(t) + 2 for t in texts), dtype=np.int64, count=len(texts))
    return (codes if len(texts) else codes[:0]), lens


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``first[k], ..., first[k] + count[k] - 1`` for every k, concatenated."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - count - first, count)


def _hash_keys(keys: np.ndarray, dim: int) -> np.ndarray:
    """Feature index of each packed key, from the table of its feature width (``_KeyTable``)."""
    table = _KEY_TABLES.get(dim)
    if table is None:
        table = _KEY_TABLES[dim] = _KeyTable(dim)
    return table.lookup(keys)


def _gram_keys(codes: np.ndarray, lens: np.ndarray, orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The packed key of every gram of each padded row, row by row, and each row's gram count.

    Row ``r`` is the ``lens[r]`` codes after those of the rows before it.
    Each gram packs into one int64 key, ``_CODE_BITS`` bits per code point
    plus one, so that no two grams of any orders share a key.
    """
    n = np.asarray(orders, dtype=np.int64)
    count = np.maximum(lens[:, None] - n + 1, 0).ravel()
    at = _ranges(np.repeat(np.cumsum(lens) - lens, len(n)), count)
    keys = codes[at].astype(np.int64) + 1
    for j in range(1, max(orders)):  # past a row's end only for a lower order, masked off below
        keys |= (codes.take(at + j, mode="clip").astype(np.int64) + 1) << (_CODE_BITS * j)
    own = np.array([(1 << (_CODE_BITS * k)) - 1 for k in orders], dtype=np.int64)  # a key's own order
    keys &= np.repeat(np.tile(own, len(lens)), count)
    return keys, count.reshape(len(lens), len(n)).sum(axis=1)


def _featurize(texts: Sequence[str], orders: tuple[int, ...], dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed n-gram counts of each sentence, as int64 CSR arrays: ``indptr``, ``indices`` and counts.

    The grams of each padded sentence (``_gram_keys``) are hashed
    (``_hash_keys``) and folded to the row's distinct features, in the order
    in which each first occurs; that order fixes the float summation order of
    training. ``_FEATURE_ROWS`` sentences are hashed at a time.
    """
    texts = list(texts)
    empty = np.zeros(0, dtype=np.int64)
    sizes, indices, counts = [empty], [empty], [empty]
    for start in range(0, len(texts), _FEATURE_ROWS):
        chunk = texts[start : start + _FEATURE_ROWS]
        codes, lens = _padded_codes(chunk)
        keys, per_row = _gram_keys(codes, lens, orders)
        cells = np.repeat(np.arange(len(chunk)), per_row) * dim + _hash_keys(keys, dim)
        cells, first, count = np.unique(cells, return_index=True, return_counts=True)
        order = np.argsort(first)
        cells, count = cells[order], count[order]
        sizes.append(np.bincount(cells // dim, minlength=len(chunk)))
        indices.append(cells % dim)
        counts.append(count)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return indptr, np.concatenate(indices), np.concatenate(counts)


# one base per record of a lockstep chunk (harness._LOCKSTEP_RECORDS): each step asks once for each
@lru_cache(maxsize=64)
def _hashed_counts(text: str, orders: tuple[int, ...], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``_featurize`` of one sentence: its feature indices and their counts, cached; do not write to them."""
    _, indices, counts = _featurize([text], orders, dim)
    return indices, counts


def _edit_windows(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The grams an edit can remove or insert, as rows of the gram stack of its neighbourhoods.

    An edit's neighbourhood is ``2r + 1`` codes, ``r = max(orders) - 1``,
    with its site at row ``r``; the edited one follows from row ``2r + 1``
    (``_integer_walk``). The stack holds the keys of the grams of orders 1
    to ``max(orders)`` down those ``4r + 2`` rows, order by order: ``4r + 3 -
    n`` of order ``n``. The grams that overlap a site of one code are, for
    each order ``n``, the ``n`` that start from row ``r - n + 1`` to ``r``;
    those that span a site of no codes leave out the one at ``r``. Returns,
    per window, removed ones first, its row in the stack and whether it
    starts at the site.
    """
    r = max(orders) - 1
    first = np.cumsum([0] + [4 * r + 3 - n for n in range(1, r + 1)])  # row 0 of each order's grams
    order = np.repeat(orders, orders)
    start = r + 1 - order + np.concatenate([np.arange(n) for n in orders])
    rows = first[order - 1] + start
    return np.concatenate((rows, rows + 2 * r + 1)), np.tile(start == r, 2)


def _edit_hoods(bases: list[str], which: np.ndarray, positions: np.ndarray, codes: np.ndarray, r: int) -> np.ndarray:
    """The padded codes within ``r`` of each edit of each walk, 0 outside the row, one column per edit.

    Edit ``j`` of walk ``w`` (``BuiltinClassifier.walk_logits``), from
    ``bases[which[w]]``, is column ``w·k + j`` of the ``(2r + 1, m·k)``
    int64 array: the codes ``lo - r`` to ``lo + r`` of the padded ``t_j``,
    for ``lo = (i + 1) // 2`` and the edit's position ``i``. Each ``t_j`` is
    a row of code points (``sentence.single_edit_rows``) that holds ``r``
    zeros, the padded sentence and zeros to its end, so that the
    neighbourhood of edit ``j`` is its ``2r + 1`` codes from ``lo`` on:
    ``t_0`` is the row of the walk's base, one row for every base, and no
    row is built after the last edit.
    """
    m, k = positions.shape
    lead = r + 1  # the codes of a row before those of its sentence: r zeros and the left pad
    padded, lens = _padded_codes(bases)
    rows = np.zeros((len(bases), r + int(lens.max(initial=0)) + k + r), dtype=np.int32)  # room for k insertions
    for b, (end, n) in enumerate(zip(np.cumsum(lens).tolist(), lens.tolist())):
        rows[b, r : r + n] = padded[end - n : end]
    row_of, lens = which, (lens + r).take(which)
    window = np.arange(2 * r + 1)[:, None]
    hoods = np.empty((2 * r + 1, m, k), dtype=np.int64)
    for j in range(k):
        if j:  # a row's sentence is t_{j-1} with its pads, edited inside them
            rows, row_of = rows.take(row_of, axis=0), np.arange(m)
            rows, lens = single_edit_rows(rows, lens, positions[:, j - 1] + 2 * lead, codes[:, j - 1])
        hoods[:, :, j] = rows.take(row_of * rows.shape[1] + (positions[:, j] + 1) // 2 + window)
    return hoods.reshape(2 * r + 1, m * k)


def _distinct(columns: list[np.ndarray], bits: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The index of one row of each distinct row of ``columns``, and each row's distinct one.

    A column's values are below ``2 ** bits``; the columns are packed in
    order into as few 64-bit keys as hold them, which sort faster than the
    columns themselves.
    """
    keys, key, used = [], np.zeros(len(columns[0]), dtype=np.uint64), 0
    for column, b in zip(columns, bits):
        if used + b > 64:
            keys.append(key)
            key, used = np.zeros_like(key), 0
        key = (key << np.uint64(b)) | column.astype(np.uint64)
        used += b
    keys.append(key)
    order = np.lexsort(keys)
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = np.any([key[order[1:]] != key[order[:-1]] for key in keys], axis=0)
    same = np.empty(len(order), dtype=np.int64)
    same[order] = np.cumsum(fresh) - 1
    return order[fresh], same


def _check_orders(orders) -> tuple[int, ...]:
    """``orders`` as a tuple; ``OracleError`` unless it is a non-empty choice of 1, 2 and 3."""
    checked = tuple(orders) if isinstance(orders, (tuple, list)) else ()
    if not checked or len(set(checked)) != len(checked) or not all(type(n) is int and n in _ORDERS for n in checked):
        raise OracleError(f"n-gram orders must be a non-empty choice of 1, 2 and 3, not {orders!r}")
    return checked


def _scale_bits(weights: np.ndarray, bias: np.ndarray) -> int:
    """The largest ``s`` at which ``_MAX_GRAMS`` weights and the bias sum in int64."""
    top = max(float(np.max(np.abs(weights), initial=0.0)), float(np.max(np.abs(bias), initial=0.0)))
    if not np.isfinite(top):
        raise OracleError("classifier weights must be finite")
    if top == 0.0:
        return 0
    room = (2.0**63 - 1) / (_MAX_GRAMS + 1)
    if room / top < np.inf:
        s = int(np.floor(np.log2(room / top)))
    else:  # a top below 2^-975: the quotient of its mantissa stays finite
        mantissa, exponent = np.frexp(top)
        s = int(np.floor(np.log2(room / mantissa))) - int(exponent)
    while (_MAX_GRAMS + 1) * int(np.rint(np.ldexp(top, s))) > 2**63 - 1:
        s -= 1
    return s


@dataclass
class BuiltinClassifier:
    ngram_orders: tuple[int, ...]
    feature_dim: int
    weights: np.ndarray  # (num_classes, feature_dim)
    bias: np.ndarray  # (num_classes,)

    def __post_init__(self):
        self.ngram_orders = _check_orders(self.ngram_orders)
        dim = self.feature_dim
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise OracleError(f"feature_dim must be an integer >= 1, not {dim!r}")
        shape = np.shape(self.weights)
        if len(shape) != 2 or shape[0] < 2 or shape[1] != dim:
            raise OracleError(f"weights of shape {shape} are not (classes >= 2, feature_dim = {dim})")
        if np.shape(self.bias) != shape[:1]:
            raise OracleError(f"bias of shape {np.shape(self.bias)} does not match {shape[0]} classes")
        # the fixed-point copy scoring uses; the float weights are not read again
        self.scale_bits: int = _scale_bits(self.weights, self.bias)
        # Wq class-major, for gathers of the weights of rows and edits, with a last column of zeros;
        # about 1 MB at two classes and the default dimension
        self._wq = np.zeros((shape[0], dim + 1), dtype=np.int64)
        wq = np.ldexp(self.weights, self.scale_bits)
        self._wq[:, :-1] = np.rint(wq, out=wq)
        self._bq = np.rint(np.ldexp(self.bias, self.scale_bits)).astype(np.int64)
        self._windows = _edit_windows(self.ngram_orders)
        # the longest sentence whose padded n-grams, len(orders)·(L + 3) - sum(orders),
        # number at most _MAX_GRAMS
        self._max_chars = (_MAX_GRAMS + sum(self.ngram_orders)) // len(self.ngram_orders) - 3

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def features(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hashed n-gram counts of each sentence as int64 CSR arrays ``(indptr, indices, counts)``,
        each row in first-occurrence order (``_featurize``)."""
        return _featurize(texts, self.ngram_orders, self.feature_dim)

    def _row_sums(self, indptr: np.ndarray, indices: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``X·Wq`` in int64 of CSR count rows, one row per row.

        The row sums are differences of one running sum over all the terms,
        so an empty row is zero. A running sum may wrap past int64; its
        differences are exact modulo 2^64, and so exact where a row's sum fits.
        """
        running = np.zeros((self.num_classes, len(indices) + 1), dtype=np.int64)
        np.cumsum(self._wq.take(indices, axis=1) * counts, axis=1, out=running[:, 1:])
        return (running[:, indptr[1:]] - running[:, indptr[:-1]]).T

    def logits(self, texts: Sequence[str]) -> np.ndarray:
        """Exact logits ``(X·Wq + bq) / 2^s``, one row per sentence."""
        Z = self._integer_logits(list(texts)) + self._bq
        return np.ldexp(Z.astype(np.float64), -self.scale_bits)

    def candidate_logits(self, texts: Sequence[str]) -> np.ndarray:
        """Exact logit rows without the bias, ``X·Wq / 2^s``, for mixtures."""
        return np.ldexp(self._integer_logits(list(texts)).astype(np.float64), -self.scale_bits)

    def walk_logits(self, base: str, positions: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``candidate_logits`` of the sentences that walks of single edits reach from ``base``.

        Walk ``w`` is row ``w`` of the ``(m, k)`` arrays: its edit ``j``
        replaces expanded position ``positions[w, j]`` of ``t_j`` with the
        code point ``codes[w, j]``, 0 for the sentinel, giving ``t_{j+1}``
        (``sentence.single_edit``) from ``t_0 = base``; its sentence is
        ``t_k``. An edit at ``i`` rewrites the padded sentence at ``lo = (i +
        1) // 2``: it cuts the code there for even ``i``, and inserts one
        unless the code is the sentinel. It adds the grams that overlap the
        inserted code and takes away the grams that overlap the cut one, and
        these lie within the ``r = max(orders) - 1`` codes on either side of
        ``lo`` (``_edit_hoods``). So edits with the same such neighbourhood,
        code and parity change the logits alike; for walks of more than one
        edit, which share their first edits, each distinct one is scored once.
        An edit's removed grams are the windows of its neighbourhood that
        overlap the cut code, or span ``lo`` when nothing is cut; its
        inserted grams are the windows of the edited neighbourhood (the
        ``r`` codes before ``lo``, the inserted code if there is one, the
        ``r`` codes after the cut) that overlap the inserted code, or span
        the gap when nothing is inserted. These are at most ``sum(orders)``
        windows a side, fixed rows of the neighbourhoods' gram keys
        (``_edit_windows``); one that reaches past the row counts for
        nothing. The edits' keys are looked up (``_hash_keys``) and the
        base's counts taken from ``_hashed_counts``; their integer weights
        are summed from gathers of the class-major ``Wq``. A sentence is the
        integer logits of ``base`` plus the changes of its walk's edits. The
        sums are exact, so the rows equal ``candidate_logits`` of the
        sentences bit for bit. Each edit is checked against its own ``t_j``:
        the first out of range, walk by walk, raises ``single_edit``'s
        ``SentenceError``, and so do arrays of two shapes and arrays that
        ``check_edit_values`` refuses, such as floats, before anything else.
        """
        positions, codes = np.asarray(positions), np.asarray(codes)
        if positions.shape != codes.shape:
            raise SentenceError(f"edit positions of shape {positions.shape} but codes of shape {codes.shape}")
        check_edit_values(positions, codes)
        walks = np.zeros(len(positions), dtype=np.intp)
        return np.ldexp(self._integer_walk([base], walks, positions, codes).astype(np.float64), -self.scale_bits)

    def _integer_walk(self, bases: list[str], which: np.ndarray, positions, codes) -> np.ndarray:
        """``walk_logits`` in int64, before the scale, of walks from many bases: walk ``w`` from ``bases[which[w]]``.

        The ``(m, k)`` arrays are taken as checked (``check_edit_values``).
        """
        positions, codes = np.asarray(positions, dtype=np.int64), np.asarray(codes, dtype=np.int64)
        m, k = positions.shape
        base_len = np.fromiter(map(len, bases), dtype=np.int64, count=len(bases)).take(which)
        odd, sentinel = positions % 2 == 1, codes == 0
        shift = (odd & ~sentinel).astype(np.int64) - (~odd & sentinel)  # an insertion, a deletion or neither
        top = 2 * (base_len[:, None] + np.cumsum(shift, axis=1) - shift) + 1  # the last position of each t_j
        outside = (positions < 1) | (positions > top)
        if any(XI in b for b in bases) or outside.any():
            held = np.array([XI in b for b in bases]).take(which)  # single_edit refuses such a base before its edits
            refused = np.flatnonzero(held | outside.any(axis=1))
            if len(refused):
                w = refused[0]  # the first walk, then edit, that single_edit would refuse
                if held[w]:
                    raise SentenceError("cannot edit a sentence containing the sentinel")
                j = np.argmax(outside[w])
                raise SentenceError(f"position {positions[w, j]} out of range [1, {top[w, j]}]")
        self._check_length(int((base_len + shift.sum(axis=1)).max()) if m else 0)
        r = max(self.ngram_orders) - 1
        hood = _edit_hoods(bases, which, positions, codes, r)
        put, cut = codes.ravel(), positions.ravel() % 2 == 0
        if k > 1:  # one edit per distinct neighbourhood, code and parity; walks share their first edits
            one, same = _distinct([*hood, put, cut], [_CODE_BITS] * (2 * r + 2) + [1])
            hood, put, cut = hood[:, one], put[one], cut[one]
        # each edit's neighbourhood, then the edited one: the r codes before the site, the
        # inserted code if there is one, the r codes after the cut, and a zero to fill
        inserted = put != 0
        after = np.where(cut, hood[r + 1 :], hood[r:-1])
        right = np.where(inserted, np.vstack((put, after)), np.vstack((after, np.zeros_like(put))))
        both = np.vstack((hood, hood[:r], right))
        # the key of every gram down the rows, order by order (_edit_windows), and whether it reaches past the row
        key, zero = both + 1, both == 0
        keys, past = [key], [zero]
        for n in range(1, r + 1):
            keys.append(keys[-1][:-1] | key[n:] << (_CODE_BITS * n))
            past.append(past[-1][:-1] | zero[n:])
        rows, at_site = self._windows
        half = len(rows) // 2
        # a window counts if it lies in the row, and a window that starts at a site of no codes does not
        keys, counted = np.vstack(keys).take(rows, axis=0), ~np.vstack(past).take(rows, axis=0)
        counted[:half] &= cut | ~at_site[:half, None]
        counted[half:] &= inserted | ~at_site[half:, None]
        index = np.full(keys.shape, self.feature_dim)  # the zero column
        index[counted] = _hash_keys(keys[counted], self.feature_dim)
        weights = self._wq.take(index, axis=1)
        change = (weights[:, half:].sum(axis=1) - weights[:, :half].sum(axis=1)).T
        if k > 1:
            change = change[same]
        base_rows = [_hashed_counts(base, self.ngram_orders, self.feature_dim) for base in bases]
        indptr = np.cumsum([0] + [len(index) for index, _ in base_rows])
        base_logits = self._row_sums(indptr, *(np.concatenate(part) for part in zip(*base_rows)))
        return base_logits.take(which, axis=0) + change.reshape(m, k, self.num_classes).sum(axis=1)

    def _check_length(self, longest: int) -> None:
        if longest > self._max_chars:
            raise OracleError(
                f"a sentence of {longest} characters exceeds the scoring bound of "
                f"{self._max_chars} characters ({_MAX_GRAMS} n-grams)"
            )

    def _integer_logits(self, texts: list[str]) -> np.ndarray:
        """``X·Wq`` in int64, ``_CHUNK_ROWS`` rows at a time."""
        self._check_length(max(map(len, texts), default=0))
        Z = np.empty((len(texts), self.num_classes), dtype=np.int64)
        for start in range(0, len(texts), _CHUNK_ROWS):
            Z[start : start + _CHUNK_ROWS] = self._row_sums(*self.features(texts[start : start + _CHUNK_ROWS]))
        return Z

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        if not len(texts):
            return np.zeros(0, dtype=np.int64)
        return np.argmax(self.logits(texts), axis=1)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<I", len(self.ngram_orders)))
            for n in self.ngram_orders:
                fh.write(struct.pack("<I", n))
            fh.write(struct.pack("<II", self.feature_dim, self.num_classes))
            fh.write(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.bias, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BuiltinClassifier":
        """A saved model; ``OracleError`` naming ``path`` for a damaged or foreign file."""
        with open(path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size

            def read(size: int, what: str) -> bytes:
                nonlocal left
                if size > left:
                    raise OracleError(f"{path}: model file cut short in its {what}")
                left -= size
                return fh.read(size)

            if read(4, "magic") != MAGIC:
                raise OracleError(f"{path}: not a builtin classifier file (bad magic)")
            (version,) = struct.unpack("<I", read(4, "header"))
            if version != FORMAT_VERSION:
                raise OracleError(f"{path}: unsupported model format version {version}")
            (n_orders,) = struct.unpack("<I", read(4, "header"))
            orders = struct.unpack(f"<{n_orders}I", read(4 * n_orders, "header"))
            dim, o = struct.unpack("<II", read(8, "header"))
            weights = np.frombuffer(read(8 * dim * o, "weights"), dtype="<f8").reshape(o, dim).copy()
            bias = np.frombuffer(read(8 * o, "bias"), dtype="<f8").copy()
            if left:
                raise OracleError(f"{path}: {left} bytes past the end of the model")
        try:
            return cls(ngram_orders=orders, feature_dim=dim, weights=weights, bias=bias)
        except OracleError as exc:
            raise OracleError(f"{path}: {exc}") from None


@dataclass
class TrainConfig:
    ngram_orders: tuple[int, ...] = (1, 2, 3)
    feature_dim: int = 1 << 16
    steps: int = 200
    learning_rate: float = 1.0
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.ngram_orders = _check_orders(self.ngram_orders)
        check_counts(self, "feature_dim", "steps")
        lr, l2 = self.learning_rate, self.l2
        if not (_real(lr) and lr > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, not {lr!r}")
        if not (_real(l2) and l2 >= 0):
            raise ValueError(f"l2 must be a finite number >= 0, not {l2!r}")


def _real(value) -> bool:
    """A finite int or float; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _ell_blocks(
    indptr: np.ndarray, feature: np.ndarray, data: np.ndarray, pad: int, classes: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """CSR rows ``(indptr, feature, data)`` laid out for ``train_builtin``'s forward pass: the order of the
    rows, longest first, and blocks ``(index, counts)`` of consecutive rows in that order.

    In a block, entry ``j`` of its ``r``-th row has its feature at
    ``index[j, r]`` and its count at ``counts[j, r, :]``, once per class, so
    that the gathered weights of every class are multiplied in one pass.
    Each row is padded to the block's first with feature ``pad`` and count
    0. A block holds the rows at least half as long as its first, so
    padding at most doubles the entries, and at most ``_ELL_TERMS`` terms
    unless it is one row, so its buffer of terms stays small.
    """
    sizes = np.diff(indptr)
    order = np.argsort(-sizes, kind="stable")
    longest_first = sizes[order]
    blocks, lo = [], 0
    while lo < len(order):
        width = int(longest_first[lo])
        # past the rows at least half as long as this one
        half = len(order) - int(np.searchsorted(longest_first[::-1], (width + 1) // 2))
        hi = max(lo + 1, min(half, lo + _ELL_TERMS // max(width * classes, 1)))
        rows, lens = order[lo:hi], longest_first[lo:hi]
        column = np.repeat(np.arange(hi - lo), lens)
        slot = np.arange(len(column)) - np.repeat(np.cumsum(lens) - lens, lens)
        entry = np.repeat(indptr[rows], lens) + slot
        index = np.full((width, hi - lo), pad)
        index[slot, column] = feature[entry]
        counts = np.zeros((width, hi - lo, classes))
        counts[slot, column] = data[entry, None]
        blocks.append((index, counts))
        lo = hi
    return order, blocks


def train_builtin(dataset: Sequence[tuple[str, int]], config: TrainConfig = TrainConfig()) -> BuiltinClassifier:
    """Full-batch gradient descent on softmax cross-entropy over hashed counts.

    Reproducible: the seed fixes the weight initialization and the rest of
    the procedure is deterministic. Both products with the count rows ``X``
    add the same terms in the same order as a CSR product does, each sum
    from zero in the order of the rows' entries, so the weights are the
    same bits as with ``scipy.sparse``. The forward pass ``X·W`` sums
    blocks of rows laid out ELL-style (``_ell_blocks``) down their first
    axis, which adds one entry of every row after another. The backward
    pass ``Xᵀ·G`` is one ``bincount`` over the used features, which adds
    its terms in input order.
    """
    if not dataset:
        raise OracleError("training dataset is empty")
    texts = [t for t, _ in dataset]
    for row, (_, y) in enumerate(dataset):
        # a bool is an int; the class count must fit the model file's "<I" field
        if not isinstance(y, (int, np.integer)) or isinstance(y, bool) or not 0 <= y < _MAX_CLASSES:
            raise OracleError(f"training row {row}: label {y!r} is not an int from 0 to {_MAX_CLASSES - 1}")
    labels = np.asarray([y for _, y in dataset], dtype=np.int64)
    o = int(labels.max()) + 1
    if o < 2:
        raise OracleError("need at least 2 classes in the training data")
    present = set(labels.tolist())  # checked before any array of the classes is drawn
    if len(present) < o:
        missing = min(set(range(len(present) + 1)) - present)
        raise OracleError(
            f"class {missing} has no training row; every class from 0 to the largest label {o - 1} needs one"
        )

    n, dim = len(texts), config.feature_dim
    indptr, indices, counts = _featurize(texts, config.ngram_orders, dim)
    sizes = np.diff(indptr)
    data = counts.astype(np.float64)
    used, feature = np.unique(indices, return_inverse=True)
    order, blocks = _ell_blocks(indptr, feature, data, len(used), o)
    place = order.argsort()  # where each row's logits are in block order
    Y = np.zeros((n, o))
    Y[np.arange(n), labels] = 1.0

    rng = np.random.default_rng(config.seed)
    # the weights transposed, (feature_dim, classes) in C order, so that a gather takes a feature's row
    Wt = np.ascontiguousarray(rng.normal(0.0, 1e-3, size=(o, dim)).T)
    b = np.zeros(o)
    used_w = np.zeros((len(used) + 1, o))  # the last row is the pads' zero weights
    terms = np.empty(max(block.size for _, block in blocks))
    Z_blocks = np.empty((n, o))
    Z = np.empty((n, o))
    grad = np.empty((len(used), o))
    step = np.empty_like(Wt)
    for _ in range(config.steps):
        Wt.take(used, axis=0, out=used_w[:-1])
        lo = 0
        for index, block in blocks:
            t = terms[: block.size].reshape(block.shape)
            np.multiply(used_w.take(index, axis=0, out=t, mode="clip"), block, out=t)
            t.sum(axis=0, out=Z_blocks[lo : lo + index.shape[1]])
            lo += index.shape[1]
        Z_blocks.take(place, axis=0, out=Z)
        Z += b
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        G = (P - Y) / n
        # W -= lr·(Gᵀ·X + l2·W), the same operation on each element, in one buffer
        np.multiply(Wt, config.l2, out=step)
        for c in range(o):
            grad[:, c] = np.bincount(feature, data * np.repeat(G[:, c], sizes), len(used))
        step[used] += grad
        step *= config.learning_rate
        Wt -= step
        b -= config.learning_rate * G.sum(axis=0)
    weights = np.ascontiguousarray(Wt.T)
    del Wt, step, terms, blocks  # freed before the model builds its fixed-point copy, which would raise the peak
    return BuiltinClassifier(ngram_orders=config.ngram_orders, feature_dim=dim, weights=weights, bias=b)


def mixture_loss_and_grad(
    classifier: BuiltinClassifier,
    candidate_logits,
    u: np.ndarray,
    y: int,
) -> tuple[float, np.ndarray]:
    """CW loss of the classifier on the convex mixture of candidate feature rows.

    The model is linear, so on the mixture ``Xᵀu`` of feature rows ``X`` its
    logits are ``Zᵀu + b`` with ``Z = X·Wᵀ``. ``candidate_logits`` is that
    (m, num_classes) array, the candidates' logits without the bias. Returns
    ``z[j] - z[y]`` and its exact gradient ``Z[:, j] - Z[:, y]`` with respect
    to the weights ``u`` (a subgradient at argmax ties).
    """
    u = np.asarray(u, dtype=np.float64)
    shape = np.shape(candidate_logits)
    if len(shape) != 2 or shape[1] != classifier.num_classes:
        raise OracleError(f"logit rows of shape {shape} do not match {classifier.num_classes} classes")
    Z = np.asarray(candidate_logits, dtype=np.float64)
    m = Z.shape[0]
    if u.shape != (m,):
        raise OracleError(f"weight vector length {u.shape} does not match {m} candidates")
    if not 0 <= y < classifier.num_classes:
        raise OracleError(f"label {y} out of range")
    z = u @ Z + classifier.bias
    masked = z.copy()
    masked[y] = -np.inf
    j = int(np.argmax(masked))
    return float(z[j] - z[y]), Z[:, j] - Z[:, y]


class BuiltinOracle(Oracle):
    """Oracle adapter around a trained builtin classifier (raw logits out).

    Each batch goes to the classifier whole; it scores ``_CHUNK_ROWS`` rows
    at a time. Single edits are scored as walks of one edit
    (``BuiltinClassifier.walk_logits``), with the bias added in int64 so that
    the rows equal ``score_batch`` of the edited sentences bit for bit. The
    edits of many requests go into one walk with a base per row,
    ``_WALK_ROWS`` rows at a time.
    """

    def __init__(self, classifier: BuiltinClassifier):
        self.classifier = classifier
        self.num_classes = classifier.num_classes

    def score_batch(self, sentences: Sequence[str]) -> np.ndarray:
        return self.classifier.logits(sentences)

    def _score_requests(self, requests) -> np.ndarray:
        bases = [base for base, _, _ in requests]
        edits = [check_edits(positions, codes) for _, positions, codes in requests]
        which = np.repeat(np.arange(len(bases)), [len(positions) for positions, _ in edits])
        if not len(which):
            return np.empty((0, self.num_classes))
        positions = np.concatenate([positions for positions, _ in edits])[:, None]
        codes = np.concatenate([codes for _, codes in edits])[:, None]
        clf, parts = self.classifier, []
        for start in range(0, len(which), _WALK_ROWS):  # walks of one edit, each from its request's base
            rows = slice(start, start + _WALK_ROWS)
            first, last = which[start], which[rows][-1]
            parts.append(clf._integer_walk(bases[first : last + 1], which[rows] - first, positions[rows], codes[rows]))
        return np.ldexp((np.concatenate(parts) + clf._bq).astype(np.float64), -clf.scale_bits)
