import math
import random
import re
import string
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charmer import classifier as classifier_module
from charmer.classifier import (
    MAGIC,
    BuiltinClassifier,
    BuiltinOracle,
    TrainConfig,
    mixture_loss_and_grad,
    train_builtin,
)
from charmer.harness import join_premise
from charmer.oracle import EditRequest, Oracle, OracleError, check_edits, cw_loss
from charmer.sentence import XI, SentenceError, single_edit
from charmer.synth import make_keyword_corpus
from reference import (
    central_difference_gradient,
    feature_mixture_loss_and_grad,
    reference_feature_rows,
    reference_gram_index,
    reference_hashed_counts,
    reference_pack,
    reference_train_builtin,
    reference_window_counts,
)

SMALL = TrainConfig(feature_dim=4096, steps=200, seed=0)


@st.composite
def corpora(draw):
    """Small labelled corpora: repeated texts, empty and non-BMP ones, and
    2 to 4 classes, each with a row (training refuses a class without one)."""
    pool = draw(st.lists(st.text(st.sampled_from("ab é😀𝔸"), max_size=8), min_size=1, max_size=4))
    corpus = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 3)), min_size=2, max_size=8))
    if len({y for _, y in corpus}) == 1:
        corpus[-1] = (corpus[-1][0], (corpus[-1][1] + draw(st.integers(1, 3))) % 4)
    rank = {y: k for k, y in enumerate(sorted({y for _, y in corpus}))}
    return [(text, rank[y]) for text, y in corpus]


def features(texts, orders, dim):
    """``BuiltinClassifier.features`` of a model with these orders and dimension."""
    return BuiltinClassifier(orders, dim, np.zeros((2, dim)), np.zeros(2)).features(texts)


def check_feature_rows(texts, orders, dim):
    """``features`` are int64 CSR arrays whose rows are the reference counts, in first-occurrence order."""
    indptr, indices, counts = features(texts, orders, dim)
    assert indptr.dtype == indices.dtype == counts.dtype == np.int64
    assert len(indptr) == len(texts) + 1 and indptr[0] == 0
    for i, text in enumerate(texts):
        row = np.s_[indptr[i] : indptr[i + 1]]
        ref_idx, ref_val = reference_hashed_counts(text, orders, dim)
        assert indices[row].tolist() == ref_idx.tolist()  # order included
        assert counts[row].tolist() == ref_val.tolist()


class TestFeatures:
    def test_deterministic_and_counted(self):
        one = features(["hello"], (1, 2, 3), 4096)
        two = features(["hello"], (1, 2, 3), 4096)
        assert all(a.tolist() == b.tolist() for a, b in zip(one, two))
        # padded length 7: 7 unigrams + 6 bigrams + 5 trigrams
        assert one[2].sum() == 18

    def test_empty_batch(self):
        indptr, indices, counts = features([], (1, 2), 128)
        assert indptr.tolist() == [0] and len(indices) == len(counts) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab é€😀\x02\x03", max_size=24), st.sampled_from([(1, 2, 3), (2,), (3, 1)]))
    @example("", (1, 2, 3))
    @example("\x02\x03é€😀", (1, 2, 3))
    def test_counts_match_per_gram_hashing(self, text, orders):
        # bypass the sentence cache; the key tables persist across examples
        for dim in (1 << 16, 7):
            idx, val = classifier_module._hashed_counts.__wrapped__(text, orders, dim)
            ref_idx, ref_val = reference_hashed_counts(text, orders, dim)
            assert idx.tolist() == ref_idx.tolist()  # order included
            assert val.tolist() == ref_val.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet="ab é€😀\x02\x03", max_size=24), max_size=5),
        st.sampled_from([(1, 2, 3), (2,), (3, 1)]),
    )
    @example([], (1, 2, 3))
    @example(["", "\x02\x03é€😀", "a"], (1, 2, 3))
    def test_feature_rows_match_per_gram_hashing_in_order(self, texts, orders):
        for dim in (1 << 16, 7):
            check_feature_rows(texts, orders, dim)

    def test_rows_are_hashed_in_chunks_alike(self, monkeypatch):
        texts = ["the movie was good", "", "aaaa aaaa", "é😀 ab", "bad"]
        whole = features(texts, (1, 2, 3), 97)
        monkeypatch.setattr(classifier_module, "_FEATURE_ROWS", 2)
        chunked = features(texts, (1, 2, 3), 97)
        assert all(a.tolist() == b.tolist() for a, b in zip(chunked, whole))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet="ab é€😀\x02\x03", max_size=16), max_size=4),
        st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True),
    )
    def test_window_counts_are_the_grams_overlapping_the_window(self, texts, orders):
        orders = tuple(orders)
        for dim in (1 << 16, 7):
            indptr, indices, counts = features(texts, orders, dim)
            for i, text in enumerate(texts):
                got = Counter()
                row = np.s_[indptr[i] : indptr[i + 1]]
                for col, count in zip(indices[row].tolist(), counts[row].tolist()):
                    got[col] += count
                assert got == reference_window_counts(text, orders, dim, 0, len(text) + 2)

    def test_key_table_cap(self, monkeypatch):
        monkeypatch.setattr(classifier_module, "_KEY_TABLE_BITS", 2)
        monkeypatch.setattr(classifier_module, "_KEY_TABLES", {})
        text = "abcabd é"
        idx, val = classifier_module._hashed_counts.__wrapped__(text, (1, 2, 3), 4096)
        ref_idx, ref_val = reference_hashed_counts(text, (1, 2, 3), 4096)
        assert idx.tolist() == ref_idx.tolist() and val.tolist() == ref_val.tolist()
        table = classifier_module._KEY_TABLES[4096]
        assert len(table.keys) == 4 and table.used <= 2


# code points of every kind a packed key holds: ASCII, the BMP, past it, the boundary markers, the last one
KEY_CHARS = "ab ~é€中😀𝔸\x02\x03\U0010ffff"


# code points of each UTF-8 length, 1 to 4 bytes; the codec leaves out lone surrogates, which no key holds
UTF8_CLASSES = [(0, 0x7F), (0x80, 0x7FF), (0x800, 0xFFFF), (0x10000, 0x10FFFF)]
GRAM_CHARS = st.one_of(
    st.sampled_from(KEY_CHARS),
    *(st.characters(min_codepoint=lo, max_codepoint=hi, codec="utf-8") for lo, hi in UTF8_CLASSES),
)


def check_gram_indices(grams: list[str], dim: int) -> None:
    """The bulk hash of the grams' packed keys is the CRC32 of each gram and its order, modulo ``dim``."""
    keys = np.array([reference_pack(g) for g in grams], dtype=np.int64)
    got = classifier_module._gram_indices(keys, dim)
    assert got.dtype == np.int64
    assert got.tolist() == [reference_gram_index(g, dim) for g in grams]


def first_slot(key: int, bits: int) -> int:
    """A key's first slot in a table of ``2 ** bits`` slots: Fibonacci hashing, in Python integers."""
    return (key * 0x9E3779B97F4A7C15) % 2**64 >> (64 - bits)


def check_key_table(table, dim):
    """Every key a table holds maps to its reference index, and at most half of its slots are used."""
    held = np.flatnonzero(table.keys)
    assert len(held) == table.used <= len(table.keys) // 2
    for slot in held.tolist():
        key = int(table.keys[slot])
        gram = "".join(chr(((key >> (21 * i)) & ((1 << 21) - 1)) - 1) for i in range(3) if key >> (21 * i))
        assert reference_pack(gram) == key
        assert table.index[slot] == reference_gram_index(gram, dim)


def check_probe_chains(table):
    """Each key a table holds is held once, and reached from its first slot without passing a free slot."""
    held = table.keys[table.keys != 0].tolist()
    assert len(held) == len(set(held))
    size = len(table.keys)
    for key in held:
        slot = first_slot(key, table.bits)
        while table.keys[slot] != key:
            assert table.keys[slot] != 0, f"key {key} lies past a free slot"
            slot = (slot + 1) % size


class TestKeyTable:
    """``_hash_keys``, the open-addressing table of packed keys, and ``_gram_indices``, against per-gram CRC32."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(st.sampled_from(KEY_CHARS), min_size=1, max_size=3), min_size=1, max_size=12),
        st.sampled_from([1, 97, 1 << 16]),
        st.sampled_from([1, 2, 3, 17]),
        st.data(),
    )
    def test_matches_per_gram_hashing(self, pool, dim, bits, data):
        # a table of 2 ** bits slots: a few slots make collisions, wrap-arounds, clears and
        # batches of more new keys than the table holds common
        batches = data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=20), min_size=1, max_size=4))
        with mock.patch.object(classifier_module, "_KEY_TABLE_BITS", bits), mock.patch.object(
            classifier_module, "_KEY_TABLES", {}
        ):
            for grams in batches:  # repeats within and across batches
                keys = np.array([reference_pack(g) for g in grams], dtype=np.int64)
                got = classifier_module._hash_keys(keys, dim)
                assert got.dtype == np.int64
                assert got.tolist() == [reference_gram_index(g, dim) for g in grams]
                check_key_table(classifier_module._KEY_TABLES[dim], dim)
                check_probe_chains(classifier_module._KEY_TABLES[dim])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.data())
    def test_new_keys_go_where_their_probes_ended(self, bits, data):
        # many keys of a batch share one or two neighbouring first slots, so that keys inserted
        # together collide with each other, and with the keys the table holds
        dim, grams = 97, [a + b for a in KEY_CHARS for b in KEY_CHARS]
        crowded = data.draw(st.integers(0, 2**bits - 1))
        near = [g for g in grams if first_slot(reference_pack(g), bits) in (crowded, (crowded + 1) % 2**bits)]
        drawn = st.one_of(st.sampled_from(near), st.sampled_from(grams))
        batches = data.draw(st.lists(st.lists(drawn, max_size=2**bits), min_size=1, max_size=5))
        with mock.patch.object(classifier_module, "_KEY_TABLE_BITS", bits), mock.patch.object(
            classifier_module, "_KEY_TABLES", {}
        ):
            for batch in batches:
                keys = np.array([reference_pack(g) for g in batch], dtype=np.int64)
                got = classifier_module._hash_keys(keys, dim)
                assert got.tolist() == [reference_gram_index(g, dim) for g in batch]
                table = classifier_module._KEY_TABLES[dim]
                check_key_table(table, dim)
                check_probe_chains(table)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(GRAM_CHARS, min_size=1, max_size=3), min_size=1, max_size=64),
        st.sampled_from([1, 97, 1 << 16]),
    )
    def test_bulk_hash_matches_per_gram_crc32(self, grams, dim):
        check_gram_indices(grams, dim)

    @pytest.mark.parametrize("dim", [1, 97, 1 << 16])
    def test_bulk_hash_of_thousands_of_keys(self, dim):
        rng = np.random.default_rng(dim)

        def grams(count, lo, hi):  # grams of orders 1-3 of code points in [lo, hi], lone surrogates left out
            codes = rng.integers(lo, hi + 1, size=(count, 3))
            codes = np.where((codes >= 0xD800) & (codes <= 0xDFFF), 0xE000, codes)
            orders = rng.integers(1, 4, size=count)
            return ["".join(map(chr, row[:n])) for row, n in zip(codes.tolist(), orders.tolist())]

        for lo, hi in UTF8_CLASSES:
            check_gram_indices(grams(2000, lo, hi), dim)
        check_gram_indices([g for lo, hi in UTF8_CLASSES for g in grams(1000, lo, hi)], dim)  # every length at once
        check_gram_indices([a + b + c for a in KEY_CHARS for b in KEY_CHARS for c in KEY_CHARS], dim)

    def test_collisions_wrap_clears_and_overflow(self):
        bits, dim = 2, 97  # four slots, two used at most
        grams = [a + b for a in KEY_CHARS for b in KEY_CHARS]
        last = [g for g in grams if first_slot(reference_pack(g), bits) == 3]
        lookup = classifier_module._hash_keys

        def check(batch):
            keys = np.array([reference_pack(g) for g in batch], dtype=np.int64)
            assert lookup(keys, dim).tolist() == [reference_gram_index(g, dim) for g in batch]
            check_key_table(table, dim)

        with mock.patch.object(classifier_module, "_KEY_TABLE_BITS", bits), mock.patch.object(
            classifier_module, "_KEY_TABLES", {}
        ):
            table = classifier_module._KEY_TABLES[dim] = classifier_module._KeyTable(dim)
            check(last[:2] * 2)  # two keys for the last slot: one lands there, the other wraps to slot 0
            assert sorted(table.keys.tolist()) == sorted([0, 0, *map(reference_pack, last[:2])])
            assert {table.keys[3], table.keys[0]} == set(map(reference_pack, last[:2]))
            check(last[1::-1])  # found again, one of them past the wrap
            check(grams[-1:])  # a third key would fill more than half: cleared first
            assert table.used == 1 and table.keys.tolist().count(reference_pack(grams[-1])) == 1
            check(grams[:5] + grams[:5])  # more new keys than the table holds
            assert table.used == 2


class TestTraining:
    def test_memorizes_single_sample(self):
        clf = train_builtin([("only sample here", 1), ("something else", 0)], SMALL)
        assert clf.predict(["only sample here"])[0] == 1

    def test_separable_accuracy(self, desk_corpus, desk_classifier):
        texts = [r.text for r in desk_corpus]
        labels = np.array([r.label for r in desk_corpus])
        acc = float((desk_classifier.predict(texts) == labels).mean())
        assert acc >= 0.95

    def test_seeded_determinism_bitwise(self):
        data = [(r.text, r.label) for r in make_keyword_corpus(40, seed=3)]
        a = train_builtin(data, SMALL)
        b = train_builtin(data, SMALL)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(OracleError):
            train_builtin([], SMALL)

    def test_single_class_rejected(self):
        with pytest.raises(OracleError):
            train_builtin([("a", 0), ("b", 0)], SMALL)

    @pytest.mark.parametrize("bad", [0.5, 1.7, True, "1", None, -1, 2**40])
    def test_a_label_that_is_not_a_class_index_names_its_row(self, bad):
        # 2**40 classes do not fit the class count field of a model file
        with pytest.raises(OracleError, match=r"^training row 2: label "):
            train_builtin([("a", 0), ("b", 1), ("c", bad)], SMALL)

    def test_a_class_without_rows_raises_before_allocating(self):
        # at the default dimension, 10**4 classes would draw a 5 GB weight array
        tracemalloc.start()
        try:
            with pytest.raises(OracleError, match=r"^class 1 has no training row"):
                train_builtin([("a", 0), ("b", 10**4)], TrainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_the_first_class_without_rows_is_named(self):
        with pytest.raises(OracleError, match=r"^class 2 has no training row.* largest label 4 "):
            train_builtin([("a", 0), ("b", 4), ("c", 1), ("d", 3), ("e", 1)], SMALL)

    def test_a_numpy_integer_label_is_a_class_index(self):
        clf = train_builtin([("a", np.int64(0)), ("b", np.int64(1))], SMALL)
        assert clf.num_classes == 2

    def test_a_lone_surrogate_raises_as_in_scoring(self, desk_classifier):
        with pytest.raises(OracleError) as scored:
            desk_classifier.logits(["\ud800"])
        with pytest.raises(OracleError) as trained:
            train_builtin([("\ud800", 0), ("b", 1)], SMALL)
        assert str(trained.value) == str(scored.value) == "cannot score the lone surrogate U+D800"

    @settings(max_examples=60, deadline=None)
    @given(
        corpora(),
        st.sampled_from([(1,), (3, 1), (1, 2, 3)]),
        st.sampled_from([1, 97, 4096]),
        st.sampled_from([0.0, 1e-4]),
        st.sampled_from([0.5, 1.0]),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    @example([("", 0), ("😀𝔸", 2), ("😀𝔸", 1)], (1, 2, 3), 97, 1e-4, 1.0, 3, 0)  # an empty row, three classes
    @example([("", 0), ("", 1)], (3,), 97, 1e-4, 1.0, 3, 0)  # every row empty: no grams at all
    @example([("ab", 0), ("ba é", 1), ("b", 1)], (1, 2, 3), 1, 0.0, 1.0, 5, 0)  # every gram shares one feature
    def test_bit_equal_to_the_reference_loop(self, corpus, orders, dim, l2, lr, steps, seed):
        config = TrainConfig(ngram_orders=orders, feature_dim=dim, steps=steps, learning_rate=lr, l2=l2, seed=seed)
        clf = train_builtin(corpus, config)
        weights, bias = reference_train_builtin(corpus, orders, dim, steps, lr, l2, seed)
        assert clf.weights.shape == weights.shape
        assert clf.weights.tobytes() == weights.tobytes()
        assert clf.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize("terms", [1, 40, 1 << 16])
    def test_bit_equal_to_the_reference_loop_in_blocks_of_any_size(self, terms):
        corpus = [(r.text, r.label) for r in make_keyword_corpus(30, seed=4)] + [("", 0), ("a", 1), ("", 2)]
        config = TrainConfig(feature_dim=4096, steps=4)
        with mock.patch.object(classifier_module, "_ELL_TERMS", terms):
            clf = train_builtin(corpus, config)
        weights, bias = reference_train_builtin(corpus, config.ngram_orders, 4096, 4, 1.0, 1e-4, 0)
        assert clf.weights.tobytes() == weights.tobytes()
        assert clf.bias.tobytes() == bias.tobytes()

    def test_one_long_row_among_short_ones_pads_only_its_own_block(self):
        # padded to the longest row (1,668 entries), the 400 short rows would take about 26 MB
        rng = random.Random(0)
        long_text = "".join(rng.choice(string.ascii_lowercase + " ") for _ in range(1500))
        corpus = [("ab", 0), ("ba c", 1)] * 200 + [(long_text, 1)]
        config = TrainConfig(feature_dim=4096, steps=3)
        train_builtin(corpus[:2], config)  # hashing's tables are built once per process
        tracemalloc.start()
        try:
            clf = train_builtin(corpus, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        weights, bias = reference_train_builtin(corpus, config.ngram_orders, 4096, 3, 1.0, 1e-4, 0)
        assert clf.weights.tobytes() == weights.tobytes()
        assert clf.bias.tobytes() == bias.tobytes()


class TestEllBlocks:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 3), st.sampled_from([1, 8, 64, 1 << 16]))
    def test_each_row_in_order_padded_at_most_twofold(self, sizes, classes, terms):
        indptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        feature = np.arange(indptr[-1])  # each entry's own number, to see where it lands
        data = feature + 1.0
        with mock.patch.object(classifier_module, "_ELL_TERMS", terms):
            order, blocks = classifier_module._ell_blocks(indptr, feature, data, -1, classes)
        assert sorted(order.tolist()) == list(range(len(sizes)))
        assert [sizes[r] for r in order] == sorted(sizes, reverse=True)
        lo = 0
        for index, counts in blocks:
            width, m = index.shape
            assert counts.shape == (width, m, classes)
            assert m == 1 or width * m * classes <= terms
            for r, row in enumerate(order[lo : lo + m].tolist()):
                pads = width - sizes[row]
                assert 0 <= pads <= sizes[row]
                assert index[:, r].tolist() == list(range(indptr[row], indptr[row + 1])) + [-1] * pads
                column = np.concatenate([data[indptr[row] : indptr[row + 1]], np.zeros(pads)])
                assert (counts[:, r] == column[:, None]).all()
            lo += m
        assert lo == len(sizes)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "name, bad",
        [
            ("feature_dim", 0), ("feature_dim", -3), ("feature_dim", 2.0), ("feature_dim", True),
            ("steps", 0), ("steps", -5), ("steps", "3"), ("steps", None),
            ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", math.nan),
            ("learning_rate", math.inf), ("learning_rate", True), ("learning_rate", "1"),
            ("l2", -1e-4), ("l2", math.nan), ("l2", math.inf), ("l2", False), ("l2", None),
        ],
    )
    def test_bad_values_raise_value_error(self, name, bad):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("orders", [(1.0,), (True, 2), 3, "123", None])
    def test_orders_that_are_not_ints_raise_oracle_error(self, orders):
        with pytest.raises(OracleError, match="orders"):
            TrainConfig(ngram_orders=orders)

    def test_valid_values_are_kept(self):
        assert TrainConfig() == TrainConfig((1, 2, 3), 1 << 16, 200, 1.0, 1e-4, 0)
        config = TrainConfig(ngram_orders=[1, 2, 3], feature_dim=1, steps=1, learning_rate=2, l2=0)
        assert config.ngram_orders == (1, 2, 3)
        assert (config.feature_dim, config.steps, config.learning_rate, config.l2) == (1, 1, 2, 0)

    def test_orders_given_as_a_list_train(self):
        data = [("good", 1), ("bad", 0)]
        listed = train_builtin(data, TrainConfig(ngram_orders=[1, 2, 3], feature_dim=64, steps=2))
        tupled = train_builtin(data, TrainConfig(ngram_orders=(1, 2, 3), feature_dim=64, steps=2))
        assert listed.ngram_orders == (1, 2, 3)
        assert listed.weights.tobytes() == tupled.weights.tobytes()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        clf = train_builtin([("good stuff", 1), ("bad stuff", 0)], SMALL)
        path = tmp_path / "model.bin"
        clf.save(path)
        assert path.read_bytes()[:4] == MAGIC
        loaded = BuiltinClassifier.load(path)
        assert loaded.ngram_orders == clf.ngram_orders
        assert loaded.feature_dim == clf.feature_dim
        np.testing.assert_array_equal(loaded.weights, clf.weights)
        np.testing.assert_array_equal(loaded.bias, clf.bias)
        np.testing.assert_array_equal(
            loaded.logits(["good stuff", "zzz"]), clf.logits(["good stuff", "zzz"])
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(OracleError):
            BuiltinClassifier.load(path)


class TestDamagedModel:
    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "model.bin"
        BuiltinClassifier((1, 2), 4, rng.normal(size=(2, 4)), rng.normal(size=2)).save(path)
        return path

    # the file: 28 header bytes (magic, version, 2 orders, dim, classes), 64 of weights, 16 of bias
    @pytest.mark.parametrize("size", [0, 3, 6, 10, 14, 19, 24, 27, 28, 36, 91, 92, 100, 107])
    def test_a_cut_file_names_itself(self, saved, size):
        saved.write_bytes(saved.read_bytes()[:size])
        with pytest.raises(OracleError, match=re.escape(str(saved))):
            BuiltinClassifier.load(saved)

    def test_trailing_bytes_are_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00")
        with pytest.raises(OracleError, match=re.escape(str(saved)) + ".*1 bytes past the end"):
            BuiltinClassifier.load(saved)

    @pytest.mark.parametrize("dim, classes", [(0, 2), (4, 1), (4, 0)])
    def test_a_header_without_features_or_classes_is_rejected(self, tmp_path, dim, classes):
        path = tmp_path / "model.bin"
        _write_model(path, (1, 2, 3), dim=dim, classes=classes)
        with pytest.raises(OracleError, match=re.escape(str(path))):
            BuiltinClassifier.load(path)

    def test_a_huge_header_fails_before_reading(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(MAGIC + struct.pack("<IIIII", 1, 1, 1, 2**32 - 1, 2**32 - 1))
        with pytest.raises(OracleError, match="cut short in its weights"):
            BuiltinClassifier.load(path)


class TestConstruction:
    @pytest.mark.parametrize(
        "dim, weights, bias",
        [
            (0, np.zeros((2, 0)), np.zeros(2)),
            (-1, np.zeros((2, 4)), np.zeros(2)),
            (4.0, np.zeros((2, 4)), np.zeros(2)),
            (4, np.zeros((1, 4)), np.zeros(1)),
            (4, np.zeros((2, 3)), np.zeros(2)),
            (4, np.zeros(8), np.zeros(2)),
            (4, np.zeros((2, 4)), np.zeros(3)),
            (4, np.zeros((2, 4)), np.zeros((2, 1))),
        ],
        ids=["dim-0", "dim-negative", "dim-float", "one-class", "weights-width", "weights-1d", "bias-length", "bias-2d"],
    )
    def test_bad_shapes_raise_oracle_error(self, dim, weights, bias):
        with pytest.raises(OracleError):
            BuiltinClassifier((1,), dim, weights, bias)


class TestOracleAdapter:
    def test_empty_and_determinism(self, desk_oracle):
        assert desk_oracle.score_batch([]).shape == (0, 2)
        a = desk_oracle.score_batch(["the movie was good", "the movie was good"])
        assert a[0].tobytes() == a[1].tobytes()

    def test_trained_sample_scores(self, desk_oracle, desk_corpus):
        row = desk_oracle.score_batch([desk_corpus[0].text])[0]
        assert int(np.argmax(row)) == desk_corpus[0].label


@pytest.fixture(scope="module")
def clf():
    return train_builtin(
        [(r.text, r.label) for r in make_keyword_corpus(60, seed=5)], SMALL
    )


def feature_rows(clf, texts):
    """The reference's float CSR count rows of ``texts`` under the model's orders and dimension."""
    return reference_feature_rows(texts, clf.ngram_orders, clf.feature_dim)


class TestMixtureGradient:
    def test_one_hot_equals_single_candidate(self, clf):
        cands = ["the movie was good", "the movie was bxd", "awful pace"]
        F = feature_rows(clf, cands) @ clf.weights.T
        for i, cand in enumerate(cands):
            u = np.zeros(len(cands))
            u[i] = 1.0
            loss, _ = mixture_loss_and_grad(clf, F, u, 1)
            assert loss == pytest.approx(cw_loss(clf.logits([cand])[0].tolist(), 1), abs=1e-9)

    def test_single_candidate(self, clf):
        F = feature_rows(clf, ["whatever text"]) @ clf.weights.T
        loss, grad = mixture_loss_and_grad(clf, F, np.array([1.0]), 0)
        assert grad.shape == (1,)

    def test_matches_finite_differences(self, clf):
        rng = np.random.default_rng(42)
        texts = [r.text for r in make_keyword_corpus(30, seed=9)]
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 7))
            cands = list(rng.choice(texts, size=m, replace=False))
            F = feature_rows(clf, cands) @ clf.weights.T
            u = rng.dirichlet(np.ones(m))
            y = int(rng.integers(0, 2))
            _, grad = mixture_loss_and_grad(clf, F, u, y)
            fd = central_difference_gradient(
                lambda v: mixture_loss_and_grad(clf, F, v, y)[0], u
            )
            denom = max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, float(np.max(np.abs(grad - fd)) / denom))
        assert worst < 1e-5

    def test_matches_feature_row_formula(self, clf):
        rng = np.random.default_rng(7)
        texts = [r.text for r in make_keyword_corpus(30, seed=9)] + ["", "é€😀"]
        for _ in range(100):
            m = int(rng.integers(1, 9))
            F = feature_rows(clf, list(rng.choice(texts, size=m, replace=False)))
            u = rng.dirichlet(np.ones(m))
            y = int(rng.integers(0, 2))
            loss, grad = mixture_loss_and_grad(clf, F @ clf.weights.T, u, y)
            ref_loss, ref_grad = feature_mixture_loss_and_grad(clf, F, u, y)
            assert abs(loss - ref_loss) <= 1e-12 * max(abs(ref_loss), 1.0)
            scale = max(float(np.max(np.abs(ref_grad))), 1.0)
            assert float(np.max(np.abs(grad - ref_grad))) <= 1e-12 * scale

    def test_dimension_mismatch(self, clf):
        F = feature_rows(clf, ["abc", "def"])
        with pytest.raises(OracleError):
            mixture_loss_and_grad(clf, F @ clf.weights.T, np.array([1.0]), 0)
        with pytest.raises(OracleError):  # feature rows, not logit rows
            mixture_loss_and_grad(clf, F, np.array([0.5, 0.5]), 0)


def _edit(text, i, c, op):
    """One replacement, insertion or deletion at character ``i``."""
    i = min(i, len(text))
    if op == 0 and i < len(text):
        return text[:i] + c + text[i + 1 :]
    if op == 1:
        return text[:i] + c + text[i:]
    return text[:i] + text[i + 1 :]


chars = st.text(alphabet="ab é€😀", max_size=12)
BAD_CODES = (-1, 0xD800, 0x110000)  # no Unicode scalar values
edits = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from("ab é😀x"), st.integers(0, 2)), max_size=3
)


class TestExactLogits:
    @settings(max_examples=200, deadline=None)
    @given(chars, st.text(alphabet="ab é€😀", min_size=5, max_size=12), chars, chars, st.data())
    def test_equal_gram_multisets_give_equal_logits(self, clf, head, dup, mid, tail, data):
        # two edited copies of a duplicated substring, swapped between the
        # copies: the edits stay two characters inside it, so the n-gram
        # multisets of the two sentences are equal
        inner = dup[2:-2]
        variants = []
        for _ in range(2):
            v = inner
            for i, c, op in data.draw(edits):
                v = _edit(v, i, c, op)
            variants.append(dup[:2] + v + dup[-2:])
        one = head + variants[0] + mid + variants[1] + tail
        two = head + variants[1] + mid + variants[0] + tail
        assert Counter(reference_gram_list(one)) == Counter(reference_gram_list(two))
        rows = clf.logits([one, two])
        assert rows[0].tobytes() == rows[1].tobytes()
        # an insertion at either end keeps the multisets equal: both sentences
        # start and end with the same two characters
        oracle = BuiltinOracle(clf)
        ends = [oracle.score_edits(t, np.array([1, 2 * len(t) + 1]), np.array([ord("a")] * 2)) for t in (one, two)]
        assert ends[0].tobytes() == ends[1].tobytes()

    def test_integer_logits_close_to_float(self, clf):
        texts = [r.text for r in make_keyword_corpus(20, seed=4)] + ["", "é€😀"]
        exact = clf.logits(texts)
        floating = feature_rows(clf, texts) @ clf.weights.T + clf.bias
        assert float(np.max(np.abs(exact - floating))) < 1e-11

    @pytest.mark.parametrize("orders", [(1,), (1, 2, 3)])
    def test_longest_row_is_exact_and_one_gram_more_raises(self, orders):
        dim, top = 8, 2.2
        weights = np.array([[top] * dim, [-top] * dim])
        model = BuiltinClassifier(ngram_orders=orders, feature_dim=dim, weights=weights, bias=np.array([top, -top]))
        s = model.scale_bits
        wq = int(np.rint(np.ldexp(top, s)))
        assert (classifier_module._MAX_GRAMS + 1) * wq <= 2**63 - 1 < (classifier_module._MAX_GRAMS + 1) * 2 * wq

        def grams(length):  # padded n-grams of a sentence of this length
            return sum(max(0, length + 3 - n) for n in orders)

        bound = classifier_module._MAX_GRAMS
        longest = max(length for length in range(bound) if grams(length) <= bound)
        text = "a" * longest
        total = grams(longest) * wq + wq
        expected = [float(Fraction(total, 2**s)), float(Fraction(-total, 2**s))]
        oracle = BuiltinOracle(model)
        assert model.logits([text]).tolist() == [expected]
        assert oracle.score_edits(text[:-1], np.array([2 * longest - 1]), np.array([ord("a")])).tolist() == [expected]
        # a base past the bound is still exact: its own logits wrap modulo 2^64
        assert oracle.score_edits(text + "a", np.array([2]), np.array([0])).tolist() == [expected]
        if orders == (1,):
            assert grams(longest) == bound
        with pytest.raises(OracleError):
            model.logits([text + "a"])
        with pytest.raises(OracleError):
            oracle.score_edits(text, np.array([1]), np.array([ord("a")]))
        with pytest.raises(OracleError):
            model.candidate_logits([text + "a"])

    @pytest.mark.parametrize("top", [5e-324, 2.2e-311, 1e-300])
    def test_subnormal_and_tiny_weights_score(self, top):
        model = BuiltinClassifier(ngram_orders=(1,), feature_dim=2, weights=np.array([[top, 0.0], [0.0, 0.0]]), bias=np.zeros(2))
        wq = int(np.rint(np.ldexp(top, model.scale_bits)))
        assert (classifier_module._MAX_GRAMS + 1) * wq <= 2**63 - 1 < (classifier_module._MAX_GRAMS + 1) * 2 * wq
        assert np.isfinite(model.logits(["ab"])).all()

    def test_non_finite_weights_rejected(self):
        with pytest.raises(OracleError):
            BuiltinClassifier((1,), 4, np.array([[np.nan] * 4, [0.0] * 4]), np.zeros(2))


def _write_model(path, orders, dim=4, classes=2):
    """A model file in the persisted format, whatever its orders."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", 1, len(orders)))
        fh.write(b"".join(struct.pack("<I", n) for n in orders))
        fh.write(struct.pack("<II", dim, classes))
        fh.write(np.zeros(classes * dim + classes, dtype="<f8").tobytes())


class TestOrders:
    @pytest.mark.parametrize("orders", [(0,), (0, 1, 2, 3), (4,), (), (1, 5), (2, 2)])
    def test_orders_outside_one_to_three_are_rejected(self, orders, tmp_path):
        with pytest.raises(OracleError, match="orders"):
            BuiltinClassifier(orders, 4, np.zeros((2, 4)), np.zeros(2))
        path = tmp_path / "model.bin"
        _write_model(path, orders)
        with pytest.raises(OracleError, match="orders"):
            BuiltinClassifier.load(path)
        with pytest.raises(OracleError, match="orders"):
            train_builtin([("good", 1), ("bad", 0)], TrainConfig(ngram_orders=orders, feature_dim=16, steps=1))

    @pytest.mark.parametrize("orders", [(1,), (3, 1), (2, 3), (1, 2, 3)])
    def test_every_choice_of_one_to_three_loads(self, orders, tmp_path):
        path = tmp_path / "model.bin"
        _write_model(path, orders)
        assert BuiltinClassifier.load(path).logits(["ab", ""]).shape == (2, 2)


def reference_gram_list(text, orders=(1, 2, 3)):
    padded = "\x02" + text + "\x03"
    return [padded[i : i + n] for n in orders for i in range(len(padded) - n + 1)]


def scored_edits(oracle, s, positions, chars):
    """``oracle.score_edits`` of the edits and ``oracle.score_batch`` of their sentences."""
    codes = np.array([ord(c) for c in chars], dtype=np.int64)
    rows = oracle.score_edits(s, np.array(positions, dtype=np.int64), codes)
    return rows, oracle.score_batch([single_edit(s, i, c) for i, c in zip(positions, chars)])


class TestScoreEdits:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="ab é€😀", max_size=40), st.data())
    def test_equals_score_batch_for_any_edits(self, clf, s, data):
        top = 2 * len(s) + 1
        positions = data.draw(st.lists(st.one_of(st.just(1), st.just(top), st.integers(1, top)), max_size=12))
        # a replacement may keep its character; the sentinel deletes, or does nothing at an odd position
        replaced = [data.draw(st.sampled_from("ab é😀x" + XI + s)) for _ in positions]
        oracle = BuiltinOracle(clf)
        rows, full = scored_edits(oracle, s, positions, replaced)
        assert rows.tobytes() == np.array(full).tobytes()
        # and after a premise, as the harness scores a record of a sentence pair
        premise = data.draw(chars)
        request = EditRequest(s, np.array(positions, dtype=np.int64), np.array([ord(c) for c in replaced]))
        rows = oracle._score_requests([join_premise(premise, request)])
        edited = [single_edit(s, i, c) for i, c in zip(positions, replaced)]
        assert rows.tobytes() == oracle.score_batch(join_premise(premise, edited)).tobytes()

    # 2·len("xy") + 2 is one past the base; shifted past a premise, 0 and -1 would edit it or its newline
    @pytest.mark.parametrize("positions, bad", [([0, -1], 0), ([1, 6], 6)])
    def test_a_premised_position_outside_the_base_raises_as_without_the_premise(self, clf, positions, bad):
        oracle, request = BuiltinOracle(clf), EditRequest("xy", np.array(positions), np.array([97, 98]))
        with pytest.raises(SentenceError) as alone:
            oracle._score_requests([request])
        with pytest.raises(SentenceError) as premised:
            oracle._score_requests([join_premise("pre", request)])
        assert str(premised.value) == str(alone.value) == f"position {bad} out of range [1, 5]"

    @pytest.mark.parametrize("positions", [[0], [1, 9]])
    def test_a_premised_base_with_the_sentinel_raises_as_without_the_premise(self, clf, positions):
        oracle = BuiltinOracle(clf)
        request = EditRequest("x" + XI, np.array(positions), np.full(len(positions), 97))
        with pytest.raises(SentenceError) as alone:
            oracle._score_requests([request])
        with pytest.raises(SentenceError) as premised:
            oracle._score_requests([join_premise("pre", request)])
        assert str(premised.value) == str(alone.value) == "cannot edit a sentence containing the sentinel"

    @pytest.mark.parametrize("length", [0, 1, 2, 5, 32, 256, 1024])
    def test_equals_score_batch_at_every_length(self, clf, length):
        rng = np.random.default_rng(length)
        pool = list("ab é😀") + [XI]
        s = "".join(rng.choice(pool[:-1], size=length))
        top = 2 * length + 1
        positions = [1, top] + rng.integers(1, top + 1, size=120).tolist()
        replaced = [pool[j] for j in rng.integers(0, len(pool), size=len(positions))]  # numpy would drop XI
        rows, full = scored_edits(BuiltinOracle(clf), s, positions, replaced)
        assert rows.tobytes() == full.tobytes()

    def test_chunks_score_alike(self, clf, monkeypatch):
        s = "the movie was good " * 4
        positions = list(range(1, 2 * len(s) + 2)) * 2
        replaced = ["x"] * (2 * len(s) + 1) + [XI] * (2 * len(s) + 1)
        _, whole = scored_edits(BuiltinOracle(clf), s, positions, replaced)
        monkeypatch.setattr(classifier_module, "_CHUNK_ROWS", 7)
        rows, limited = scored_edits(BuiltinOracle(clf), s, positions, replaced)
        assert rows.tobytes() == limited.tobytes() == whole.tobytes()

    def test_the_base_counts_are_cached_across_calls_on_one_base(self, clf):
        oracle, cache = BuiltinOracle(clf), classifier_module._hashed_counts
        for s in ("the movie was good", "a plot", "the movie was good", "a plot"):
            positions = list(range(1, 2 * len(s) + 2))
            hits = []
            for char in ("x", XI):  # as the greedy loop scores probes, then candidates
                hits.append(cache.cache_info().hits)
                rows, full = scored_edits(oracle, s, positions, [char] * len(positions))
                assert rows.tobytes() == full.tobytes()
            assert cache.cache_info().hits > hits[1]


    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="ab é😀", max_size=6),
        st.lists(st.tuples(st.integers(-2, 16), st.sampled_from([0, ord("a"), ord("😀"), *BAD_CODES])), max_size=5),
    )
    @example("abc", [(9, 65)])
    @example("abc", [(1, 65), (0, 65), (-1, 0), (100, 66)])
    @example("abc", [(1, 65), (2, -1)])
    @example("abc", [(9, 0xD800)])
    @example("a\x00", [(1, 0x110000)])
    def test_bad_positions_raise_as_in_the_default(self, clf, base, edits):
        positions = np.array([i for i, _ in edits], dtype=np.int64)
        codes = np.array([c for _, c in edits], dtype=np.int64)
        outcomes = []
        for oracle in (BuiltinOracle(clf), ByBatch(clf)):
            try:
                outcomes.append(oracle.score_edits(base, positions, codes).tobytes())
            except SentenceError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("positions, codes", [([1, 2], [65]), ([3], [65, 0]), ([], [65])])
    def test_positions_and_codes_of_different_lengths_raise(self, clf, positions, codes):
        message = f"{len(positions)} edit positions but {len(codes)} codes"
        for oracle in (BuiltinOracle(clf), ByBatch(clf)):
            with pytest.raises(SentenceError, match=message):
                oracle.score_edits("abc", np.array(positions, dtype=np.int64), np.array(codes, dtype=np.int64))
        with pytest.raises(SentenceError, match="shape"):
            clf.walk_logits("abc", np.array([positions]), np.array([codes]))


class ByBatch(Oracle):
    """The builtin classifier behind the default ``Oracle.score_edits``."""

    def __init__(self, clf):
        self.clf = clf
        self.num_classes = clf.num_classes

    def _score_chunk(self, sentences):
        return self.clf.logits(sentences)


WALK_CHARS = "ab é€😀\x02\x03"  # the boundary codes may be characters of a sentence too


@st.composite
def walks_from(draw, s, k):
    """A walk of k single edits from s: its positions, its code points (0 for the sentinel) and its sentence."""
    t, positions, codes = s, [], []
    for _ in range(k):
        top = 2 * len(t) + 1
        i = draw(st.one_of(st.just(1), st.just(top), st.integers(1, top)))  # both ends, or anywhere
        kind = draw(st.sampled_from(["char", "xi", "same"]))
        if kind == "xi":  # a deletion at even i, a no-op insertion at odd i
            c = XI
        elif kind == "same" and i % 2 == 0:  # a replacement by the same character
            c = t[i // 2 - 1]
        else:
            c = draw(st.sampled_from(WALK_CHARS))
        t = single_edit(t, i, c)
        positions.append(i)
        codes.append(ord(c))
    return positions, codes, t


def check_walk_rows(clf, ks=st.integers(0, 4), examples=200):
    """Hypothesis: ``walk_logits`` rows equal ``candidate_logits`` of the walks' sentences."""

    @settings(max_examples=examples, deadline=None)
    @given(st.text(alphabet=WALK_CHARS, max_size=12), ks, st.data())
    def walks_score_as_their_sentences(s, k, data):
        walks = [data.draw(walks_from(s, k)) for _ in range(data.draw(st.integers(0, 7)))]
        walks.append(([1] * k, [0] * k, s))  # k no-op edits: s itself
        positions = np.array([w[0] for w in walks], dtype=np.int64).reshape(len(walks), k)
        codes = np.array([w[1] for w in walks], dtype=np.int64).reshape(len(walks), k)
        rows = clf.walk_logits(s, positions, codes)
        assert rows.tobytes() == clf.candidate_logits([w[2] for w in walks]).tobytes()

    walks_score_as_their_sentences()


class TestWalkLogits:
    def test_equal_candidate_logits(self, clf):
        check_walk_rows(clf)

    @pytest.mark.parametrize("orders", [(1,), (2,), (3, 1), (1, 2, 3)])
    @pytest.mark.parametrize("dim", [1, 97, 1 << 16])
    def test_equal_candidate_logits_for_every_orders_and_dim(self, orders, dim):
        rng = np.random.default_rng(dim)
        model = BuiltinClassifier(orders, dim, rng.normal(size=(3, dim)), rng.normal(size=3))
        for k in range(4):
            check_walk_rows(model, ks=st.just(k), examples=40)

    @pytest.mark.parametrize(
        "removed, inserted",
        [
            (1, 0),  # the removed windows one code late
            (0, 1),  # the inserted windows one code late
            (-1, -1),  # both one code early
        ],
        ids=["cut+1", "inserted+1", "both-1"],
    )
    def test_an_off_by_one_window_fails_it(self, clf, removed, inserted):
        real = classifier_module._edit_windows

        def mutant(orders):
            rows, at_site = real(orders)
            r = max(orders) - 1
            # the gram stack holds the 4r + 3 - n grams of each order n in turn; shift each window's
            # start within its order, so that it stays a gram of the neighbourhoods' 4r + 2 rows
            first = np.cumsum([0] + [4 * r + 3 - n for n in range(1, r + 2)])
            order = np.searchsorted(first, rows, side="right")
            half = len(rows) // 2
            start = rows - first[order - 1] + np.repeat([removed, inserted], half)
            return first[order - 1] + np.clip(start, 0, 4 * r + 2 - order), at_site

        with mock.patch.object(classifier_module, "_edit_windows", mutant):
            mutated = BuiltinClassifier(clf.ngram_orders, clf.feature_dim, clf.weights, clf.bias)
        with pytest.raises(AssertionError):
            check_walk_rows(mutated)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ab é😀", max_size=6), st.integers(1, 3), st.data())
    def test_bad_positions_raise_as_single_edit_raises(self, clf, base, k, data):
        # each edit is checked against its own t_j; the first bad one, walk by walk, is named
        edit = st.tuples(st.integers(-1, 2 * len(base) + 2 * k + 2), st.sampled_from([0, ord("a"), ord("😀")]))
        walks = data.draw(st.lists(st.lists(edit, min_size=k, max_size=k), max_size=4))
        sentences, error = [], None
        for walk in walks:
            t = base
            try:
                for i, c in walk:
                    t = single_edit(t, i, chr(c) if c else XI)
            except SentenceError as exc:
                error = str(exc)
                break
            sentences.append(t)
        positions = np.array([[i for i, _ in w] for w in walks], dtype=np.int64).reshape(len(walks), k)
        codes = np.array([[c for _, c in w] for w in walks], dtype=np.int64).reshape(len(walks), k)
        if error is None:
            assert clf.walk_logits(base, positions, codes).tobytes() == clf.candidate_logits(sentences).tobytes()
        else:
            with pytest.raises(SentenceError) as raised:
                clf.walk_logits(base, positions, codes)
            assert str(raised.value) == error

    @pytest.mark.parametrize(
        "positions, codes, message",
        [
            ([[1]], [[97.9]], "codes must be integers, not float64"),
            ([[1.7]], [[97]], "positions must be integers, not float64"),
            ([[True]], [[97]], "positions must be integers, not bool"),
            ([[1]], [[False]], "codes must be integers, not bool"),
            ([[1]], [[-1]], "the code point -0x1 is not a Unicode scalar value"),
            ([[99]], [[0xD800]], "the code point 0xd800 is not a Unicode scalar value"),
            ([[1], [3]], [[97], [0x110000]], "the code point 0x110000 is not a Unicode scalar value"),
        ],
    )
    def test_edits_that_check_edits_refuses_raise_as_there(self, clf, positions, codes, message):
        # floats were truncated: [[97.9]] and [[1.7]] scored as [[97]] and [[1]]
        with pytest.raises(SentenceError, match=message):
            clf.walk_logits("abc", positions, codes)
        with pytest.raises(SentenceError, match=message):
            check_edits(np.ravel(positions), np.ravel(codes))

    def test_a_later_edit_is_checked_against_its_own_sentence(self, clf):
        clf.walk_logits("abc", np.array([[2, 5]]), np.array([[0, 66]]))
        with pytest.raises(SentenceError, match=re.escape("position 7 out of range [1, 5]")):
            clf.walk_logits("abc", np.array([[2, 7]]), np.array([[0, 66]]))  # "a" deleted first

    def test_weights_copy_is_the_fixed_point_weights_and_a_zero_column(self):
        model = train_builtin([(r.text, r.label) for r in make_keyword_corpus(30, seed=2)], SMALL)
        assert model._wq.shape == (2, SMALL.feature_dim + 1)
        wq = np.rint(np.ldexp(model.weights, model.scale_bits)).astype(np.int64)
        assert model._wq[:, :-1].tobytes() == wq.tobytes()
        assert not model._wq[:, -1].any()
        check_walk_rows(model, examples=40)

    def test_a_sentence_past_the_bound_raises_as_in_candidate_logits(self, clf):
        s = "a" * clf._max_chars
        longer = s + "a"
        for base, positions, codes in ((s, [[1]], [[ord("b")]]), (longer, [[1], [2]], [[0], [0]])):
            # the second base's walks: a no-op, which stays past the bound, and a deletion back within it
            sentences = [single_edit(base, p[0], chr(c[0])) for p, c in zip(positions, codes)]
            with pytest.raises(OracleError):
                clf.candidate_logits(sentences)
            with pytest.raises(OracleError):
                clf.walk_logits(base, np.array(positions), np.array(codes))
        # a base past the bound whose walks all come back within it is still exact
        shrunk = clf.walk_logits(longer, np.array([[2]]), np.array([[0]]))
        assert shrunk.tobytes() == clf.candidate_logits([single_edit(longer, 2, XI)]).tobytes()



@st.composite
def walks_from_bases(draw, bases, k):
    """A walk of k edits from one of ``bases``: its base index, positions, codes and sentence, or the error of
    ``single_edit`` at its first bad edit; positions may fall outside the sentence."""
    b = draw(st.integers(0, len(bases) - 1))
    if XI not in bases[b] and draw(st.booleans()):
        positions, codes, t = draw(walks_from(bases[b], k))
        return b, positions, codes, t
    t, positions, codes, error = bases[b], [], [], None
    for _ in range(k):
        i, c = draw(st.integers(-1, 2 * len(t) + 2)), draw(st.sampled_from([0, ord("a"), ord("😀")]))
        positions.append(i)
        codes.append(c)
        try:
            t = single_edit(t, i, chr(c) if c else XI) if error is None else t
        except SentenceError as exc:
            error = exc
    return b, positions, codes, error or t


class TestManyBases:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet="ab é€😀", max_size=40) | st.just("a" + XI + "b"), min_size=1, max_size=4),
        st.integers(1, 3),
        st.data(),
    )
    def test_walks_equal_score_batch_of_each_base(self, clf, bases, k, data):
        walks = data.draw(st.lists(walks_from_bases(bases, k), max_size=8))
        which = np.array([w[0] for w in walks], dtype=np.intp)
        positions = np.array([w[1] for w in walks], dtype=np.int64).reshape(len(walks), k)
        codes = np.array([w[2] for w in walks], dtype=np.int64).reshape(len(walks), k)
        error = next((w[3] for w in walks if isinstance(w[3], SentenceError)), None)  # in request order
        if error is not None:
            with pytest.raises(SentenceError) as raised:
                clf._integer_walk(bases, which, positions, codes)
            assert str(raised.value) == str(error)
            return
        Z = clf._integer_walk(bases, which, positions, codes) + clf._bq
        rows = np.ldexp(Z.astype(np.float64), -clf.scale_bits)
        oracle = BuiltinOracle(clf)
        for b in range(len(bases)):  # each base's walks, scored as sentences in one batch
            mine = which == b
            assert rows[mine].tobytes() == oracle.score_batch([w[3] for w in walks if w[0] == b]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.none() | chars, chars), min_size=1, max_size=4), st.data())
    def test_premised_and_plain_requests_in_one_call_score_as_their_sentences(self, clf, records, data):
        # as records of sentence pairs and of single sentences share a call of the harness
        requests, sentences = [], []
        for premise, s in records:
            positions = data.draw(st.lists(st.integers(1, 2 * len(s) + 1), max_size=8))
            replaced = [data.draw(st.sampled_from("ab é😀x" + XI)) for _ in positions]
            codes = np.array([ord(c) for c in replaced], dtype=np.int64)
            requests.append(join_premise(premise, EditRequest(s, np.array(positions, dtype=np.int64), codes)))
            sentences += join_premise(premise, [single_edit(s, i, c) for i, c in zip(positions, replaced)])
        full = BuiltinOracle(clf).score_batch(sentences)
        for oracle in (BuiltinOracle(clf), ByBatch(clf)):
            rows = oracle._score_requests(requests)
            assert len(rows) == len(sentences)
            for row, expected in zip(rows, full):
                assert row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("walk_rows", [1, 3, 2048])
    def test_requests_score_alike_in_slices(self, clf, monkeypatch, walk_rows):
        monkeypatch.setattr(classifier_module, "_WALK_ROWS", walk_rows)
        bases = ["the movie was good", "", "a plot", "the movie was good", "é😀"]
        rng = np.random.default_rng(walk_rows)
        requests, sentences = [], []
        for base in bases:
            m = int(rng.integers(0, 6))
            positions = rng.integers(1, 2 * len(base) + 2, size=m)
            codes = rng.choice([0, ord("x"), ord("😀")], size=m)
            requests.append((base, positions, codes))
            sentences += [single_edit(base, i, chr(c) if c else XI) for i, c in zip(positions.tolist(), codes.tolist())]
        full = BuiltinOracle(clf).score_batch(sentences)
        for oracle in (BuiltinOracle(clf), ByBatch(clf)):
            assert oracle._score_requests(requests).tobytes() == full.tobytes()

    def test_a_chunk_of_bases_stays_cached(self, clf):
        from charmer import harness

        cache = classifier_module._hashed_counts
        bases = [f"record {i} base" for i in range(harness._LOCKSTEP_RECORDS)]
        requests = [(base, np.array([1]), np.array([ord("x")])) for base in bases]
        oracle = BuiltinOracle(clf)
        cache.cache_clear()
        oracle._score_requests(requests)  # the probes of a step
        hits = cache.cache_info().hits
        oracle._score_requests(requests)  # and the candidates of the next, on the same bases
        assert cache.cache_info().hits == hits + len(bases)
