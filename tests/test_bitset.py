"""Unit and property tests for the packed-bitset kernel primitives.

Every operation of :mod:`repro.core.bitset` is compared against its naive
Boolean-array equivalent on random masks, including the edge shapes the
packing must survive: zero items, zero transactions, a single transaction,
and universe sizes that are not multiples of 64 (so padding bits exist and
must stay zero).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bitset import (
    WORD_BITS,
    BitMatrix,
    n_words_for,
    pack_mask,
    popcount,
    popcount_rows,
    unpack_mask,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EDGE_SIZES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200]


@st.composite
def masks(draw, max_bits=200):
    n = draw(st.integers(min_value=0, max_value=max_bits))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(seed)
    return rng.random(n) < density


class TestPackRoundtrip:
    @SETTINGS
    @given(masks())
    def test_pack_unpack_roundtrip(self, mask):
        words = pack_mask(mask)
        assert words.dtype == np.uint64
        assert words.size == n_words_for(mask.size)
        np.testing.assert_array_equal(unpack_mask(words, mask.size), mask)

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_padding_bits_are_zero(self, n):
        mask = np.ones(n, dtype=bool)
        words = pack_mask(mask)
        # All bits beyond n must be zero: total popcount equals n exactly.
        assert popcount(words) == n
        padded = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert padded.size == n_words_for(n) * WORD_BITS
        assert int(padded[n:].sum()) == 0

    def test_pack_rejects_2d(self):
        with pytest.raises(ValueError):
            pack_mask(np.zeros((2, 2), dtype=bool))


class TestPopcounts:
    @SETTINGS
    @given(masks())
    def test_popcount_equals_bool_sum(self, mask):
        assert popcount(pack_mask(mask)) == int(mask.sum())

    @SETTINGS
    @given(masks(), masks())
    def test_and_popcount_equals_intersection(self, a, b):
        n = min(a.size, b.size)
        a, b = a[:n], b[:n]
        words = pack_mask(a) & pack_mask(b)
        assert popcount(words) == int((a & b).sum())

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_popcount_rows(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.random((5, n)) < 0.4
        bits = BitMatrix.from_bool_rows(matrix)
        np.testing.assert_array_equal(popcount_rows(bits.words), matrix.sum(axis=1))


class TestBitMatrix:
    @pytest.mark.parametrize("n,items", [(0, 0), (0, 3), (1, 1), (1, 4), (63, 2), (64, 2), (65, 2), (130, 5)])
    def test_roundtrip_columns(self, n, items):
        rng = np.random.default_rng(n * 31 + items)
        matrix = rng.random((n, items)) < 0.5
        bits = BitMatrix.from_bool_columns(matrix)
        assert bits.n_items == items
        assert bits.n_bits == n
        assert len(bits) == items
        np.testing.assert_array_equal(bits.to_bool_columns(), matrix)

    def test_row_iteration(self):
        matrix = np.array([[1, 0], [1, 1], [0, 1]], dtype=bool)
        bits = BitMatrix.from_bool_columns(matrix)
        rows = list(bits)
        assert len(rows) == 2
        np.testing.assert_array_equal(rows[0], bits.row(0))

    def test_support_and_counts(self):
        rng = np.random.default_rng(11)
        matrix = rng.random((70, 5)) < 0.5
        bits = BitMatrix.from_bool_columns(matrix)
        np.testing.assert_array_equal(bits.counts(), matrix.sum(axis=0))
        # AND-reduction over an itemset equals the row-wise all().
        support = bits.support([0, 2, 3])
        np.testing.assert_array_equal(
            unpack_mask(support, 70), matrix[:, [0, 2, 3]].all(axis=1)
        )
        # The empty itemset is the full universe.
        assert popcount(bits.support([])) == 70

    def test_single_item_support_is_a_copy(self):
        matrix = np.ones((10, 1), dtype=bool)
        bits = BitMatrix.from_bool_columns(matrix)
        support = bits.support([0])
        support[:] = 0
        assert popcount(bits.row(0)) == 10
