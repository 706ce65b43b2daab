"""Closed mode of the itemset miner (``itemsets(..., closed=True)``).

Checked against the brute-force oracle of ``tests/test_itemsets.py``,
which also runs every case on both engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import BitMatrix
from repro.mining.itemsets import itemsets
from tests.test_itemsets import brute_force, mine


class TestAgainstBruteForce:
    # 67 rows span two 64-bit words, so the packed tidsets carry padding
    # bits into the closure test.
    @pytest.mark.parametrize("seed, minsup, n_rows, density", [
        *(
            pytest.param(seed, minsup, 25, 0.45, id=f"{seed}-{minsup}")
            for seed in (0, 1, 2)
            for minsup in (1, 2, 4)
        ),
        *(
            pytest.param(seed, minsup, 67, 0.4, id=f"67rows-{seed}-{minsup}")
            for seed in (0, 1)
            for minsup in (1, 5)
        ),
    ])
    def test_matches_brute_force(self, seed, minsup, n_rows, density):
        rng = np.random.default_rng(seed)
        matrix = rng.random((n_rows, 7)) < density
        assert dict(mine(matrix, minsup, closed=True)) == brute_force(matrix, minsup, closed=True)

    def test_denser_data(self):
        rng = np.random.default_rng(9)
        matrix = rng.random((15, 6)) < 0.7
        assert dict(mine(matrix, 2, closed=True)) == brute_force(matrix, 2, closed=True)


class TestProperties:
    def test_no_duplicates(self, rng):
        matrix = rng.random((30, 8)) < 0.4
        itemsets_found = [itemset for itemset, __ in mine(matrix, 1, closed=True)]
        assert len(itemsets_found) == len(set(itemsets_found))

    def test_closed_subset_of_frequent(self, rng):
        matrix = rng.random((30, 6)) < 0.4
        frequent = set(brute_force(matrix, 2, closed=False))
        closed = {itemset for itemset, __ in mine(matrix, 2, closed=True)}
        assert closed <= frequent

    def test_fewer_closed_than_frequent(self):
        # Perfectly correlated columns: many frequent, few closed.
        column = np.random.default_rng(0).random(30) < 0.5
        matrix = np.stack([column] * 5, axis=1)
        assert len(mine(matrix, 1, closed=True)) == 1
        assert len(brute_force(matrix, 1, closed=False)) == 2 ** 5 - 1

    def test_minsup_above_transactions(self, rng):
        matrix = rng.random((5, 3)) < 0.5
        assert mine(matrix, 6, closed=True) == []

    def test_minsup_validation(self, rng):
        bits = BitMatrix.from_bool_columns(rng.random((5, 3)) < 0.5)
        with pytest.raises(ValueError, match="minsup"):
            itemsets(bits, 0, closed=True)
