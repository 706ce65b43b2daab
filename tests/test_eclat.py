"""Frequent mode of the itemset miner (``itemsets(..., closed=False)``).

ECLAT's order and output, checked against the brute-force oracle of
``tests/test_itemsets.py``, which also runs every case on both engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import BitMatrix
from repro.mining.itemsets import itemsets
from tests.test_itemsets import brute_force, mine

# Packed-tidset edge shapes: no rows, no columns, one row, and 65 rows so
# the tidsets cross a 64-bit word boundary.
EDGE_SHAPES = {
    "0rows": np.zeros((0, 3), dtype=bool),
    "0cols": np.zeros((1, 0), dtype=bool),
    "1row": np.ones((1, 3), dtype=bool),
    "65rows": np.ones((65, 2), dtype=bool),
}


class TestAgainstBruteForce:
    @pytest.mark.parametrize("shape, minsup", [
        *(pytest.param(None, minsup, id=str(minsup)) for minsup in (1, 2, 5, 10)),
        *(pytest.param(shape, 1, id=shape) for shape in EDGE_SHAPES),
    ])
    def test_matches_brute_force(self, rng, shape, minsup):
        matrix = rng.random((40, 7)) < 0.4 if shape is None else EDGE_SHAPES[shape]
        expected = brute_force(matrix, minsup, closed=False)
        assert dict(mine(matrix, minsup, closed=False)) == expected

    def test_max_size(self, rng):
        matrix = rng.random((30, 6)) < 0.5
        expected = brute_force(matrix, 2, closed=False, max_size=2)
        assert dict(mine(matrix, 2, closed=False, max_size=2)) == expected


class TestProperties:
    def test_supports_decrease_with_size(self, rng):
        matrix = rng.random((50, 6)) < 0.4
        supports = dict(mine(matrix, 1, closed=False))
        for itemset, support in supports.items():
            for drop in range(len(itemset)):
                subset = itemset[:drop] + itemset[drop + 1 :]
                if subset:
                    assert supports[subset] >= support

    def test_minsup_monotone(self, rng):
        matrix = rng.random((50, 6)) < 0.4
        low = set(itemset for itemset, __ in mine(matrix, 2, closed=False))
        high = set(itemset for itemset, __ in mine(matrix, 10, closed=False))
        assert high <= low

    def test_empty_matrix(self):
        assert mine(np.zeros((5, 3), dtype=bool), 1, closed=False) == []

    def test_no_transactions(self):
        assert mine(np.zeros((0, 3), dtype=bool), 1, closed=False) == []

    def test_minsup_validation(self, rng):
        bits = BitMatrix.from_bool_columns(rng.random((5, 3)) < 0.5)
        with pytest.raises(ValueError, match="minsup"):
            itemsets(bits, 0, closed=False)

    def test_frequent_items(self, rng):
        # The frequent single items are the frequent mode at max_size=1.
        matrix = rng.random((50, 5)) < 0.3
        singles = dict(mine(matrix, 3, closed=False, max_size=1))
        counts = matrix.sum(axis=0)
        expected = {(item,): int(count) for item, count in enumerate(counts) if count >= 3}
        assert singles == expected
