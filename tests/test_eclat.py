"""Unit tests for ECLAT frequent itemset mining."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.mining.eclat import eclat, frequent_items


def brute_force_frequent(matrix: np.ndarray, minsup: int, max_size=None):
    """Reference implementation: enumerate all itemsets."""
    n_items = matrix.shape[1]
    results = {}
    limit = n_items if max_size is None else min(max_size, n_items)
    for size in range(1, limit + 1):
        for itemset in itertools.combinations(range(n_items), size):
            support = int(matrix[:, itemset].all(axis=1).sum())
            if support >= minsup:
                results[itemset] = support
    return results


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
        expected = brute_force_frequent(matrix, minsup)
        mined = dict(eclat(matrix, minsup))
        assert mined == expected

    def test_max_size(self, rng):
        matrix = rng.random((30, 6)) < 0.5
        expected = brute_force_frequent(matrix, 2, max_size=2)
        mined = dict(eclat(matrix, 2, max_size=2))
        assert mined == expected

    def test_restricted_universe(self, rng):
        matrix = rng.random((30, 6)) < 0.5
        mined = eclat(matrix, 1, items=[1, 3])
        used = {item for itemset, __ in mined for item in itemset}
        assert used <= {1, 3}


class TestProperties:
    def test_supports_decrease_with_size(self, rng):
        matrix = rng.random((50, 6)) < 0.4
        supports = dict(eclat(matrix, 1))
        for itemset, support in supports.items():
            for drop in range(len(itemset)):
                subset = itemset[:drop] + itemset[drop + 1 :]
                if subset:
                    assert supports[subset] >= support

    def test_minsup_monotone(self, rng):
        matrix = rng.random((50, 6)) < 0.4
        low = set(itemset for itemset, __ in eclat(matrix, 2))
        high = set(itemset for itemset, __ in eclat(matrix, 10))
        assert high <= low

    def test_empty_matrix(self):
        assert eclat(np.zeros((5, 3), dtype=bool), 1) == []

    def test_no_transactions(self):
        assert eclat(np.zeros((0, 3), dtype=bool), 1) == []

    def test_minsup_validation(self, rng):
        matrix = rng.random((5, 3)) < 0.5
        with pytest.raises(ValueError, match="minsup"):
            eclat(matrix, 0)

    def test_budget_guard(self):
        matrix = np.ones((5, 10), dtype=bool)
        with pytest.raises(RuntimeError, match="max_itemsets"):
            eclat(matrix, 1, max_itemsets=10)

    def test_frequent_items(self, rng):
        matrix = rng.random((50, 5)) < 0.3
        singles = dict(frequent_items(matrix, 3))
        counts = matrix.sum(axis=0)
        expected = {item: int(count) for item, count in enumerate(counts) if count >= 3}
        assert singles == expected
