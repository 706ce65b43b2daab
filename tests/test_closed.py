"""Unit tests for closed frequent itemset mining."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mining.closed import closed_itemsets
from tests.test_eclat import brute_force_frequent


def brute_force_closed(matrix: np.ndarray, minsup: int):
    """Reference: a frequent itemset is closed iff no frequent superset
    (equivalently, no superset at all) has the same support."""
    frequent = brute_force_frequent(matrix, minsup)
    closed = {}
    for itemset, support in frequent.items():
        is_closed = True
        for other, other_support in frequent.items():
            if other != itemset and set(itemset) < set(other) and other_support == support:
                is_closed = False
                break
        if is_closed:
            closed[itemset] = support
    return closed


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
        expected = brute_force_closed(matrix, minsup)
        mined = {
            itemset: support
            for itemset, support in closed_itemsets(matrix, minsup)
        }
        assert mined == expected

    def test_denser_data(self):
        rng = np.random.default_rng(9)
        matrix = rng.random((15, 6)) < 0.7
        expected = brute_force_closed(matrix, 2)
        mined = dict(closed_itemsets(matrix, 2))
        assert mined == expected


class TestProperties:
    def test_no_duplicates(self, rng):
        matrix = rng.random((30, 8)) < 0.4
        mined = closed_itemsets(matrix, 1)
        itemsets = [itemset for itemset, __ in mined]
        assert len(itemsets) == len(set(itemsets))

    def test_closed_subset_of_frequent(self, rng):
        matrix = rng.random((30, 6)) < 0.4
        frequent = set(brute_force_frequent(matrix, 2))
        closed = {itemset for itemset, __ in closed_itemsets(matrix, 2)}
        assert closed <= frequent

    def test_fewer_closed_than_frequent(self):
        # Perfectly correlated columns: many frequent, few closed.
        column = np.random.default_rng(0).random(30) < 0.5
        matrix = np.stack([column] * 5, axis=1)
        frequent = brute_force_frequent(matrix, 1)
        closed = closed_itemsets(matrix, 1)
        assert len(closed) == 1
        assert len(frequent) == 2 ** 5 - 1

    def test_budget_guard(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((40, 12)) < 0.8
        with pytest.raises(RuntimeError, match="max_itemsets"):
            closed_itemsets(matrix, 1, max_itemsets=5)

    def test_minsup_above_transactions(self, rng):
        matrix = rng.random((5, 3)) < 0.5
        assert closed_itemsets(matrix, 6) == []

    def test_minsup_validation(self, rng):
        matrix = rng.random((5, 3)) < 0.5
        with pytest.raises(ValueError, match="minsup"):
            closed_itemsets(matrix, 0)
