"""The itemset miner against an independent brute-force oracle.

``itemsets`` runs one batched AND + popcount per lattice node, on the C
kernel where it loads and on numpy otherwise; every oracle case runs on
both engines through the ``engine`` switch of ``tests/conftest.py``.
The oracle enumerates every item subset of a small matrix and shares no
code with the miner: a subset is frequent when enough rows contain it,
and closed when no proper superset has the same support.

``tests/test_eclat.py`` and ``tests/test_closed.py`` hold the per-mode
checks, among them ``minsup`` above the row count and ``minsup=0``.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.baselines.krimp import Krimp
from repro.baselines.significant import SignificantRuleMiner
from repro.core.bitset import BitMatrix
from repro.mining.itemsets import itemsets
from tests.conftest import SEARCH_BACKENDS, engine


def brute_force(matrix: np.ndarray, minsup: int, closed: bool, max_size=None) -> dict:
    """``{itemset: support}`` of every frequent (or closed frequent) itemset."""
    n_items = matrix.shape[1]
    support = {
        subset: int(matrix[:, list(subset)].all(axis=1).sum())
        for size in range(1, n_items + 1)
        for subset in itertools.combinations(range(n_items), size)
    }
    found = {}
    for subset, count in support.items():
        if count < minsup or (max_size is not None and len(subset) > max_size):
            continue
        if closed and any(
            set(subset) < set(other) and other_count == count
            for other, other_count in support.items()
        ):
            continue
        found[subset] = count
    return found


def mine(matrix: np.ndarray, minsup: int, closed: bool, max_size=None) -> list:
    return list(itemsets(BitMatrix.from_bool_columns(matrix), minsup, closed, max_size))


def case_matrix(n_rows: int, kind: str) -> np.ndarray:
    """Six random columns, shaped by ``kind``; same seed on every engine."""
    matrix = np.random.default_rng(n_rows).random((n_rows, 6)) < 0.55
    if kind == "all-ones":
        # A column in every row makes the root's closure non-empty.
        matrix[:, 2] = True
    elif kind == "duplicate-and-zero":
        matrix[:, 4] = matrix[:, 1]
        matrix[:, 5] = False
    return matrix


# 63, 64 and 65 rows put the last transaction just below, at and past a
# 64-bit word edge; 130 rows span three words.
@pytest.mark.parametrize("backend", SEARCH_BACKENDS)
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "frequent"])
@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 130])
def test_matches_brute_force(backend, closed, n_rows):
    for kind in ("random", "all-ones", "duplicate-and-zero"):
        matrix = case_matrix(n_rows, kind)
        for minsup in (1, 2, max(1, n_rows // 3)):
            with engine(backend):
                mined = mine(matrix, minsup, closed)
            assert len(mined) == len({itemset for itemset, __ in mined})
            assert dict(mined) == brute_force(matrix, minsup, closed), (kind, minsup)


@pytest.mark.parametrize("backend", SEARCH_BACKENDS)
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "frequent"])
def test_max_size_that_a_closure_jumps_past(backend, closed):
    # Columns 0-2 are identical, so the closure of {0} is {0, 1, 2}: with
    # max_size=2 closed mode neither yields nor extends it.
    rng = np.random.default_rng(5)
    matrix = rng.random((40, 5)) < 0.5
    matrix[:, 1] = matrix[:, 0]
    matrix[:, 2] = matrix[:, 0]
    with engine(backend):
        mined = dict(mine(matrix, 2, closed, max_size=2))
    assert mined == brute_force(matrix, 2, closed, max_size=2)
    if closed:
        assert not any(0 in itemset for itemset in mined)
    else:
        assert (0, 1) in mined


def test_frequent_order_is_pinned():
    # Every frequent singleton first, then the depth-first extensions of
    # each in item order (ECLAT's order, which SignificantRuleMiner reads).
    matrix = np.array(
        [
            [1, 1, 0, 1],
            [1, 1, 1, 0],
            [0, 1, 1, 1],
            [1, 1, 1, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ],
        dtype=bool,
    )
    assert mine(matrix, 2, closed=False) == [
        ((0,), 4), ((1,), 5), ((2,), 4), ((3,), 4),
        ((0, 1), 3), ((0, 1, 2), 2), ((0, 1, 3), 2), ((0, 2), 2), ((0, 3), 3),
        ((1, 2), 4), ((1, 2, 3), 2), ((1, 3), 3), ((2, 3), 2),
    ]
    assert mine(matrix, 2, closed=False, max_size=2) == [
        ((0,), 4), ((1,), 5), ((2,), 4), ((3,), 4),
        ((0, 1), 3), ((0, 2), 2), ((0, 3), 3), ((1, 2), 4), ((1, 3), 3), ((2, 3), 2),
    ]


def test_generator_resumes_where_the_caller_stopped():
    # A caller with a budget takes what it needs and drops the rest.
    bits = BitMatrix.from_bool_columns(np.ones((5, 12), dtype=bool))
    stream = itemsets(bits, 1, closed=False)
    assert len(list(itertools.islice(stream, 11))) == 11
    assert len(list(stream)) == 2 ** 12 - 1 - 11


# Outputs of the two frequent-mode consumers, recorded before the miner
# moved onto packed columns; SignificantRuleMiner's rules depend on the
# enumeration order as well as on the itemsets.
def test_krimp_pin(planted_dataset):
    joint, __ = planted_dataset.joined()
    result = Krimp(minsup=3).fit(joint)
    assert result.itemsets() == [
        (2, 5, 9, 11, 14), (0, 10, 11, 17), (10, 11, 17), (7, 13, 14),
        (5, 11, 14), (13, 14), (11, 14), (0, 10),
    ]
    assert result.n_candidates == 412
    assert result.effective_minsup == 3
    assert result.final_bits == pytest.approx(1305.4102247502512, abs=1e-9)


def test_significant_rule_miner_pin(planted_dataset):
    rules = SignificantRuleMiner().mine(planted_dataset)
    payload = [[list(r.lhs), list(r.rhs), r.direction.value, r.support] for r in rules]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]
    assert (len(rules), digest) == (44, "8e4ab599ab25b40d")
