"""Closed frequent itemset mining.

An itemset is *closed* when no proper superset has the same support.
TRANSLATOR-SELECT and TRANSLATOR-GREEDY consume closed frequent two-view
itemsets as candidates (paper, Section 5.3), so this miner is a core
substrate of the reproduction.

The implementation uses prefix-preserving closure extension (the scheme of
LCM / CHARM descendants): every closed set is generated exactly once, from
its unique parent, so no duplicate-detection hash table over all results
is needed and memory stays linear in the recursion depth.

Like :mod:`repro.mining.eclat`, the miner keeps its tidsets as packed
uint64 bitsets, so a closure test over all items is one vectorised
``tids & ~item_words`` against the packed item matrix.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bitset import BitMatrix, popcount
from repro.mining.eclat import _resolve_packed

__all__ = ["closed_itemsets"]

Itemset = tuple[int, ...]


def _closure(packed: BitMatrix, tid_words: np.ndarray, support: int) -> np.ndarray:
    """Closure of a transaction set as a Boolean item mask.

    Item ``i`` is in the closure iff its transaction set covers
    ``tid_words`` (no bit of ``tids`` survives ``& ~item``).  For an
    empty transaction set the closure is the full item universe by
    convention.
    """
    if support == 0:
        return np.ones(packed.n_items, dtype=bool)
    uncovered = tid_words[None, :] & ~packed.words
    return ~uncovered.any(axis=1)


def closed_itemsets(
    matrix: np.ndarray,
    minsup: int,
    max_size: int | None = None,
    items: Sequence[int] | None = None,
    max_itemsets: int | None = None,
    bits: BitMatrix | None = None,
) -> list[tuple[Itemset, int]]:
    """Mine all closed frequent itemsets of ``matrix``.

    Parameters mirror :func:`repro.mining.eclat.eclat` (including the
    optional pre-packed ``bits`` injection).
    The empty itemset is reported only when it is closed (i.e. no item
    occurs in every transaction) — callers interested in rules ignore it
    anyway.

    Returns ``(itemset, support)`` pairs; itemsets are sorted index tuples.
    """
    array = np.asarray(matrix)
    if array.dtype != bool:
        array = array.astype(bool)
    if array.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if minsup < 1:
        raise ValueError("minsup must be at least 1 (absolute support)")
    n_transactions, n_items = array.shape
    universe = np.zeros(n_items, dtype=bool)
    universe[list(range(n_items)) if items is None else list(items)] = True
    packed = _resolve_packed(array, bits)

    results: list[tuple[Itemset, int]] = []

    def check_budget() -> None:
        if max_itemsets is not None and len(results) > max_itemsets:
            raise RuntimeError(
                f"closed_itemsets exceeded max_itemsets={max_itemsets}; raise minsup"
            )

    item_masks = [packed.row(item) for item in range(n_items)]
    supports = array.sum(axis=0)

    def expand(closure_mask: np.ndarray, tid_mask: np.ndarray, support: int, core_item: int) -> None:
        """Recurse over prefix-preserving closure extensions of the current set."""
        itemset = tuple(np.flatnonzero(closure_mask).tolist())
        if itemset and (max_size is None or len(itemset) <= max_size):
            results.append((itemset, support))
            check_budget()
        if max_size is not None and len(itemset) >= max_size:
            return
        for item in range(core_item + 1, n_items):
            if closure_mask[item] or not universe[item]:
                continue
            if supports[item] < minsup:
                continue
            new_tids = tid_mask & item_masks[item]
            new_support = popcount(new_tids)
            if new_support < minsup:
                continue
            new_closure = _closure(packed, new_tids, new_support) & universe
            # Prefix-preserving test: the closure must not add any item
            # smaller than the extension item that was not already present.
            prefix_items = new_closure[:item] & ~closure_mask[:item]
            if prefix_items.any():
                continue
            expand(new_closure, new_tids, new_support, item)

    if n_transactions < minsup:
        return []
    all_tids = packed.support(())
    root_support = popcount(all_tids)
    root_closure = _closure(packed, all_tids, root_support) & universe
    expand(root_closure, all_tids, root_support, -1)
    return results
