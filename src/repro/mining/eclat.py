"""ECLAT frequent itemset mining.

Depth-first search over the itemset lattice with vertical (tidset)
representation: every search node keeps the transaction set of its
itemset, and extending an itemset by one item is a single vectorised AND
(Zaki et al., "New algorithms for fast discovery of association rules",
KDD 1997).  The paper's exact rule search (Section 5.2) is built on the
same traversal; this module provides the plain frequent/condensed variants
used by the baselines and candidate generators.

Tidsets are packed uint64 words (:mod:`repro.core.bitset`): an
intersection touches ``n/64`` words and a support count is a popcount.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bitset import BitMatrix, popcount

__all__ = ["frequent_items", "eclat"]

Itemset = tuple[int, ...]


def _validate(matrix: np.ndarray, minsup: int) -> np.ndarray:
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if array.dtype != bool:
        array = array.astype(bool)
    if minsup < 1:
        raise ValueError("minsup must be at least 1 (absolute support)")
    return array


def _resolve_packed(array: np.ndarray, bits: BitMatrix | None) -> BitMatrix:
    """Validate injected pre-packed columns or pack fresh ones."""
    if bits is None:
        return BitMatrix.from_bool_columns(array)
    if bits.n_bits != array.shape[0] or bits.n_items != array.shape[1]:
        raise ValueError(
            f"bits shape ({bits.n_items} items, {bits.n_bits} bits) does not "
            f"match matrix shape {array.shape}"
        )
    return bits


def frequent_items(matrix: np.ndarray, minsup: int) -> list[tuple[int, int]]:
    """Return ``(item, support)`` pairs of frequent single items.

    ``minsup`` is an absolute transaction count.
    """
    array = _validate(matrix, minsup)
    counts = array.sum(axis=0)
    return [
        (int(item), int(count))
        for item, count in enumerate(counts)
        if count >= minsup
    ]


def eclat(
    matrix: np.ndarray,
    minsup: int,
    max_size: int | None = None,
    items: Sequence[int] | None = None,
    max_itemsets: int | None = None,
    bits: BitMatrix | None = None,
) -> list[tuple[Itemset, int]]:
    """Mine all frequent itemsets of ``matrix``.

    Parameters
    ----------
    matrix:
        Boolean transaction-by-item matrix.
    minsup:
        Absolute minimum support (``>= 1``).
    max_size:
        Optional cap on itemset cardinality.
    items:
        Optional restriction of the item universe (column indices).
    max_itemsets:
        Optional safety cap; a ``RuntimeError`` is raised when the output
        would exceed it (guards against pattern explosion in test code).
    bits:
        Optional pre-packed :class:`BitMatrix` of ``matrix``'s columns,
        skipping the internal repack (the multi-view translator packs
        each view once and shares the columns across all pairs).  Must
        match ``matrix``'s shape.  Packing is deterministic, so injected
        bits are bit-identical to a fresh pack.

    Returns
    -------
    list of ``(itemset, support)`` with itemsets as sorted index tuples.
    The empty itemset is not reported.
    """
    array = _validate(matrix, minsup)
    universe = list(range(array.shape[1])) if items is None else sorted(items)
    packed = _resolve_packed(array, bits)
    results: list[tuple[Itemset, int]] = []

    def check_budget() -> None:
        if max_itemsets is not None and len(results) > max_itemsets:
            raise RuntimeError(
                f"eclat exceeded max_itemsets={max_itemsets}; raise minsup"
            )

    # Seed nodes: frequent single items with their tid masks.
    seeds: list[tuple[int, np.ndarray]] = []
    for item in universe:
        mask = packed.row(item)
        support = popcount(mask)
        if support >= minsup:
            seeds.append((item, mask))
            results.append(((item,), support))
            check_budget()

    def extend(prefix: Itemset, mask: np.ndarray, start: int) -> None:
        if max_size is not None and len(prefix) >= max_size:
            return
        for position in range(start, len(seeds)):
            item, item_mask = seeds[position]
            new_mask = mask & item_mask
            support = popcount(new_mask)
            if support < minsup:
                continue
            itemset = prefix + (item,)
            results.append((itemset, support))
            check_budget()
            extend(itemset, new_mask, position + 1)

    for position, (item, mask) in enumerate(seeds):
        extend((item,), mask, position + 1)
    return results
