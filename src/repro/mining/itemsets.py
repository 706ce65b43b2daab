"""Frequent and closed itemset mining over packed columns.

One depth-first traversal of the itemset lattice serves both kinds of
output.  Every node keeps its transaction set as packed ``uint64`` words
(:mod:`repro.core.bitset`), and one
:func:`~repro.core.bitset.and_popcount_rows` call per node counts the
node's transactions in every item column at once: those counts are the
supports of all the node's extensions and, in closed mode, give the
node's closure (the items whose column covers all its transactions).
That call runs on the C kernel of :mod:`repro.native` wherever it loads.

The traversal keeps an explicit stack and yields lazily, so a caller
with a budget stops it at the first itemset past its cap.

* ``closed=False`` yields every frequent itemset in ECLAT's order (Zaki
  et al., KDD 1997): all frequent single items first, then the
  depth-first extensions of each, in item order.  Consumers may rely on
  this order: :class:`repro.baselines.significant.SignificantRuleMiner`
  reads an itemset's generalisations from those already enumerated.
* ``closed=True`` yields the closed frequent itemsets by
  prefix-preserving closure extension (the scheme of LCM, Uno et al.,
  2004): every closed set is generated exactly once, from its unique
  parent, so no table over the results is needed and memory stays
  linear in the depth.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.bitset import BitMatrix, and_popcount_rows, pack_mask

__all__ = ["itemsets"]

Itemset = tuple[int, ...]


def itemsets(
    bits: BitMatrix,
    minsup: int,
    closed: bool = True,
    max_size: int | None = None,
) -> Iterator[tuple[Itemset, int]]:
    """Yield the frequent (or closed frequent) itemsets of packed columns.

    Parameters
    ----------
    bits:
        One packed row per item (:meth:`BitMatrix.from_bool_columns` of a
        transaction-by-item matrix).
    minsup:
        Absolute minimum support (``>= 1``).
    closed:
        Yield only the closed itemsets (no proper superset has the same
        support) instead of every frequent one.
    max_size:
        Optional cap on itemset cardinality.  In closed mode an itemset
        whose closure jumps past the cap is neither yielded nor extended.

    Yields ``(itemset, support)`` pairs with itemsets as sorted index
    tuples; the empty itemset is never yielded.  ``minsup < 1`` raises
    ``ValueError`` at the call, not at the first ``next``.
    """
    if minsup < 1:
        raise ValueError("minsup must be at least 1 (absolute support)")
    if bits.n_bits < minsup:
        return iter(())
    walk = _closed if closed else _frequent
    return walk(bits, minsup, max_size)


def _frequent(
    bits: BitMatrix, minsup: int, max_size: int | None
) -> Iterator[tuple[Itemset, int]]:
    counts = and_popcount_rows(bits.words)
    seeds = np.flatnonzero(counts >= minsup)
    for item in seeds.tolist():
        yield (item,), int(counts[item])
    rows = bits.words[seeds]
    # (itemset, support, transaction words, first seed position it may add)
    stack = [
        ((item,), int(counts[item]), rows[position], position + 1)
        for position, item in reversed(list(enumerate(seeds.tolist())))
    ]
    while stack:
        itemset, support, tids, start = stack.pop()
        if len(itemset) > 1:  # the singletons are already out
            yield itemset, support
        if start == seeds.size or (max_size is not None and len(itemset) >= max_size):
            continue
        supports = and_popcount_rows(rows[start:], tids)
        positions = start + np.flatnonzero(supports >= minsup)
        extended = rows[positions] & tids
        for index in range(positions.size - 1, -1, -1):
            position = int(positions[index])
            stack.append((
                itemset + (int(seeds[position]),),
                int(supports[position - start]),
                extended[index],
                position + 1,
            ))


def _closed(
    bits: BitMatrix, minsup: int, max_size: int | None
) -> Iterator[tuple[Itemset, int]]:
    words = bits.words
    everything = pack_mask(np.ones(bits.n_bits, dtype=bool))
    # (support, transaction words, extension item, parent's closure); the
    # root has no extension item and an empty parent closure.
    stack = [(bits.n_bits, everything, -1, np.zeros(bits.n_items, dtype=bool))]
    while stack:
        support, tids, item, parent = stack.pop()
        counts = and_popcount_rows(words, tids)
        closure = counts == support
        if item > 0 and (closure[:item] & ~parent[:item]).any():
            # Not prefix-preserving: the closure adds an item below the
            # extension item, so another parent generates this set.
            continue
        itemset = tuple(np.flatnonzero(closure).tolist())
        if itemset and (max_size is None or len(itemset) <= max_size):
            yield itemset, support
        if max_size is not None and len(itemset) >= max_size:
            continue
        extensions = np.flatnonzero((counts >= minsup) & ~closure)
        extensions = extensions[extensions > item]
        extended = words[extensions] & tids
        for index in range(extensions.size - 1, -1, -1):
            child = int(extensions[index])
            stack.append((int(counts[child]), extended[index], child, closure))
