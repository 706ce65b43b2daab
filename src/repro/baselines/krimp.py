"""The KRIMP algorithm (Vreeken, van Leeuwen & Siebes, 2011).

KRIMP induces a *code table* — a list of itemsets with Shannon codes
derived from their usage in a greedy cover of the database — by MDL: a
candidate itemset is kept only when adding it shrinks the total encoded
size ``L(D | CT) + L(CT)``.  The paper runs KRIMP on the *joined* two-view
data and then interprets the resulting code table as a translation table
(Section 6.3, "The KRIMP algorithm"), showing that itemset-based models do
not capture cross-view structure.

Implementation notes (faithful to the original):

* **Standard Cover Order** for code table elements: cardinality desc,
  support desc, lexicographically asc.
* **Standard Candidate Order** for candidates: support desc, cardinality
  desc, lexicographically asc.
* Greedy, non-overlapping cover per transaction.
* Laplace-style +1 smoothing is *not* used; singleton itemsets always
  remain in the code table and zero-usage non-singletons are pruned.
* ``L(CT)`` charges each in-use element its code length plus the cost of
  writing its items with the *standard code table* (singleton) codes.
* Optional post-acceptance pruning: elements whose usage dropped are
  re-tested and removed when that improves compression.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np

from repro.core.bitset import BitMatrix
from repro.mining.itemsets import itemsets

__all__ = ["CodeTable", "Krimp", "KrimpResult"]

Itemset = frozenset[int]


def _cover_order_key(entry: tuple[Itemset, int]) -> tuple[int, int, tuple[int, ...]]:
    itemset, support = entry
    return (-len(itemset), -support, tuple(sorted(itemset)))


class CodeTable:
    """A KRIMP code table over a Boolean transaction database.

    Maintains the element list in Standard Cover Order, the usage counts
    of the current cover, and the encoded sizes.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        array = np.asarray(matrix)
        if array.dtype != bool:
            array = array.astype(bool)
        self.matrix = array
        self.n_transactions, self.n_items = array.shape
        self.transactions: list[Itemset] = [
            frozenset(np.flatnonzero(row).tolist()) for row in array
        ]
        supports = array.sum(axis=0)
        # Standard code table: singleton codes from item supports; items
        # that never occur keep a zero-usage singleton (they cost nothing).
        self._singleton_support = {item: int(supports[item]) for item in range(self.n_items)}
        self.elements: list[tuple[Itemset, int]] = sorted(
            (
                (frozenset((item,)), self._singleton_support[item])
                for item in range(self.n_items)
            ),
            key=_cover_order_key,
        )
        self.usage: dict[Itemset, int] = {}
        self._recover()

    # ------------------------------------------------------------------
    # Covering
    # ------------------------------------------------------------------
    def cover(self, transaction: Itemset) -> list[Itemset]:
        """Greedy non-overlapping cover of one transaction."""
        remaining = set(transaction)
        used: list[Itemset] = []
        for itemset, __ in self.elements:
            if len(itemset) > len(remaining):
                continue
            if itemset <= remaining:
                used.append(itemset)
                remaining -= itemset
                if not remaining:
                    break
        return used

    def _recover(self) -> None:
        """Recompute usage counts of all elements over the database."""
        usage: dict[Itemset, int] = {itemset: 0 for itemset, __ in self.elements}
        for transaction in self.transactions:
            for itemset in self.cover(transaction):
                usage[itemset] += 1
        self.usage = usage

    # ------------------------------------------------------------------
    # Encoded sizes
    # ------------------------------------------------------------------
    def _standard_code_lengths(self) -> dict[int, float]:
        total = sum(self._singleton_support.values())
        lengths: dict[int, float] = {}
        for item, support in self._singleton_support.items():
            lengths[item] = -math.log2(support / total) if support and total else 0.0
        return lengths

    def encoded_sizes(self) -> tuple[float, float]:
        """Return ``(L(D | CT), L(CT))`` in bits."""
        total_usage = sum(self.usage.values())
        if total_usage == 0:
            return 0.0, 0.0
        standard = self._standard_code_lengths()
        data_bits = 0.0
        table_bits = 0.0
        for itemset, __ in self.elements:
            count = self.usage[itemset]
            if count == 0:
                continue
            code_length = -math.log2(count / total_usage)
            data_bits += count * code_length
            table_bits += code_length + sum(standard[item] for item in itemset)
        return data_bits, table_bits

    def total_size(self) -> float:
        """``L(D, CT) = L(D | CT) + L(CT)``."""
        data_bits, table_bits = self.encoded_sizes()
        return data_bits + table_bits

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, itemset: Itemset, support: int) -> None:
        """Insert a non-singleton element in Standard Cover Order."""
        entry = (itemset, support)
        self.elements.append(entry)
        self.elements.sort(key=_cover_order_key)
        self._recover()

    def remove(self, itemset: Itemset) -> None:
        """Remove a non-singleton element."""
        if len(itemset) == 1:
            raise ValueError("singletons cannot be removed from a code table")
        self.elements = [entry for entry in self.elements if entry[0] != itemset]
        self._recover()

    def non_singletons(self) -> list[tuple[Itemset, int]]:
        """In-use non-singleton elements with their usage counts."""
        return [
            (itemset, self.usage[itemset])
            for itemset, __ in self.elements
            if len(itemset) > 1
        ]


@dataclasses.dataclass
class KrimpResult:
    """Outcome of running KRIMP on a database."""

    code_table: CodeTable
    n_candidates: int
    n_accepted: int
    baseline_bits: float
    final_bits: float
    runtime_seconds: float
    effective_minsup: int = 0

    @property
    def compression_ratio(self) -> float:
        """``L(D, CT) / L(D, ST)`` — KRIMP's own compression measure."""
        if self.baseline_bits == 0:
            return 1.0
        return self.final_bits / self.baseline_bits

    def itemsets(self) -> list[tuple[int, ...]]:
        """Accepted non-singleton itemsets, in cover order."""
        return [tuple(sorted(itemset)) for itemset, __ in self.code_table.non_singletons()]


class Krimp:
    """KRIMP driver: mine candidates, filter them by MDL.

    Parameters
    ----------
    minsup:
        Absolute minimum support for candidate itemsets.
    max_size:
        Optional cap on candidate cardinality.
    prune:
        Enable post-acceptance pruning (the paper's standard setting).
    max_candidates:
        Cap on the mined candidate count.  When mining at ``minsup``
        would exceed it, ``minsup`` is doubled and mining retried (a
        ``RuntimeError`` once it reaches the transaction count); the
        threshold actually used is reported as ``result.effective_minsup``.
    """

    def __init__(
        self,
        minsup: int = 2,
        max_size: int | None = None,
        prune: bool = True,
        max_candidates: int = 200_000,
    ) -> None:
        self.minsup = minsup
        self.max_size = max_size
        self.prune = prune
        self.max_candidates = max_candidates

    def _mine_candidates(self, matrix: np.ndarray) -> tuple[list, int]:
        bits = BitMatrix.from_bool_columns(matrix)
        minsup = self.minsup
        n = bits.n_bits
        while True:
            # Each pass stops at the first itemset past the cap.
            mined = list(itertools.islice(
                itemsets(bits, minsup, closed=False, max_size=self.max_size),
                self.max_candidates + 1,
            ))
            if len(mined) <= self.max_candidates:
                return mined, minsup
            if minsup >= n:
                raise RuntimeError(
                    f"KRIMP mined more than max_candidates={self.max_candidates} "
                    f"itemsets even at minsup={minsup}"
                )
            minsup = min(n, 2 * minsup)

    def fit(self, matrix: np.ndarray) -> KrimpResult:
        """Run KRIMP on a Boolean transaction matrix."""
        start = time.perf_counter()
        code_table = CodeTable(matrix)
        baseline = code_table.total_size()
        mined, effective_minsup = self._mine_candidates(matrix)
        candidates = [
            (frozenset(itemset), support)
            for itemset, support in mined
            if len(itemset) > 1
        ]
        # Standard Candidate Order: support desc, cardinality desc, lex asc.
        candidates.sort(key=lambda entry: (-entry[1], -len(entry[0]), tuple(sorted(entry[0]))))
        current_size = baseline
        accepted = 0
        for itemset, support in candidates:
            code_table.insert(itemset, support)
            new_size = code_table.total_size()
            if new_size < current_size:
                current_size = new_size
                accepted += 1
                if self.prune:
                    current_size = self._prune(code_table, current_size)
            else:
                code_table.remove(itemset)
        return KrimpResult(
            code_table=code_table,
            n_candidates=len(candidates),
            n_accepted=len(code_table.non_singletons()),
            baseline_bits=baseline,
            final_bits=current_size,
            runtime_seconds=time.perf_counter() - start,
            effective_minsup=effective_minsup,
        )

    @staticmethod
    def _prune(code_table: CodeTable, current_size: float) -> float:
        """Remove elements whose removal improves total encoded size.

        Considers non-singleton elements in increasing usage order, as in
        the original post-acceptance pruning.
        """
        improved = True
        while improved:
            improved = False
            for itemset, usage in sorted(
                code_table.non_singletons(), key=lambda entry: entry[1]
            ):
                support = next(
                    support for element, support in code_table.elements if element == itemset
                )
                code_table.remove(itemset)
                new_size = code_table.total_size()
                if new_size < current_size:
                    current_size = new_size
                    improved = True
                    break
                code_table.insert(itemset, support)
        return current_size
