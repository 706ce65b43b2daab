"""Frequent itemset mining substrates.

Provides the pattern mining machinery the TRANSLATOR algorithms and the
baselines are built on:

* :mod:`~repro.mining.eclat` — frequent itemset mining with tidset
  intersection (Zaki et al., 1997), the search backbone the paper's exact
  rule search is modelled on.
* :mod:`~repro.mining.closed` — closed frequent itemset mining via
  prefix-preserving closure extension (LCM-style).
* :mod:`~repro.mining.twoview` — closed frequent *two-view* itemsets, the
  candidate sets consumed by TRANSLATOR-SELECT and TRANSLATOR-GREEDY, plus
  a helper for tuning ``minsup`` to a candidate budget.
* :mod:`~repro.mining.sampling` — threshold-free randomized candidate
  generation by direct cross-view pattern sampling (an extension; compared
  against mined candidates in ablation A2b).
"""

from repro.mining.eclat import eclat, frequent_items
from repro.mining.closed import closed_itemsets
from repro.mining.sampling import sample_candidates, sample_pattern
from repro.mining.twoview import (
    TwoViewCandidate,
    auto_minsup,
    two_view_candidates,
)

__all__ = [
    "eclat",
    "frequent_items",
    "closed_itemsets",
    "sample_candidates",
    "sample_pattern",
    "TwoViewCandidate",
    "auto_minsup",
    "two_view_candidates",
]
