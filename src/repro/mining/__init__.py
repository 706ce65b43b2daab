"""Frequent itemset mining substrates.

Provides the pattern mining machinery the TRANSLATOR algorithms and the
baselines are built on:

* :mod:`~repro.mining.itemsets` — the one itemset miner: a generator of
  frequent or closed frequent itemsets over packed columns, one batched
  AND + popcount per lattice node on an explicit stack.  Callers apply
  their own budgets by stopping the generator.
* :mod:`~repro.mining.twoview` — closed frequent *two-view* itemsets, the
  candidate sets consumed by TRANSLATOR-SELECT and TRANSLATOR-GREEDY, plus
  a helper for tuning ``minsup`` to a candidate budget.
* :mod:`~repro.mining.sampling` — threshold-free randomized candidate
  generation by direct cross-view pattern sampling (an extension; compared
  against mined candidates in ablation A2b).
"""

from repro.mining.itemsets import itemsets
from repro.mining.sampling import sample_candidates, sample_pattern
from repro.mining.twoview import (
    TwoViewCandidate,
    auto_minsup,
    two_view_candidates,
)

__all__ = [
    "itemsets",
    "sample_candidates",
    "sample_pattern",
    "TwoViewCandidate",
    "auto_minsup",
    "two_view_candidates",
]
