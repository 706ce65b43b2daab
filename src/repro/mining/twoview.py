"""Two-view candidate itemset mining.

TRANSLATOR-SELECT and TRANSLATOR-GREEDY draw their rules from *two-view
frequent itemsets*: itemsets ``Z`` with ``|supp(Z)| >= minsup``,
``Z ∩ I_L ≠ ∅`` and ``Z ∩ I_R ≠ ∅`` (paper, Section 5.3).  The paper uses
the closed variant to keep candidate sets manageable and tunes ``minsup``
per dataset so the number of candidates lands between 10K and 200K
(Section 6.1); :func:`auto_minsup` automates that tuning.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.bitset import BitMatrix
from repro.data.dataset import TwoViewDataset
from repro.mining.closed import closed_itemsets
from repro.mining.eclat import eclat

__all__ = ["TwoViewCandidate", "joint_bits", "two_view_candidates", "auto_minsup"]


@dataclasses.dataclass(frozen=True)
class TwoViewCandidate:
    """A cross-view itemset split into its two view projections.

    ``lhs`` holds left-view column indices, ``rhs`` right-view column
    indices (both local to their view), and ``support`` the number of
    transactions containing the full itemset across both views.
    """

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    support: int

    @property
    def size(self) -> int:
        """Total number of items."""
        return len(self.lhs) + len(self.rhs)


def joint_bits(left_bits: BitMatrix, right_bits: BitMatrix) -> BitMatrix:
    """Stitch per-view packed columns into the joint item matrix.

    Packing is column-wise, so concatenating the word rows of two views
    packed over the same transactions is bit-identical to packing
    ``dataset.joined()`` from scratch — this is what lets the multi-view
    translator pack each view once and reuse the columns for every pair.
    """
    if left_bits.n_bits != right_bits.n_bits:
        raise ValueError(
            f"views pack different transaction counts: "
            f"{left_bits.n_bits} != {right_bits.n_bits}"
        )
    return BitMatrix(
        np.concatenate([left_bits.words, right_bits.words], axis=0),
        left_bits.n_bits,
    )


def two_view_candidates(
    dataset: TwoViewDataset,
    minsup: int,
    closed: bool = True,
    max_size: int | None = None,
    max_candidates: int | None = None,
    bits: BitMatrix | None = None,
) -> list[TwoViewCandidate]:
    """Mine frequent two-view itemsets of ``dataset``.

    Parameters
    ----------
    dataset:
        The two-view dataset.
    minsup:
        Absolute minimum support.
    closed:
        Mine closed itemsets (the paper's choice) or all frequent itemsets
        (used by ablation A2).
    max_size:
        Optional cap on total itemset cardinality.
    max_candidates:
        Safety cap forwarded to the underlying miner; note it bounds the
        number of *mined* itemsets, of which only the spanning ones are
        returned.
    bits:
        Optional pre-packed columns of the *joint* matrix (left items
        first; see :func:`joint_bits`), forwarded to the miner so it
        skips its internal repack.  Candidates are bit-identical with or
        without the injection.

    Returns
    -------
    Candidates sorted by descending support, then ascending itemset.
    """
    joint, __ = dataset.joined()
    miner = closed_itemsets if closed else eclat
    mined = miner(
        joint,
        minsup,
        max_size=max_size,
        max_itemsets=max_candidates,
        bits=bits,
    )
    n_left = dataset.n_left
    candidates: list[TwoViewCandidate] = []
    for itemset, support in mined:
        lhs = tuple(item for item in itemset if item < n_left)
        rhs = tuple(item - n_left for item in itemset if item >= n_left)
        if lhs and rhs:
            candidates.append(TwoViewCandidate(lhs, rhs, support))
    candidates.sort(key=lambda candidate: (-candidate.support, candidate.lhs, candidate.rhs))
    return candidates


def auto_minsup(
    dataset: TwoViewDataset,
    target_candidates: int = 10_000,
    closed: bool = True,
    max_size: int | None = None,
    start_fraction: float = 0.5,
    bits: BitMatrix | None = None,
) -> tuple[int, list[TwoViewCandidate]]:
    """Find a ``minsup`` yielding at most ``target_candidates`` candidates.

    Mirrors the paper's per-dataset tuning ("we fix minsup such that the
    number of candidates remains manageable").  Starting from
    ``start_fraction * |D|``, the threshold is halved while the candidate
    count stays under the budget, and the last threshold still within
    budget is returned together with its candidates.  The search never goes
    below ``minsup = 1``.
    """
    if target_candidates < 1:
        raise ValueError("target_candidates must be positive")
    n = dataset.n_transactions
    minsup = max(1, int(round(start_fraction * n)))
    best: tuple[int, list[TwoViewCandidate]] | None = None
    while True:
        try:
            candidates = two_view_candidates(
                dataset,
                minsup,
                closed=closed,
                max_size=max_size,
                max_candidates=max(10 * target_candidates, 100_000),
                bits=bits,
            )
        except RuntimeError:
            # Mining itself exploded: stop lowering the threshold.
            break
        if len(candidates) <= target_candidates:
            best = (minsup, candidates)
        else:
            break
        if minsup == 1:
            break
        minsup = max(1, minsup // 2)
    if best is None:
        # Even the highest threshold exceeded the budget: mine at the
        # starting threshold and truncate to the most supported candidates.
        minsup = max(1, int(round(start_fraction * n)))
        candidates = two_view_candidates(
            dataset, minsup, closed=closed, max_size=max_size, bits=bits
        )
        return minsup, candidates[:target_candidates]
    return best
