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
from collections.abc import Iterator

import numpy as np

from repro.core.bitset import BitMatrix
from repro.data.dataset import TwoViewDataset
from repro.mining.itemsets import itemsets

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
        Safety cap on the number of *mined* itemsets, of which only the
        spanning ones are returned; mining stops with a ``RuntimeError``
        at the first itemset past it.
    bits:
        Optional pre-packed columns of the *joint* matrix (left items
        first; see :func:`joint_bits`), which skips packing
        ``dataset.joined()``.  Candidates are bit-identical with or
        without the injection.

    Returns
    -------
    Candidates sorted by descending support, then ascending itemset.
    """
    bits = _joint_columns(dataset, bits)
    candidates = _spanning(
        itemsets(bits, minsup, closed, max_size), dataset.n_left, max_candidates
    )
    if candidates is None:
        raise RuntimeError(
            f"mining exceeded max_candidates={max_candidates} itemsets; raise minsup"
        )
    return candidates


def auto_minsup(
    dataset: TwoViewDataset,
    target_candidates: int = 10_000,
    bits: BitMatrix | None = None,
) -> tuple[int, list[TwoViewCandidate]]:
    """Find a ``minsup`` yielding at most ``target_candidates`` candidates.

    Mirrors the paper's per-dataset tuning ("we fix minsup such that the
    number of candidates remains manageable").  Starting from half the
    transaction count, the threshold is halved while the closed candidate
    count stays within the budget, and the last threshold still within
    budget is returned together with its candidates.  A pass is over
    budget once it mines more than ``max(10 * target_candidates,
    100_000)`` itemsets or finds more than ``target_candidates`` spanning
    ones; both counts only grow during a pass, so the pass stops at the
    first crossing.  The search never goes below ``minsup = 1``.
    ``bits`` optionally injects the joint packed columns, as for
    :func:`two_view_candidates`.
    """
    if target_candidates < 1:
        raise ValueError("target_candidates must be positive")
    bits = _joint_columns(dataset, bits)
    start = max(1, int(round(dataset.n_transactions / 2)))
    max_mined = max(10 * target_candidates, 100_000)
    minsup = start
    best: tuple[int, list[TwoViewCandidate]] | None = None
    while True:
        candidates = _spanning(
            itemsets(bits, minsup), dataset.n_left, max_mined, target_candidates
        )
        if candidates is None:
            break
        best = (minsup, candidates)
        if minsup == 1:
            break
        minsup = max(1, minsup // 2)
    if best is None:
        # Even the highest threshold exceeded the budget: mine at the
        # starting threshold and truncate to the most supported candidates.
        return start, two_view_candidates(dataset, start, bits=bits)[:target_candidates]
    return best


def _joint_columns(dataset: TwoViewDataset, bits: BitMatrix | None) -> BitMatrix:
    """Injected joint packed columns, checked against ``dataset``, or a fresh pack."""
    if bits is None:
        return BitMatrix.from_bool_columns(dataset.joined()[0])
    if bits.n_bits != dataset.n_transactions or bits.n_items != dataset.n_left + dataset.n_right:
        raise ValueError(
            f"bits shape ({bits.n_items} items, {bits.n_bits} bits) does not "
            f"match the joint matrix of {dataset.n_transactions} transactions "
            f"and {dataset.n_left + dataset.n_right} items"
        )
    return bits


def _spanning(
    mined: Iterator[tuple[tuple[int, ...], int]],
    n_left: int,
    max_mined: int | None = None,
    max_spanning: int | None = None,
) -> list[TwoViewCandidate] | None:
    """The itemsets of ``mined`` that span both views, sorted.

    Returns ``None`` as soon as more than ``max_mined`` itemsets were
    mined or more than ``max_spanning`` of them span both views, leaving
    the rest of the pass unmined.
    """
    candidates: list[TwoViewCandidate] = []
    for count, (itemset, support) in enumerate(mined, 1):
        if max_mined is not None and count > max_mined:
            return None
        lhs = tuple(item for item in itemset if item < n_left)
        rhs = tuple(item - n_left for item in itemset if item >= n_left)
        if lhs and rhs:
            candidates.append(TwoViewCandidate(lhs, rhs, support))
            if max_spanning is not None and len(candidates) > max_spanning:
                return None
    candidates.sort(key=lambda candidate: (-candidate.support, candidate.lhs, candidate.rhs))
    return candidates
