"""Sketch-pruned, exactly re-verified top-k pair discovery over a store.

The query answered here is the corpus-scale analogue of the exact
engine's seeding step (``ExactRuleSearch._seed_best_pair``): *the k
single-item pair rules of highest MDL gain against an empty
translation table*.  The implementation is a threshold-algorithm scan:

1. **Bound** every |I_L| x |I_R| candidate pair from the sketches —
   exact supports from the store header plus the sound sample overlap
   bound give, for each direction, an upper bound on the pair's
   quantized gain (gain is monotone in the overlap, all else exact).
2. **Order** candidates by descending bound, breaking bound ties with
   the minhash overlap estimate (an ordering heuristic only — it can
   reshuffle work, never the answer).
3. **Verify** candidates in batches: each batch's exact overlaps are
   streamed block-by-block through the store's popcount kernels, exact
   gains are computed, and a running top-k is maintained.  The scan
   stops as soon as the next candidate's *bound* cannot beat the k-th
   exact gain — every unscanned pair is provably outside the top k.

Gains use the store's recorded fixed-point scale (``quant_bits``, the
engine's own), so every reported gain is an exact integer multiple of
``2^-bits`` — which is what makes the pruned result **bit-identical**
to a full exact scan (:func:`exact_topk_pairs` is the dense in-RAM
reference used by the honesty tests and benchmark cells).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs as _obs
from repro.core.rules import TranslationRule
from repro.core.search import quantization_bits
from repro.data.dataset import TwoViewDataset

from .store import ColumnStore, _weights_from_counts

__all__ = [
    "TopKResult",
    "exact_topk_pairs",
    "topk_pairs",
]

_DIRECTIONS = ("->", "<-", "<->")


@dataclasses.dataclass
class TopKResult:
    """Top-k pair rules with exact gains, plus scan accounting.

    Attributes
    ----------
    rules:
        The top-k :class:`TranslationRule` objects, best first; ties
        broken by direction (``->`` before ``<-`` before ``<->``) then
        item indices — the exact engine's seeding order.
    gains:
        Exact MDL gain of each rule in bits (an integer multiple of
        ``2^-quant_bits``; never an estimate).
    quant_bits:
        The fixed-point scale the gains were computed at.
    n_pairs:
        Total candidate pairs, ``n_left * n_right``.
    n_scanned:
        Pairs whose exact overlap was actually computed; the rest were
        pruned by their sound upper bounds (either excluded outright —
        provably zero overlap or non-positive gain — or cut off by the
        threshold-algorithm stop).
    n_blocks_read:
        Verified block reads performed by the scan.
    """

    rules: list[TranslationRule]
    gains: list[float]
    quant_bits: int
    n_pairs: int
    n_scanned: int
    n_blocks_read: int

    @property
    def pruned_fraction(self) -> float:
        """Share of candidate pairs never exactly scanned."""
        if not self.n_pairs:
            return 0.0
        return 1.0 - self.n_scanned / self.n_pairs

    def fingerprint(self) -> list[list]:
        """Bit-exact comparison key: rules plus ``repr`` of each gain."""
        return [
            [list(rule.lhs), list(rule.rhs), rule.direction.value, repr(gain)]
            for rule, gain in zip(self.rules, self.gains)
        ]


def _pair_gains_q(
    overlap: np.ndarray,
    supp_left: np.ndarray,
    supp_right: np.ndarray,
    wq_left: np.ndarray,
    wq_right: np.ndarray,
    one: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantized pair gains (forward, backward, both), exact integer sums.

    Broadcasting closed forms of the engine's seed grids: covering the
    overlap earns each covered cell's code length, the off-support
    cells of the translated view become corrections, and the rule pays
    its own code plus usage cost (2 bits directed, 1 bit ``<->``).
    """
    forward_net = wq_right * (2.0 * overlap - supp_left)
    backward_net = wq_left * (2.0 * overlap - supp_right)
    length = wq_left + wq_right
    forward = forward_net - length - 2.0 * one
    backward = backward_net - length - 2.0 * one
    both = forward_net + backward_net - length - one
    return forward, backward, both


def _select_topk(entries: list[tuple[float, int, int, int]], k: int) -> list:
    entries.sort(key=lambda e: (-e[0], e[1], e[2], e[3]))
    return entries[:k]


def _as_result(
    selected: list, one: float, bits: int, n_pairs: int, n_scanned: int, blocks: int
) -> TopKResult:
    rules = [
        TranslationRule((x,), (y,), _DIRECTIONS[d]) for _, d, x, y in selected
    ]
    gains = [gain_q / one for gain_q, _, _, _ in selected]
    return TopKResult(
        rules=rules,
        gains=gains,
        quant_bits=bits,
        n_pairs=n_pairs,
        n_scanned=n_scanned,
        n_blocks_read=blocks,
    )


def exact_topk_pairs(
    dataset: TwoViewDataset, k: int = 10, quant_bits: int | None = None
) -> TopKResult:
    """Dense in-RAM reference: exact top-k pair rules via one big GEMM.

    Computes every pair overlap at once — O(rows x items) memory — and
    is the oracle the sketch-pruned :func:`topk_pairs` must match
    bit-for-bit.  ``quant_bits`` defaults to the engine's own scale for
    this dataset (pass a store's ``quant_bits`` when comparing against
    a store-backed scan).
    """
    counts_left = dataset.left.sum(axis=0).astype(np.int64)
    counts_right = dataset.right.sum(axis=0).astype(np.int64)
    n = dataset.n_transactions
    weights_left = _weights_from_counts(counts_left, n)
    weights_right = _weights_from_counts(counts_right, n)
    if quant_bits is None:
        tub_left = dataset.left @ weights_left
        tub_right = dataset.right @ weights_right
        tub_max = (float(tub_left.max()) if tub_left.size else 0.0) + (
            float(tub_right.max()) if tub_right.size else 0.0
        )
        quant_bits = quantization_bits(tub_max, weights_left, weights_right, n)
    one = float(1 << quant_bits)
    wq_left = np.rint(weights_left * one)
    wq_right = np.rint(weights_right * one)
    overlap = (
        dataset.left.T.astype(np.int64) @ dataset.right.astype(np.int64)
    ).astype(np.float64)
    gains = _pair_gains_q(
        overlap,
        counts_left.astype(np.float64)[:, None],
        counts_right.astype(np.float64)[None, :],
        wq_left[:, None],
        wq_right[None, :],
        one,
    )
    entries: list[tuple[float, int, int, int]] = []
    for rank, grid in enumerate(gains):
        xs, ys = np.nonzero((overlap > 0) & (grid > 0))
        for x, y in zip(xs.tolist(), ys.tolist()):
            entries.append((float(grid[x, y]), rank, x, y))
    n_pairs = dataset.n_left * dataset.n_right
    return _as_result(
        _select_topk(entries, k), one, quant_bits, n_pairs, n_pairs, 0
    )


def topk_pairs(
    store: ColumnStore,
    k: int = 10,
    batch_size: int = 1024,
    prune: bool = True,
) -> TopKResult:
    """Exact top-k pair rules over a column store, out of core.

    With ``prune=True`` (the default) the threshold-algorithm scan
    described in the module docstring runs: sketched bounds order the
    candidates, batches of ``batch_size`` pairs are verified exactly
    against the streamed blocks, and the scan stops once no unscanned
    pair's bound can reach the k-th exact gain.  ``prune=False``
    verifies every pair (the "full exact scan" baseline the benchmark
    compares against); both modes return bit-identical results.

    Peak memory is O(pair grids + one block) — the corpus rows are
    never resident.

    Example::

        >>> from repro import SyntheticSpec, generate_planted
        >>> from repro.corpus import ColumnStore, ingest_dataset, topk_pairs
        >>> import tempfile, os
        >>> data, _ = generate_planted(SyntheticSpec(n_transactions=300))
        >>> path = os.path.join(tempfile.mkdtemp(), "demo.col")
        >>> _ = ingest_dataset(data, path)
        >>> result = topk_pairs(ColumnStore(path), k=3)
        >>> len(result.rules) <= 3
        True
    """
    if k <= 0:
        raise ValueError("k must be positive")
    counts_left, counts_right = store.column_counts()
    n = store.n_transactions
    weights_left = _weights_from_counts(counts_left, n)
    weights_right = _weights_from_counts(counts_right, n)
    bits = store.quant_bits
    one = float(1 << bits)
    wq_left = np.rint(weights_left * one)
    wq_right = np.rint(weights_right * one)

    if prune:
        sketches = store.sketches()
        overlap_ub = sketches.overlap_upper_bounds(counts_left, counts_right)
        bound_grids = _pair_gains_q(
            overlap_ub.astype(np.float64),
            counts_left.astype(np.float64)[:, None],
            counts_right.astype(np.float64)[None, :],
            wq_left[:, None],
            wq_right[None, :],
            one,
        )
        pair_bound = np.maximum(
            np.maximum(bound_grids[0], bound_grids[1]), bound_grids[2]
        )
        # A pair whose overlap bound is zero provably never co-occurs, and
        # a pair whose gain bound is non-positive can never enter the top k.
        eligible = (overlap_ub > 0) & (pair_bound > 0)
        xs, ys = np.nonzero(eligible)
        bounds_flat = pair_bound[xs, ys]
        estimates = sketches.overlap_estimates(counts_left, counts_right)[xs, ys]
        order = np.lexsort((ys, xs, -estimates, -bounds_flat))
        xs, ys, bounds_flat = xs[order], ys[order], bounds_flat[order]
    else:
        # Baseline mode: no sketches at all — every pair is verified.
        grid_x, grid_y = np.meshgrid(
            np.arange(store.n_left), np.arange(store.n_right), indexing="ij"
        )
        xs, ys = grid_x.ravel(), grid_y.ravel()
        bounds_flat = np.zeros(xs.size)
    n_pairs = int(store.n_left) * int(store.n_right)
    n_candidates = int(xs.size)

    entries: list[tuple[float, int, int, int]] = []
    selected: list[tuple[float, int, int, int]] = []
    scanned = 0
    batches = 0
    supp_left_f = counts_left.astype(np.float64)
    supp_right_f = counts_right.astype(np.float64)
    while scanned < n_candidates:
        if prune and len(selected) >= k:
            threshold = selected[-1][0]
            if bounds_flat[scanned] < threshold:
                break
        hi = min(scanned + batch_size, n_candidates)
        if prune and len(selected) >= k:
            # Trim the batch to candidates whose bound can still matter.
            viable = np.searchsorted(
                -bounds_flat[scanned:hi], -selected[-1][0], side="right"
            )
            hi = scanned + max(1, int(viable))
        batch_x = xs[scanned:hi]
        batch_y = ys[scanned:hi]
        overlap = store.pair_overlaps(batch_x, batch_y).astype(np.float64)
        batches += 1
        gains = _pair_gains_q(
            overlap,
            supp_left_f[batch_x],
            supp_right_f[batch_y],
            wq_left[batch_x],
            wq_right[batch_y],
            one,
        )
        positive = overlap > 0
        for rank, vector in enumerate(gains):
            for index in np.nonzero(positive & (vector > 0))[0].tolist():
                entries.append(
                    (
                        float(vector[index]),
                        rank,
                        int(batch_x[index]),
                        int(batch_y[index]),
                    )
                )
        scanned = hi
        selected = _select_topk(entries, k)
        entries = list(selected)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.corpus_scan(scanned, n_candidates - scanned)
    return _as_result(
        selected, one, bits, n_pairs, scanned, batches * store.n_blocks
    )
