"""Exact best-rule search (paper, Section 5.2).

Finds the rule with the maximum compression gain given the current cover
state, by an ECLAT-style depth-first traversal of all itemset pairs
``(X, Y)`` that co-occur in the data, pruned with the paper's bounds:

* ``tub(t)`` — transaction upper bound: the encoded size of the
  transaction's currently uncovered items; any rule can gain at most this
  much from transaction ``t``.
* ``rub(X ⇒ Y)`` — rule upper bound: the sum of ``tub`` over the supports
  of ``X`` and ``Y`` minus ``L(X <-> Y)``; it decreases monotonically under
  extension, so a subtree is pruned when ``rub <= best gain``.
* ``qub(X ⇒ Y)`` — quick bound used to skip exact gain evaluation of a
  single node (it does not license subtree pruning).

Items are visited in descending ``tub``-potential order so good rules are
found early and pruning bites sooner.  The search is *anytime*: an optional
node budget stops it early, returning the best rule found so far with
``complete=False`` (used for the large-dataset benchmarks).

Engines
-------
Supports are packed uint64 bitsets (:mod:`repro.core.bitset`).  The
traversal runs on one of two engines, and the platform picks which:

* where the C kernel of :mod:`repro.native` compiles, the whole
  depth-first traversal of one search (or of one root-range shard) is a
  single call into it (``NativeKernel.dfs``).  Python builds the
  universe-ordered packed operands once (:class:`_DfsOperands`), and
  decodes the incumbent, the statistics and, after a budget break, the
  checkpoint and gap bound.  The call releases the GIL and never
  allocates.  It sums a ``rub`` mass only when a prune decision needs
  it (see ``native/kernel.c``).
* elsewhere (no C compiler, or ``REPRO_NATIVE_DISABLE=1``) an explicit
  frame stack is iterated in Python; the per-child metrics of a frame
  (co-occurrence, support counts, ``rub`` sums, directional gains) come
  out of a few *batched* dense GEMMs over 0/1 item matrices
  (:class:`_BitsetChildSet`).

Both engines seed the incumbent with the best single-item pair, counted
on the packed rows (``and_popcount_rows``), so a search on the C engine
builds none of the dense float64 item matrices and runs no BLAS
matrix-matrix product.

:attr:`SearchStats.backend` names the engine that ran (``"native"`` or
``"numpy"``).  Both engines return **bit-identical** rules, gains,
:class:`SearchStats`, gap bounds and checkpoints — a checkpoint taken by
one resumes on the other, since both index the same lists of alive
children.  This is guaranteed structurally, not by luck: all code
lengths are quantized once per search to fixed-point integers
(:class:`_Quantized`), so every bound and gain is an exact integer sum,
independent of evaluation order and of the support representation.  The
C traversal sums in int64; the numpy one carries the integers in
``float64`` (the quantization step is chosen so every partial sum stays
far below ``2^53``, where float64 arithmetic is exact) because BLAS dot
products over float64 are several times faster than numpy's int64 paths.
On the test datasets the step is ``2^-39`` or finer, so reported gains
differ from the real-valued ones by far less than the ``1e-9`` tolerance
the brute-force tests use, while the paper's ``rub``/``qub`` soundness
proofs carry over verbatim because the quantized weights obey the same
inequalities the real weights do.

Both traversals use an explicit frame stack rather than recursion, so
deep universes (hundreds of items with ``max_rule_size=None``) cannot
hit Python's recursion limit.  Directional gains are maintained
incrementally: extending a rule by one item of a view leaves the
support of the other view alone, so the gain towards the extended view
is the parent's plus one item's term.

A :class:`SearchCache` holds the dataset-static state: the packed data
columns, packed once per fit, and the operands only a search reads,
built when a search first needs them: the co-occurrence grid (every
search's pair seed, and :class:`~repro.core.beam.TranslatorBeam`) and
the dense 0/1 item matrices (the numpy traversal).  The fit's
:class:`~repro.core.state.CoverState` owns the cache, so every search of
a fit, and the state's own gains, share one set of packed columns.

Parallel sharding (``n_jobs``)
------------------------------
With ``n_jobs > 1`` the branch-and-bound is *sharded over root subtrees*:
the universe's root positions are split into contiguous ranges, each
worker of a :class:`repro.runtime.executor.ParallelExecutor` (thread
backend — a native shard is one GIL-releasing C call, and the numpy
childsets run in GIL-releasing BLAS) traverses its ranges with the same
seed incumbent, and the per-shard
winners are merged in shard order under the serial path's
strictly-greater replacement rule.  The returned **rule and gain are
bit-identical to the serial search**: ``rub``/``qub`` only ever discard
nodes that provably cannot beat the current incumbent, so weakening the
incumbent (each shard starts from the seed-pair bound instead of the
running global best) can never hide the argmax, and the merge reproduces
the serial tie-break (the first rule in DFS order attaining the maximum
gain wins).  Pruning *statistics* are summed over shards and may exceed
the serial counts, since shards explore what the serial incumbent would
have pruned; :class:`SearchStats.shards` records the shard count.  An
anytime node budget (``max_nodes``) is traversal-order-dependent, so a
budgeted search always runs serially regardless of ``n_jobs``.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import time
import warnings
from typing import TYPE_CHECKING

import numpy as np

from repro import obs as _obs

from repro.data.dataset import Side, TwoViewDataset
from repro.core.bitset import (
    BitMatrix,
    and_popcount_rows,
    fixed_weight_table,
    pack_mask,
    unpack_rows,
)
from repro.core.rules import TranslationRule

if TYPE_CHECKING:
    from repro.core.state import CoverState

__all__ = ["SearchStats", "SearchCheckpoint", "SearchCache", "ExactRuleSearch"]

_MAX_FRACTION_BITS = 42


@dataclasses.dataclass
class SearchStats:
    """Diagnostics of one best-rule search.

    Counters are exact on serial runs.  On sharded runs (``n_jobs > 1``)
    they are summed over shards, which may exceed the serial counts
    (each shard starts from the weaker seed incumbent); ``shards``
    records how many root ranges were traversed (1 = serial), and
    ``backend`` the engine that ran the traversal (``"native"`` or
    ``"numpy"``).

    ``gap_bound`` is the anytime honesty report: an upper bound, in
    bits, on how much better than the returned gain the true optimum
    could be.  It is ``0.0`` whenever ``complete`` is true (the search
    proved optimality); after a budget interrupt it is computed from the
    ``rub`` bounds of the unexplored frontier, so "gain + gap_bound"
    always dominates the optimal gain.  Without ``use_rub`` only the
    loose root-mass bound is available.
    """

    nodes_visited: int = 0
    nodes_pruned_rub: int = 0
    evaluations: int = 0
    evaluations_skipped_qub: int = 0
    complete: bool = True
    backend: str = ""
    shards: int = 1
    gap_bound: float = 0.0


@dataclasses.dataclass(frozen=True)
class SearchCheckpoint:
    """Resumable state of a budget-interrupted search.

    Captured on :class:`ExactRuleSearch` (``search.last_checkpoint``)
    when a ``max_nodes`` budget interrupts the traversal, and accepted
    back via ``ExactRuleSearch(checkpoint=...)``.  The DFS stack is a
    root-to-leaf path, so the whole suspended traversal is described by
    the universe index that created each stacked frame plus each
    frame's child cursor; everything else (supports, bounds, gain
    vectors) is recomputed on resume by replaying those child
    creations.  A resumed search makes the identical decision sequence
    an uninterrupted run would have made — rule, gain and statistics
    are bit-identical (statistics accumulate across the legs).

    Checkpoints are only valid against a search over the same cover
    state and options; ``universe_size`` guards the obvious mismatches,
    and a malformed path or cursor list is rejected with ``ValueError``
    before any traversal.  Use :meth:`to_dict` / :meth:`from_dict` to
    persist.
    """

    path: tuple[int, ...]
    cursors: tuple[int, ...]
    root_lo: int
    root_hi: int
    best_lhs: tuple[int, ...] | None
    best_rhs: tuple[int, ...] | None
    best_direction: str | None
    best_q: float
    nodes_visited: int
    nodes_pruned_rub: int
    evaluations: int
    evaluations_skipped_qub: int
    universe_size: int

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "path": list(self.path),
            "cursors": list(self.cursors),
            "root_lo": self.root_lo,
            "root_hi": self.root_hi,
            "best_lhs": list(self.best_lhs) if self.best_lhs is not None else None,
            "best_rhs": list(self.best_rhs) if self.best_rhs is not None else None,
            "best_direction": self.best_direction,
            "best_q": self.best_q,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned_rub": self.nodes_pruned_rub,
            "evaluations": self.evaluations,
            "evaluations_skipped_qub": self.evaluations_skipped_qub,
            "universe_size": self.universe_size,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output."""
        return cls(
            path=tuple(payload["path"]),
            cursors=tuple(payload["cursors"]),
            root_lo=int(payload["root_lo"]),
            root_hi=int(payload["root_hi"]),
            best_lhs=(
                tuple(payload["best_lhs"]) if payload["best_lhs"] is not None else None
            ),
            best_rhs=(
                tuple(payload["best_rhs"]) if payload["best_rhs"] is not None else None
            ),
            best_direction=payload["best_direction"],
            best_q=float(payload["best_q"]),
            nodes_visited=int(payload["nodes_visited"]),
            nodes_pruned_rub=int(payload["nodes_pruned_rub"]),
            evaluations=int(payload["evaluations"]),
            evaluations_skipped_qub=int(payload["evaluations_skipped_qub"]),
            universe_size=int(payload["universe_size"]),
        )


def _validate_checkpoint(
    checkpoint: SearchCheckpoint, max_rule_size: int | None
) -> None:
    """Reject a checkpoint whose path and cursors cannot be a DFS stack.

    A captured stack is a root over a non-empty range of root subtrees
    plus one frame per path entry, each created by a strictly later
    universe index, with a non-negative cursor per frame.  A frame is
    only stacked below ``max_rule_size`` items, and a frame with children
    lies before the universe's last entry, so the path is also shorter
    than both.  Anything else was tampered with or truncated and would
    otherwise resume into a silently different traversal.  Whether each
    cursor really points past its path entry needs the frames' child
    lists, so the traversal checks that while replaying the path
    (:func:`_reject_cursor`, :func:`_reject_top_cursor`).
    """
    path, cursors = checkpoint.path, checkpoint.cursors
    root_lo, root_hi = checkpoint.root_lo, checkpoint.root_hi
    if not 0 <= root_lo < root_hi <= checkpoint.universe_size:
        raise ValueError(
            f"checkpoint root range [{root_lo}, {root_hi}) is not a non-empty "
            f"range of [0, {checkpoint.universe_size})"
        )
    if len(cursors) != len(path) + 1:
        raise ValueError(
            f"checkpoint has {len(cursors)} cursors for a path of "
            f"{len(path)} frames (expected {len(path) + 1})"
        )
    if any(cursor < 0 for cursor in cursors):
        raise ValueError(f"checkpoint cursors {list(cursors)} include a negative one")
    if any(later <= earlier for earlier, later in zip(path, path[1:])):
        raise ValueError(f"checkpoint path {list(path)} is not strictly increasing")
    if path and not (root_lo <= path[0] < root_hi and path[-1] < checkpoint.universe_size):
        raise ValueError(
            f"checkpoint path {list(path)} leaves the universe range "
            f"[{root_lo}, {checkpoint.universe_size}) or starts past the "
            f"root range end {root_hi}"
        )
    depth_limit = checkpoint.universe_size
    if max_rule_size is not None:
        depth_limit = min(depth_limit, max_rule_size)
    if path and len(path) >= depth_limit:
        _reject_depth(checkpoint, max_rule_size)


def _reject_depth(checkpoint: SearchCheckpoint, max_rule_size: int | None) -> None:
    raise ValueError(
        f"checkpoint path {list(checkpoint.path)} is deeper than a search "
        f"with max_rule_size={max_rule_size} over {checkpoint.universe_size} "
        "items can stack"
    )


def _reject_top_cursor(checkpoint: SearchCheckpoint, n_children: int) -> None:
    raise ValueError(
        f"checkpoint cursor {checkpoint.cursors[-1]} of the top frame is past "
        f"its {n_children} children"
    )


def _reject_cursor(checkpoint: SearchCheckpoint, depth: int) -> None:
    raise ValueError(
        f"checkpoint cursor {checkpoint.cursors[depth]} of frame {depth} does "
        f"not point just past path index {checkpoint.path[depth]}"
    )


@dataclasses.dataclass(frozen=True)
class _Item:
    """One search-universe entry: an item of either view."""

    side: Side
    column: int
    length_q: float  # fixed-point (integer-valued) code length


class SearchCache:
    """Dataset-static structures shared by a fit's cover state and searches.

    :class:`~repro.core.state.CoverState` builds one (or receives one
    through ``CoverState(cache=)``) and every search over that state uses
    it, so it is built once per fit rather than once per
    ``find_best_rule`` call.  The cache never depends on the cover state,
    only on the dataset.

    ``left_bits`` / ``right_bits`` optionally inject pre-packed
    :class:`BitMatrix` columns for the two views — the streaming buffer
    (:class:`repro.stream.StreamBuffer`) maintains them incrementally
    and the column store keeps them on disk, so a refit skips the full
    repack.  They must describe exactly ``dataset``'s views; since
    incremental packing is bit-identical to packing from scratch, every
    fit behaves identically either way.

    Construction packs only.  The operands a search reads are built on
    first use, so states that only replay rules never pay for them:
    ``cooccur``, counted on the packed columns, which every search's pair
    seed and :class:`~repro.core.beam.TranslatorBeam` read, and the dense
    0/1 item matrices ``left_T`` / ``right_T``, which only the numpy
    traversal reads.
    """

    def __init__(
        self,
        dataset: TwoViewDataset,
        left_bits: BitMatrix | None = None,
        right_bits: BitMatrix | None = None,
    ) -> None:
        self.dataset = dataset
        for bits, view, what in (
            (left_bits, dataset.left, "left_bits"),
            (right_bits, dataset.right, "right_bits"),
        ):
            if bits is not None and (
                bits.n_bits != view.shape[0] or bits.n_items != view.shape[1]
            ):
                raise ValueError(
                    f"{what} shape ({bits.n_items} items x {bits.n_bits} bits) "
                    f"does not match the dataset view {view.shape}"
                )
        self.left_bits = (
            left_bits if left_bits is not None
            else BitMatrix.from_bool_columns(dataset.left)
        )
        self.right_bits = (
            right_bits if right_bits is not None
            else BitMatrix.from_bool_columns(dataset.right)
        )
        self.left_counts = self.left_bits.counts()
        self.right_counts = self.right_bits.counts()
        self.full_words = pack_mask(np.ones(dataset.n_transactions, dtype=bool))

    # 0/1 item masks, one row per item, in float64 so the numpy
    # traversal's fixed-point matrix products run on the BLAS dot kernels.
    @functools.cached_property
    def left_T(self) -> np.ndarray:
        return np.ascontiguousarray(self.dataset.left.T, dtype=np.float64)

    @functools.cached_property
    def right_T(self) -> np.ndarray:
        return np.ascontiguousarray(self.dataset.right.T, dtype=np.float64)

    @functools.cached_property
    def cooccur(self) -> np.ndarray:
        """``(n_left, n_right)`` grid: do the two items ever co-occur?"""
        return _count_grid(self.left_bits.words, self.right_bits.words) > 0


def _count_grid(masks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(len(masks), len(rows))`` grid of ``popcount(masks[i] & rows[j])``."""
    grid = np.zeros((masks.shape[0], rows.shape[0]), dtype=np.int64)
    for index, mask in enumerate(masks):
        grid[index] = and_popcount_rows(rows, mask)
    return grid


def _net_grid(
    masks: np.ndarray, pos: np.ndarray, neg: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``weights[j] * (|masks[i] & pos[j]| - |masks[i] & neg[j]|)``, in float64.

    The counts are exact integers and every product stays below ``2^51``
    (see :class:`_Quantized`), so the grid equals the dense fixed-point
    product ``masks @ (net * weights).T`` bit for bit.
    """
    counts = _count_grid(masks, np.concatenate([pos, neg]))
    k = pos.shape[0]
    return (counts[:, :k] - counts[:, k:]) * weights


class _Quantized:
    """Fixed-point view of the per-search weights.

    All code lengths are scaled by ``2^bits`` and rounded once; every
    bound and gain downstream is then an exact integer sum.  The integers
    ride in float64 arrays, and ``bits`` is chosen so the largest possible
    intermediate sum (bounded by ``n_transactions * max(tub)`` plus total
    code length) stays below ``2^51`` — comfortably inside the range where
    float64 addition and multiplication of integers are exact, whatever
    the summation order.  It holds what both engines read: the quantized
    code lengths, ``tub`` and the packed sign rows.  The dense
    fixed-point net rows belong to the numpy traversal
    (:class:`_BitsetContext`).
    """

    __slots__ = (
        "bits",
        "one",
        "wq_left",
        "wq_right",
        "tubq_left",
        "tubq_right",
        "pos_left",
        "neg_left",
        "pos_right",
        "neg_right",
    )

    def __init__(self, state: CoverState) -> None:
        n = state.dataset.n_transactions
        weights_left = state.cover(Side.LEFT).weights
        weights_right = state.cover(Side.RIGHT).weights
        tub_left = state.transaction_upper_bounds(Side.LEFT)
        tub_right = state.transaction_upper_bounds(Side.RIGHT)
        tub_max = 0.0
        if tub_left.size:
            tub_max += float(tub_left.max())
        if tub_right.size:
            tub_max += float(tub_right.max())
        magnitude = (n + 1.0) * (
            tub_max + float(weights_left.sum()) + float(weights_right.sum()) + 4.0
        )
        self.bits = max(0, min(_MAX_FRACTION_BITS, 51 - math.frexp(magnitude)[1]))
        self.one = float(1 << self.bits)
        self.wq_left = np.rint(weights_left * self.one)
        self.wq_right = np.rint(weights_right * self.one)
        # Net per-cell weight sign: covering an uncovered cell gains its
        # code length, introducing a new error loses it, anything else 0.
        # The pair seed and the C traversal sum the packed sign rows as
        # fused AND+popcounts; the numpy traversal reads them as dense
        # fixed-point rows (_BitsetContext).
        self.pos_left, self.neg_left = state.sign_rows(Side.LEFT)
        self.pos_right, self.neg_right = state.sign_rows(Side.RIGHT)
        # tub in fixed point, recomputed from the quantized weights (the
        # positive rows are U) so the rub bound provably dominates the
        # quantized gains.
        self.tubq_left = unpack_rows(self.pos_left, n).T @ self.wq_left
        self.tubq_right = unpack_rows(self.pos_right, n).T @ self.wq_right

    def to_float(self, value: float) -> float:
        return float(value) / self.one


class _Frame:
    """One node of the numpy traversal's explicit DFS stack.

    ``s_left``/``s_right`` (0/1 float views of the supports) and the
    ``net_*_vals`` products are caches: a child
    created by extending one side shares the other side's vectors with its
    parent by reference, so only genuinely new quantities are ever
    recomputed.
    """

    __slots__ = (
        "position",
        "limit",
        "cursor",
        "lhs",
        "rhs",
        "len_lhs",
        "len_rhs",
        "supp_left",
        "supp_right",
        "s_left",
        "s_right",
        "wsum_left",
        "wsum_right",
        "count_left",
        "count_right",
        "gain_left",
        "gain_right",
        "net_left_vals",
        "net_left_start",
        "net_right_vals",
        "net_right_start",
        "childset",
    )

    def __init__(self) -> None:
        self.childset = None
        self.cursor = 0
        self.s_left = None
        self.s_right = None
        self.net_left_vals = None
        self.net_left_start = 0
        self.net_right_vals = None
        self.net_right_start = 0


class _BitsetContext:
    """Universe-ordered dense operands of one search on the numpy engine.

    The per-side matrices are *compact*: row ``p`` of ``mask_left`` is the
    ``p``-th left-view entry of the universe (in universe order), so the
    batched products below never touch rows of the other side.
    ``side_position[u]`` maps a universe index to its side-local row.
    ``gain_rows_left`` / ``gain_rows_right`` are the fixed-point net rows
    of every item (:meth:`CoverState.net_signs` times the quantized code
    length), which frame gains accumulate and ``net_left`` /
    ``net_right`` gather in universe order.  Only this engine builds
    them.  The shards of a parallel search share one context read-only.
    """

    __slots__ = (
        "n",
        "size",
        "words_all",
        "side_position",
        "left_index",
        "right_index",
        "mask_left",
        "mask_right",
        "net_left",
        "net_right",
        "full_words",
        "gain_rows_left",
        "gain_rows_right",
    )

    def __init__(
        self,
        universe: list[_Item],
        quantized: _Quantized,
        state: CoverState,
    ) -> None:
        cache = state.cache
        n = state.dataset.n_transactions
        n_words = cache.left_bits.n_words
        size = len(universe)
        self.n = n
        self.size = size
        self.words_all = np.zeros((size, n_words), dtype=np.uint64)
        self.side_position = [0] * size
        left_index: list[int] = []
        right_index: list[int] = []
        left_columns: list[int] = []
        right_columns: list[int] = []
        for index, entry in enumerate(universe):
            if entry.side is Side.LEFT:
                self.side_position[index] = len(left_index)
                left_index.append(index)
                left_columns.append(entry.column)
                self.words_all[index] = cache.left_bits.row(entry.column)
            else:
                self.side_position[index] = len(right_index)
                right_index.append(index)
                right_columns.append(entry.column)
                self.words_all[index] = cache.right_bits.row(entry.column)
        self.left_index = np.asarray(left_index, dtype=np.int64)
        self.right_index = np.asarray(right_index, dtype=np.int64)
        self.full_words = cache.full_words
        # Dense operands of the numpy childset and frame supports;
        # frame gains accumulate whole fixed-point net rows.
        self.gain_rows_left = (
            state.net_signs(Side.LEFT) * quantized.wq_left[:, None]
        )
        self.gain_rows_right = (
            state.net_signs(Side.RIGHT) * quantized.wq_right[:, None]
        )
        self.mask_left = cache.left_T[left_columns]
        self.mask_right = cache.right_T[right_columns]
        self.net_left = self.gain_rows_left[left_columns]
        self.net_right = self.gain_rows_right[right_columns]


class _DfsOperands:
    """Universe-ordered operands of the C traversal (``NativeKernel.dfs``).

    Built once per search and shared read-only by its shards: row ``u``
    of ``rows``, ``pos`` and ``neg`` holds universe entry ``u``'s packed
    transaction set and its positive/negative net-sign rows
    (:meth:`CoverState.sign_rows`), ``sides`` its view (0 left, 1 right)
    and ``wq`` its fixed-point code length, which is also its per-cell
    weight.  The transaction upper bounds ride as padded int64 weight
    tables.
    """

    __slots__ = (
        "kernel", "rows", "pos", "neg", "sides", "wq", "tub_left", "tub_right", "full",
    )

    def __init__(
        self, universe: list[_Item], quantized: _Quantized, cache: SearchCache
    ) -> None:
        from repro import native

        self.kernel = native.load_kernel()
        is_right = np.array([entry.side is Side.RIGHT for entry in universe], dtype=bool)
        columns = np.array([entry.column for entry in universe], dtype=np.int64)
        shape = (len(universe), cache.left_bits.n_words)
        self.rows = np.empty(shape, dtype=np.uint64)
        self.pos = np.empty(shape, dtype=np.uint64)
        self.neg = np.empty(shape, dtype=np.uint64)
        for side_mask, bits, pos, neg in (
            (~is_right, cache.left_bits, quantized.pos_left, quantized.neg_left),
            (is_right, cache.right_bits, quantized.pos_right, quantized.neg_right),
        ):
            side_columns = columns[side_mask]
            self.rows[side_mask] = bits.words[side_columns]
            self.pos[side_mask] = pos[side_columns]
            self.neg[side_mask] = neg[side_columns]
        self.sides = is_right.astype(np.int64)
        self.wq = np.array([entry.length_q for entry in universe], dtype=np.int64)
        self.tub_left = fixed_weight_table(quantized.tubq_left)
        self.tub_right = fixed_weight_table(quantized.tubq_right)
        self.full = cache.full_words


class _BitsetChildSet:
    """Per-child metrics of one frame, batched over all remaining entries.

    Built once when a frame yields its first child: co-occurrence flags,
    new-side support counts, ``rub`` weighted sums and directional gains
    for every candidate extension come out of a handful of vectorized word
    operations and matrix products.  The ``rub`` and gain weight vectors of
    one side share a single two-column GEMM, so each side's item matrix is
    read once; the ``net @ support`` products only depend on the support of
    the *opposite* side, so they are inherited from the parent frame along
    extension chains that leave that side untouched.  All metrics are
    exported as plain Python lists — the driver's inner loop then runs on
    Python floats instead of boxed numpy scalars.

    When a frame's supports are sparse, the matrix products are projected
    onto the support's transaction columns (``matrix[:, support] @
    weights[support]``): every discarded column contributes an exact zero,
    so — because all sums here are exact integers carried in float64 —
    the projection changes cost, never values, and the results stay equal
    to the unprojected products bit for bit.
    """

    __slots__ = (
        "context",
        "frame",
        "start_left",
        "start_right",
        "alive_list",
        "counts_left",
        "counts_right",
        "wsums_left",
        "wsums_right",
        "fwd_left",
        "fwd_right",
        "bwd_left",
        "bwd_right",
        "net_left_vals",
        "net_right_vals",
    )

    def __init__(
        self,
        context: _BitsetContext,
        quantized: _Quantized,
        frame: _Frame,
        start: int,
        need_rub: bool,
    ) -> None:
        self.context = context
        self.frame = frame
        start_left = int(np.searchsorted(context.left_index, start))
        start_right = int(np.searchsorted(context.right_index, start))
        self.start_left = start_left
        self.start_right = start_right
        n = context.n
        s_left = frame.s_left
        s_right = frame.s_right
        joint = s_left * s_right
        mask_left = context.mask_left[start_left:]
        mask_right = context.mask_right[start_right:]

        # One GEMM per side: reading the item-mask matrix once yields the
        # rub weighted sums, the directional gains, the new support counts
        # and the joint-support counts (co-occurrence) of every child.
        project_left = mask_left.shape[0] and 16 * frame.count_left < n
        if project_left:
            idx = np.flatnonzero(s_left)
            mask_left = mask_left[:, idx]
            columns = np.empty((idx.size, 4), dtype=np.float64)
            columns[:, 0] = quantized.tubq_right[idx]
            columns[:, 1] = frame.gain_right[idx]
            columns[:, 2] = 1.0
            columns[:, 3] = joint[idx]
            gain_column = columns[:, 1]
        else:
            columns = np.empty((n, 4), dtype=np.float64)
            np.multiply(quantized.tubq_right, s_left, out=columns[:, 0])
            np.multiply(frame.gain_right, s_left, out=columns[:, 1])
            columns[:, 2] = s_left
            columns[:, 3] = joint
            gain_column = columns[:, 1]
        if not need_rub:
            columns = columns[:, 1:]
        products_left = mask_left @ columns
        if need_rub:
            self.wsums_left = products_left[:, 0].tolist()
            products_left = products_left[:, 1:]
        else:
            self.wsums_left = None
        self.fwd_left = products_left[:, 0].tolist()
        self.counts_left = products_left[:, 1].tolist()
        joint_left = products_left[:, 2]
        # net_right @ s_left depends only on the left support: reuse the
        # parent's product when this frame extended the right side.
        if frame.net_right_vals is not None:
            net_right_sum = frame.net_right_vals[
                start_right - frame.net_right_start :
            ]
        elif project_left:
            net_right_sum = context.net_right[start_right:][:, idx].sum(axis=1)
        else:
            net_right_sum = context.net_right[start_right:] @ s_left
        self.net_right_vals = net_right_sum
        fwd_const = float(gain_column.sum())
        # forward of a right extension: the unchanged left support summed
        # over the frame's rhs gain vector plus the new item's net column.
        self.fwd_right = (net_right_sum + fwd_const).tolist()

        project_right = mask_right.shape[0] and 16 * frame.count_right < n
        if project_right:
            idx = np.flatnonzero(s_right)
            mask_right = mask_right[:, idx]
            columns = np.empty((idx.size, 4), dtype=np.float64)
            columns[:, 0] = quantized.tubq_left[idx]
            columns[:, 1] = frame.gain_left[idx]
            columns[:, 2] = 1.0
            columns[:, 3] = joint[idx]
            gain_column = columns[:, 1]
        else:
            columns = np.empty((n, 4), dtype=np.float64)
            np.multiply(quantized.tubq_left, s_right, out=columns[:, 0])
            np.multiply(frame.gain_left, s_right, out=columns[:, 1])
            columns[:, 2] = s_right
            columns[:, 3] = joint
            gain_column = columns[:, 1]
        if not need_rub:
            columns = columns[:, 1:]
        products_right = mask_right @ columns
        if need_rub:
            self.wsums_right = products_right[:, 0].tolist()
            products_right = products_right[:, 1:]
        else:
            self.wsums_right = None
        self.bwd_right = products_right[:, 0].tolist()
        self.counts_right = products_right[:, 1].tolist()
        joint_right = products_right[:, 2]
        if frame.net_left_vals is not None:
            net_left_sum = frame.net_left_vals[start_left - frame.net_left_start :]
        elif project_right:
            net_left_sum = context.net_left[start_left:][:, idx].sum(axis=1)
        else:
            net_left_sum = context.net_left[start_left:] @ s_right
        self.net_left_vals = net_left_sum
        bwd_const = float(gain_column.sum())
        self.bwd_left = (net_left_sum + bwd_const).tolist()

        # Children whose joint support is empty cannot co-occur (Section
        # 5.2) and are skipped without ever reaching the driver loop.
        alive = np.zeros(context.size - start, dtype=bool)
        alive[context.left_index[start_left:] - start] = joint_left > 0.0
        alive[context.right_index[start_right:] - start] = joint_right > 0.0
        self.alive_list = (np.flatnonzero(alive) + start).tolist()


class ExactRuleSearch:
    """Exact argmax-gain rule search over a cover state.

    Parameters
    ----------
    state:
        Current :class:`CoverState`; the search never mutates it.
    max_rule_size:
        Optional cap on the total number of items in a rule (bounds the
        search depth; ``None`` reproduces the paper's unbounded search).
    max_nodes:
        Optional node budget for anytime behaviour.
    use_rub, use_qub, order_items:
        Toggles for the pruning components (ablation A1).
    n_jobs:
        Worker count for root-subtree sharding (``None``/``-1`` = all
        CPUs).  The returned rule and gain are bit-identical to the
        serial search; statistics are summed over shards (see the module
        docstring).  Ignored when an anytime ``max_nodes`` budget is set
        — budgeted searches always run serially.
    executor:
        Optional pre-built :class:`repro.runtime.executor.ParallelExecutor`
        used for the shards, overriding ``n_jobs``.
    checkpoint:
        Optional :class:`SearchCheckpoint` from a previous
        budget-interrupted search over the same state and options; the
        traversal resumes exactly where it stopped.  A checkpoint whose
        path or cursors cannot describe a DFS stack raises
        ``ValueError``.  After an interrupted run the new checkpoint is
        exposed as ``search.last_checkpoint``.

    The engine of the traversal is the C kernel of :mod:`repro.native`
    wherever it compiles and the numpy frame stack otherwise (see the
    module docstring); ``search.backend`` names it.  Both compute the
    same exact fixed-point integers, so rules, gains, statistics, gap
    bounds and checkpoints are bit-identical.
    """

    def __init__(
        self,
        state: CoverState,
        max_rule_size: int | None = None,
        max_nodes: int | None = None,
        use_rub: bool = True,
        use_qub: bool = True,
        order_items: bool = True,
        seed_pairs: bool = True,
        n_jobs: int | None = 1,
        executor=None,
        checkpoint: SearchCheckpoint | None = None,
    ) -> None:
        from repro import native
        from repro.runtime.executor import effective_n_jobs

        self.state = state
        self.max_rule_size = max_rule_size
        self.max_nodes = max_nodes
        self.use_rub = use_rub
        self.use_qub = use_qub
        self.order_items = order_items
        self.seed_pairs = seed_pairs
        self.backend = "native" if native.available() else "numpy"
        self.cache = state.cache
        self.n_jobs = executor.n_jobs if executor is not None else effective_n_jobs(n_jobs)
        self.executor = executor
        if checkpoint is not None:
            _validate_checkpoint(checkpoint, max_rule_size)
        self.resume_from = checkpoint
        #: Populated by :meth:`find_best_rule` when a ``max_nodes``
        #: budget interrupts the traversal; ``None`` on complete runs.
        self.last_checkpoint: SearchCheckpoint | None = None
        if self.max_nodes is not None and self.n_jobs > 1:
            warnings.warn(
                "an anytime max_nodes budget is traversal-order dependent, "
                f"so this budgeted search runs serially; n_jobs={self.n_jobs} "
                "is ignored",
                UserWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    def find_best_rule(self) -> tuple[TranslationRule | None, float, SearchStats]:
        """Return ``(rule, gain, stats)``; ``rule`` is None when no rule has
        strictly positive gain (the greedy stopping criterion)."""
        inst = _obs.ACTIVE
        if inst is None:
            return self._find_best_rule_impl()
        started = time.perf_counter()
        result = self._find_best_rule_impl()
        inst.observe_search(result[2], time.perf_counter() - started)
        return result

    def _find_best_rule_impl(
        self,
    ) -> tuple[TranslationRule | None, float, SearchStats]:
        state = self.state
        dataset = state.dataset
        stats = SearchStats(backend=self.backend)
        quantized = _Quantized(state)
        universe = self._build_universe(quantized)

        best_rule: TranslationRule | None = None
        best_q = 0.0

        resume = self.resume_from
        if resume is not None:
            if resume.universe_size != len(universe):
                raise ValueError(
                    "checkpoint does not match this search universe "
                    f"({resume.universe_size} != {len(universe)} items)"
                )
            # The checkpoint's incumbent already dominates the pair seed
            # (the interrupted leg seeded before traversing), so seeding
            # again would be redundant work.
            if resume.best_lhs is not None:
                best_rule = TranslationRule(
                    resume.best_lhs, resume.best_rhs, resume.best_direction
                )
            best_q = resume.best_q
            stats.nodes_visited = resume.nodes_visited
            stats.nodes_pruned_rub = resume.nodes_pruned_rub
            stats.evaluations = resume.evaluations
            stats.evaluations_skipped_qub = resume.evaluations_skipped_qub
        else:
            seed_allowed = self.max_rule_size is None or self.max_rule_size >= 2
            if self.seed_pairs and seed_allowed and dataset.n_left and dataset.n_right:
                best_rule, best_q = self._seed_best_pair(quantized, best_rule, best_q)

        if (
            self.n_jobs > 1
            and self.max_nodes is None
            and resume is None
            and len(universe) > 1
        ):
            best_rule, best_q = self._traverse_parallel(
                quantized, universe, stats, best_rule, best_q
            )
        else:
            best_rule, best_q = self._traverse(
                quantized, universe, stats, best_rule, best_q, resume=resume
            )
        if best_q <= 0.0:
            return None, 0.0, stats
        return best_rule, quantized.to_float(best_q), stats

    # ------------------------------------------------------------------
    def _seed_best_pair(
        self, quantized: _Quantized, best_rule: TranslationRule | None, best_q: float
    ) -> tuple[TranslationRule | None, float]:
        """Best single-item pair rule, computed for all |I_L| x |I_R| pairs
        from fused AND+popcounts over the packed rows.

        This gives the branch-and-bound a strong lower bound from the
        start, which both tightens pruning on complete runs and makes the
        anytime (node-budgeted) mode return sensible rules.  Exactness is
        unaffected: the seed is itself a member of the rule space.
        """
        dataset = self.state.dataset
        cache = self.cache
        # Translating right item b onto left item a's rows gains
        # wq[b] * (|L_a & pos_b| - |L_a & neg_b|): exact integer grids.
        forward_grid = _net_grid(
            cache.left_bits.words,
            quantized.pos_right,
            quantized.neg_right,
            quantized.wq_right,
        )
        backward_grid = _net_grid(
            cache.right_bits.words,
            quantized.pos_left,
            quantized.neg_left,
            quantized.wq_left,
        ).T
        length_grid = quantized.wq_left[:, None] + quantized.wq_right[None, :]
        two = 2.0 * quantized.one
        grids = {
            "->": forward_grid - length_grid - two,
            "<-": backward_grid - length_grid - two,
            "<->": forward_grid + backward_grid - length_grid - quantized.one,
        }
        for direction, grid in grids.items():
            grid = np.where(cache.cooccur, grid, -np.inf)
            index = int(np.argmax(grid))
            left_item, right_item = divmod(index, dataset.n_right)
            value = float(grid[left_item, right_item])
            if value > best_q:
                best_q = value
                best_rule = TranslationRule((left_item,), (right_item,), direction)
        return best_rule, best_q

    # ------------------------------------------------------------------
    def _operands(
        self, universe: list[_Item], quantized: _Quantized
    ) -> _BitsetContext | _DfsOperands:
        """The engine's per-search operands, shared by every shard."""
        if self.backend == "native":
            return _DfsOperands(universe, quantized, self.cache)
        return _BitsetContext(universe, quantized, self.state)

    def _make_root(
        self, quantized: _Quantized, context: _BitsetContext, lo: int, hi: int
    ) -> _Frame:
        n = self.state.dataset.n_transactions
        root = _Frame()
        root.position = lo
        root.limit = hi
        root.lhs = ()
        root.rhs = ()
        root.len_lhs = 0.0
        root.len_rhs = 0.0
        root.supp_left = context.full_words
        root.supp_right = context.full_words
        root.wsum_left = float(quantized.tubq_right.sum())
        root.wsum_right = float(quantized.tubq_left.sum())
        root.count_left = n
        root.count_right = n
        ones = np.ones(n, dtype=np.float64)
        root.s_left = ones
        root.s_right = ones
        zero_gain = np.zeros(n, dtype=np.float64)
        root.gain_left = zero_gain
        root.gain_right = zero_gain
        return root

    # ------------------------------------------------------------------
    # Anytime support: gap bounds, checkpoint capture, checkpoint replay
    # ------------------------------------------------------------------
    def _record_interrupt(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        stats: SearchStats,
        best_rule: TranslationRule | None,
        best_q: float,
        frontier: float | None,
        path: tuple[int, ...],
        cursors: tuple[int, ...],
        root_range: tuple[int, int],
    ) -> None:
        """Record the gap bound and resume checkpoint at a budget break.

        ``frontier`` is the maximum ``rub`` over the unexplored frontier
        (``None`` when nothing is left unexplored): for every stacked
        frame, the not-yet-expanded children from its cursor on, each
        bounded exactly the way the traversal itself would bound them.
        Every unexplored node lives in one of those subtrees, so no rule
        outside the bound can exist.  Without ``use_rub`` only the loose
        root-mass bound is available.
        """
        stats.complete = False
        if not self.use_rub:
            frontier = (
                float(quantized.tubq_right.sum())
                + float(quantized.tubq_left.sum())
                - quantized.one
            )
        if frontier is None:
            stats.gap_bound = 0.0
        else:
            stats.gap_bound = max(0.0, quantized.to_float(frontier - best_q))
        self.last_checkpoint = SearchCheckpoint(
            path=path,
            cursors=cursors,
            root_lo=root_range[0],
            root_hi=root_range[1],
            best_lhs=best_rule.lhs if best_rule is not None else None,
            best_rhs=best_rule.rhs if best_rule is not None else None,
            best_direction=(
                best_rule.direction.value if best_rule is not None else None
            ),
            best_q=best_q,
            nodes_visited=stats.nodes_visited,
            nodes_pruned_rub=stats.nodes_pruned_rub,
            evaluations=stats.evaluations,
            evaluations_skipped_qub=stats.evaluations_skipped_qub,
            universe_size=len(universe),
        )

    def _frontier_bound(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        context: _BitsetContext,
        stack: list[_Frame],
    ) -> float | None:
        """Largest ``rub`` of a stacked frame's unvisited child (numpy stack)."""
        one = quantized.one
        entry_is_left = [entry.side is Side.LEFT for entry in universe]
        entry_length = [entry.length_q for entry in universe]
        side_position = context.side_position
        bound = None
        for frame in stack:
            childset = frame.childset
            base_cost = frame.len_lhs + frame.len_rhs + one
            for index in childset.alive_list[frame.cursor :]:
                left_side = entry_is_left[index]
                offset = side_position[index] - (
                    childset.start_left if left_side else childset.start_right
                )
                if left_side:
                    rub = (
                        childset.wsums_left[offset]
                        + frame.wsum_right
                        - base_cost
                        - entry_length[index]
                    )
                else:
                    rub = (
                        frame.wsum_left
                        + childset.wsums_right[offset]
                        - base_cost
                        - entry_length[index]
                    )
                if bound is None or rub > bound:
                    bound = rub
        return bound

    def _rebuild_checkpoint_stack(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        context: _BitsetContext,
        checkpoint: SearchCheckpoint,
    ) -> list[_Frame]:
        """Replay a checkpoint's root-to-leaf path into a live frame stack.

        Re-creates each frame on the path exactly the way the original
        traversal created it (same childset construction, same metric
        lookups) and restores the saved cursors.  Every frame's childset
        is rebuilt, the top one included, so each cursor is checked
        against the child list it indexes: a lower frame's cursor must
        point just past the child that created the next frame, and the
        top frame's cursor at the unvisited child the budget stopped on.
        A cursor that fails either raises ``ValueError`` before any node
        is visited.
        """
        size = len(universe)
        use_rub = self.use_rub
        path = checkpoint.path
        stack = [
            self._make_root(
                quantized, context, checkpoint.root_lo, checkpoint.root_hi
            )
        ]
        for depth, cursor in enumerate(checkpoint.cursors):
            frame = stack[-1]
            childset = _BitsetChildSet(
                context, quantized, frame, frame.position, use_rub
            )
            if frame.limit < size:
                cut = bisect.bisect_left(childset.alive_list, frame.limit)
                childset.alive_list = childset.alive_list[:cut]
            frame.childset = childset
            frame.cursor = cursor
            alive_list = childset.alive_list
            if depth == len(path):
                if cursor >= len(alive_list):
                    _reject_top_cursor(checkpoint, len(alive_list))
                break
            index = path[depth]
            if not 0 < cursor <= len(alive_list) or alive_list[cursor - 1] != index:
                _reject_cursor(checkpoint, depth)
            left_side = universe[index].side is Side.LEFT
            side_offset = context.side_position[index] - (
                childset.start_left if left_side else childset.start_right
            )
            if left_side:
                wsum_new = childset.wsums_left[side_offset] if use_rub else 0.0
                count_new = childset.counts_left[side_offset]
            else:
                wsum_new = childset.wsums_right[side_offset] if use_rub else 0.0
                count_new = childset.counts_right[side_offset]
            stack.append(
                self._child_frame(
                    context, universe, frame, childset, index, wsum_new, count_new
                )
            )
        return stack

    def _child_frame(
        self,
        context: _BitsetContext,
        universe: list[_Item],
        frame: _Frame,
        childset: _BitsetChildSet,
        index: int,
        wsum_new: float,
        count_new: float,
    ) -> _Frame:
        """The numpy frame of ``frame``'s child created by universe ``index``."""
        entry = universe[index]
        column = entry.column
        position = context.side_position[index]
        child = _Frame()
        child.position = index + 1
        child.limit = len(universe)
        if entry.side is Side.LEFT:
            child.lhs = frame.lhs + (column,)
            child.rhs = frame.rhs
            child.len_lhs = frame.len_lhs + entry.length_q
            child.len_rhs = frame.len_rhs
            child.supp_left = context.words_all[index] & frame.supp_left
            child.supp_right = frame.supp_right
            child.s_left = frame.s_left * context.mask_left[position]
            child.s_right = frame.s_right
            child.wsum_left = wsum_new
            child.wsum_right = frame.wsum_right
            child.count_left = count_new
            child.count_right = frame.count_right
            child.gain_left = frame.gain_left + context.gain_rows_left[column]
            child.gain_right = frame.gain_right
            # s_right unchanged: the net_left @ s_right products carry over.
            child.net_left_vals = childset.net_left_vals
            child.net_left_start = childset.start_left
        else:
            child.lhs = frame.lhs
            child.rhs = frame.rhs + (column,)
            child.len_lhs = frame.len_lhs
            child.len_rhs = frame.len_rhs + entry.length_q
            child.supp_left = frame.supp_left
            child.supp_right = context.words_all[index] & frame.supp_right
            child.s_left = frame.s_left
            child.s_right = frame.s_right * context.mask_right[position]
            child.wsum_left = frame.wsum_left
            child.wsum_right = wsum_new
            child.count_left = frame.count_left
            child.count_right = count_new
            child.gain_left = frame.gain_left
            child.gain_right = frame.gain_right + context.gain_rows_right[column]
            child.net_right_vals = childset.net_right_vals
            child.net_right_start = childset.start_right
        return child

    def _traverse_parallel(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        stats: SearchStats,
        seed_rule: TranslationRule | None,
        seed_q: float,
    ) -> tuple[TranslationRule | None, float]:
        """Shard the root subtrees across workers and merge in shard order.

        Every shard traverses its contiguous range of root positions with
        the same seed incumbent; the merge applies the serial driver's
        strictly-greater replacement in shard order, which reproduces the
        serial tie-break exactly (see the module docstring for why the
        weaker per-shard incumbents cannot change the argmax).  Root
        subtrees shrink with their position, so the ranges are drawn from
        a quadratic ramp — early (wide) subtrees get narrower shards —
        and there are more shards than workers for load balance.
        """
        from repro.runtime.executor import ParallelExecutor

        if self.max_rule_size is not None and self.max_rule_size <= 0:
            return seed_rule, seed_q
        size = len(universe)
        executor = self.executor
        if executor is None:
            # Threads: shards share the read-only operands, and both
            # engines do their heavy lifting with the GIL released.
            executor = ParallelExecutor(
                n_jobs=min(self.n_jobs, size), backend="thread", chunk_size=1
            )
        n_shards = min(size, 4 * executor.n_jobs)
        ramp = np.linspace(0.0, 1.0, n_shards + 1) ** 2
        bounds = np.unique(np.round(ramp * size).astype(int))
        ranges = [
            (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        operands = self._operands(universe, quantized)

        def run_shard(root_range: tuple[int, int]):
            lo, hi = root_range
            shard_stats = SearchStats(backend=self.backend)
            rule, gain_q = self._traverse(
                quantized, universe, shard_stats, seed_rule, seed_q,
                operands=operands, root_lo=lo, root_hi=hi,
            )
            return rule, gain_q, shard_stats

        best_rule, best_q = seed_rule, seed_q
        for rule, gain_q, shard_stats in executor.map(run_shard, ranges):
            stats.nodes_visited += shard_stats.nodes_visited
            stats.nodes_pruned_rub += shard_stats.nodes_pruned_rub
            stats.evaluations += shard_stats.evaluations
            stats.evaluations_skipped_qub += shard_stats.evaluations_skipped_qub
            if gain_q > best_q:
                best_rule, best_q = rule, gain_q
        stats.shards = len(ranges)
        return best_rule, best_q

    def _traverse(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        stats: SearchStats,
        best_rule: TranslationRule | None,
        best_q: float,
        operands: _BitsetContext | _DfsOperands | None = None,
        root_lo: int = 0,
        root_hi: int | None = None,
        resume: SearchCheckpoint | None = None,
    ) -> tuple[TranslationRule | None, float]:
        """Depth-first branch-and-bound over the universe.

        Shards of a parallel search pass their shared ``operands`` and
        their root range ``[root_lo, root_hi)``; a resumed search replays
        ``resume``'s stack instead of starting at the root.  The C
        kernel runs the whole traversal in one call; the numpy engine
        iterates an explicit frame stack here.
        """
        if self.max_rule_size is not None and self.max_rule_size <= 0:
            return best_rule, best_q
        if operands is None:
            operands = self._operands(universe, quantized)
        if root_hi is None:
            root_hi = len(universe)
        if isinstance(operands, _DfsOperands):
            return self._traverse_native(
                quantized, universe, stats, best_rule, best_q,
                operands, (root_lo, root_hi), resume,
            )
        return self._traverse_numpy(
            quantized, universe, stats, best_rule, best_q,
            operands, (root_lo, root_hi), resume,
        )

    def _traverse_native(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        stats: SearchStats,
        best_rule: TranslationRule | None,
        best_q: float,
        operands: _DfsOperands,
        root_range: tuple[int, int],
        resume: SearchCheckpoint | None,
    ) -> tuple[TranslationRule | None, float]:
        """The traversal as one ``NativeKernel.dfs`` call (GIL released)."""
        if resume is not None:
            root_range = (resume.root_lo, resume.root_hi)
        outcome = operands.kernel.dfs(
            operands.rows,
            operands.pos,
            operands.neg,
            operands.sides,
            operands.wq,
            operands.tub_left,
            operands.tub_right,
            operands.full,
            one=int(quantized.one),
            best_q=int(best_q),
            counters=(
                stats.nodes_visited,
                stats.nodes_pruned_rub,
                stats.evaluations,
                stats.evaluations_skipped_qub,
            ),
            root=root_range,
            use_rub=self.use_rub,
            use_qub=self.use_qub,
            max_rule_size=self.max_rule_size,
            max_nodes=self.max_nodes,
            path=resume.path if resume is not None else (),
            cursors=resume.cursors if resume is not None else None,
        )
        if outcome.status == "bad_top_cursor":
            _reject_top_cursor(resume, outcome.error_children)
        if outcome.status == "bad_cursor":
            _reject_cursor(resume, outcome.error_depth)
        if outcome.status == "too_deep":
            _reject_depth(resume, self.max_rule_size)
        (
            stats.nodes_visited,
            stats.nodes_pruned_rub,
            stats.evaluations,
            stats.evaluations_skipped_qub,
        ) = outcome.counters
        if outcome.best is not None:
            entries = [universe[index] for index in outcome.best]
            best_rule = TranslationRule(
                tuple(entry.column for entry in entries if entry.side is Side.LEFT),
                tuple(entry.column for entry in entries if entry.side is Side.RIGHT),
                outcome.direction,
            )
            best_q = float(outcome.best_q)
        if outcome.status == "interrupted":
            frontier = outcome.frontier_bound
            self._record_interrupt(
                quantized, universe, stats, best_rule, best_q,
                None if frontier is None else float(frontier),
                outcome.path, outcome.cursors, root_range,
            )
        return best_rule, best_q

    def _traverse_numpy(
        self,
        quantized: _Quantized,
        universe: list[_Item],
        stats: SearchStats,
        best_rule: TranslationRule | None,
        best_q: float,
        context: _BitsetContext,
        root_range: tuple[int, int],
        resume: SearchCheckpoint | None,
    ) -> tuple[TranslationRule | None, float]:
        """The traversal on an explicit frame stack of batched childsets.

        Child metrics come from the frame's batched childset, and only
        co-occurring (alive) children are iterated at all.
        """
        one = quantized.one
        two = 2.0 * one
        size = len(universe)
        use_rub, use_qub = self.use_rub, self.use_qub
        max_rule_size, max_nodes = self.max_rule_size, self.max_nodes
        entry_is_left = [entry.side is Side.LEFT for entry in universe]
        entry_column = [entry.column for entry in universe]
        entry_length = [entry.length_q for entry in universe]
        side_position = context.side_position

        nodes_visited = stats.nodes_visited
        if resume is not None:
            stack = self._rebuild_checkpoint_stack(
                quantized, universe, context, resume
            )
        else:
            stack = [self._make_root(quantized, context, *root_range)]
        while stack:
            frame = stack[-1]
            childset = frame.childset
            if childset is None:
                if frame.position >= frame.limit:
                    stack.pop()
                    continue
                childset = _BitsetChildSet(
                    context, quantized, frame, frame.position, use_rub
                )
                if frame.limit < size:
                    # A sharded root only iterates its own range of root
                    # subtrees; children still extend over the full tail.
                    cut = bisect.bisect_left(childset.alive_list, frame.limit)
                    childset.alive_list = childset.alive_list[:cut]
                frame.childset = childset
            alive_list = childset.alive_list
            cursor = frame.cursor
            if cursor >= len(alive_list):
                stack.pop()
                continue
            index = alive_list[cursor]
            frame.cursor = cursor + 1
            nodes_visited += 1
            if max_nodes is not None and nodes_visited > max_nodes:
                # The over-budget node at ``cursor`` was never processed:
                # rewind it so the checkpoint re-visits it, making the
                # resumed decision sequence (and statistics) bit-identical
                # to an uninterrupted run's.
                frame.cursor = cursor
                stats.nodes_visited = nodes_visited - 1
                self._record_interrupt(
                    quantized, universe, stats, best_rule, best_q,
                    self._frontier_bound(quantized, universe, context, stack)
                    if use_rub else None,
                    tuple(frame.position - 1 for frame in stack[1:]),
                    tuple(frame.cursor for frame in stack),
                    (stack[0].position, stack[0].limit),
                )
                return best_rule, best_q
            left_side = entry_is_left[index]
            column = entry_column[index]
            side_offset = side_position[index] - (
                childset.start_left if left_side else childset.start_right
            )
            if left_side:
                new_len_lhs = frame.len_lhs + entry_length[index]
                new_len_rhs = frame.len_rhs
            else:
                new_len_lhs = frame.len_lhs
                new_len_rhs = frame.len_rhs + entry_length[index]
            length_cost = new_len_lhs + new_len_rhs + one
            wsum_new = 0.0
            if use_rub:
                wsum_new = (
                    childset.wsums_left[side_offset]
                    if left_side
                    else childset.wsums_right[side_offset]
                )
                if left_side:
                    rub = wsum_new + frame.wsum_right - length_cost
                else:
                    rub = frame.wsum_left + wsum_new - length_cost
                if rub <= best_q:
                    stats.nodes_pruned_rub += 1
                    continue
            count_new = (
                childset.counts_left[side_offset]
                if left_side
                else childset.counts_right[side_offset]
            )
            if left_side:
                new_lhs = frame.lhs + (column,)
                new_rhs = frame.rhs
                count_left, count_right = count_new, frame.count_right
            else:
                new_lhs = frame.lhs
                new_rhs = frame.rhs + (column,)
                count_left, count_right = frame.count_left, count_new
            if new_lhs and new_rhs:
                qub_passed = True
                if use_qub:
                    qub = (
                        count_left * new_len_rhs
                        + count_right * new_len_lhs
                        - length_cost
                    )
                    if qub <= best_q:
                        stats.evaluations_skipped_qub += 1
                        qub_passed = False
                if qub_passed:
                    stats.evaluations += 1
                    if left_side:
                        forward = childset.fwd_left[side_offset]
                        backward = childset.bwd_left[side_offset]
                    else:
                        forward = childset.fwd_right[side_offset]
                        backward = childset.bwd_right[side_offset]
                    base = new_len_lhs + new_len_rhs
                    gain = forward - base - two
                    if gain > best_q:
                        best_q = gain
                        best_rule = TranslationRule(new_lhs, new_rhs, "->")
                    gain = backward - base - two
                    if gain > best_q:
                        best_q = gain
                        best_rule = TranslationRule(new_lhs, new_rhs, "<-")
                    gain = forward + backward - base - one
                    if gain > best_q:
                        best_q = gain
                        best_rule = TranslationRule(new_lhs, new_rhs, "<->")
            if max_rule_size is not None and len(new_lhs) + len(new_rhs) >= max_rule_size:
                continue
            stack.append(
                self._child_frame(
                    context, universe, frame, childset, index, wsum_new, count_new
                )
            )
        stats.nodes_visited = nodes_visited
        return best_rule, best_q

    # ------------------------------------------------------------------
    def _build_universe(self, quantized: _Quantized) -> list[_Item]:
        """Items of both views, ordered by descending gain potential.

        The potential of an item is the total ``tub`` mass of the
        transactions containing it — the paper's descending ``tub({I})``
        ordering, which front-loads promising rules and boosts pruning.
        Items that never occur are excluded (they cannot appear in any
        co-occurring pair).  Potentials are fixed-point integers, so the
        ordering is identical on both engines.
        """
        dataset = self.state.dataset
        cache = self.cache
        combined = quantized.tubq_left + quantized.tubq_right
        potentials_left = combined @ dataset.left if dataset.n_left else np.zeros(0)
        potentials_right = combined @ dataset.right if dataset.n_right else np.zeros(0)
        entries: list[tuple[float, _Item]] = []
        for column in range(dataset.n_left):
            if cache.left_counts[column] == 0:
                continue
            entries.append(
                (
                    float(potentials_left[column]),
                    _Item(Side.LEFT, column, float(quantized.wq_left[column])),
                )
            )
        for column in range(dataset.n_right):
            if cache.right_counts[column] == 0:
                continue
            entries.append(
                (
                    float(potentials_right[column]),
                    _Item(Side.RIGHT, column, float(quantized.wq_right[column])),
                )
            )
        if self.order_items:
            entries.sort(key=lambda pair: -pair[0])
        return [item for __, item in entries]
