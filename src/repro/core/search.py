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
Supports are packed uint64 bitsets (:mod:`repro.core.bitset`).  Python
builds one set of universe-ordered packed operands per search
(:class:`_DfsOperands`), and the traversal runs over it on one of two
engines, which the platform picks:

* where the C kernel of :mod:`repro.native` compiles, the whole
  depth-first traversal of one search (or of one root-range shard) is a
  single call into it (``NativeKernel.dfs``).  The call releases the
  GIL and never allocates.  It sums a ``rub`` mass only when a prune
  decision needs it (see ``native/kernel.c``).
* elsewhere (no C compiler, or ``REPRO_NATIVE_DISABLE=1``)
  :func:`_dfs_numpy` walks the same frames on an explicit stack in
  Python.  A frame holds what ``repro_frame`` holds, and one vectorised
  pass over the packed words of its alive children gives their support
  counts and own items' net counts (AND + popcount) and their ``rub``
  masses (gathered from per-byte tables of the ``tub`` weights); a
  second pass, when the frame first evaluates a child, sums their
  deltas towards the other view the way ``repro_delta`` sums them.

Both return the same outcome (:class:`repro.native.api.DfsResult`), from
which Python decodes the incumbent, the statistics and, after a budget
break, the checkpoint and gap bound.  Both engines seed the incumbent
with the best single-item pair, counted on the packed rows
(``and_popcount_rows``), so no search builds a dense item matrix or runs
a BLAS matrix-matrix product.

:attr:`SearchStats.backend` names the engine that ran (``"native"`` or
``"numpy"``).  Both engines return **bit-identical** rules, gains,
:class:`SearchStats`, gap bounds and checkpoints — a checkpoint taken by
one resumes on the other, since both index the same lists of alive
children.  This is guaranteed structurally, not by luck: all code
lengths are quantized once per search to fixed-point integers
(:class:`_Quantized`), so every bound and gain is an exact integer sum,
independent of evaluation order and of the support representation.  The
C traversal sums in int64, the numpy one in int64 arrays and Python
integers; the quantization step keeps every partial sum below ``2^51``,
so each converts exactly to the ``float64`` the seed and the reported
gains use.  On the test datasets the step is ``2^-39`` or finer, so
reported gains differ from the real-valued ones by far less than the
``1e-9`` tolerance the brute-force tests use, while the paper's
``rub``/``qub`` soundness proofs carry over verbatim because the
quantized weights obey the same inequalities the real weights do.

Both traversals use an explicit frame stack rather than recursion, so
deep universes (hundreds of items with ``max_rule_size=None``) cannot
hit Python's recursion limit.  Directional gains are maintained
incrementally: extending a rule by one item of a view leaves the
support of the other view alone, so the gain towards the extended view
is the parent's plus one item's term.

A :class:`SearchCache` holds the dataset-static state: the packed data
columns, packed once per fit, and the co-occurrence grid, built when a
search first needs it (every search's pair seed, and
:class:`~repro.core.beam.TranslatorBeam`).  The fit's
:class:`~repro.core.state.CoverState` owns the cache, so every search of
a fit, and the state's own gains, share one set of packed columns.

Parallel sharding (``n_jobs``)
------------------------------
With ``n_jobs > 1`` the branch-and-bound is *sharded over root subtrees*:
the universe's root positions are split into contiguous ranges, each
worker of a :class:`repro.runtime.executor.ParallelExecutor` (thread
backend — a native shard is one GIL-releasing C call; numpy shards
release the GIL only inside their word passes, so they mostly take
turns) traverses its ranges with the same seed incumbent, and the
per-shard winners are merged in shard order under the serial path's
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
    popcount_rows,
    unpack_rows,
)
from repro.core.rules import TranslationRule

if TYPE_CHECKING:
    from repro.core.state import CoverState
    from repro.native.api import DfsResult, NativeKernel

__all__ = [
    "SearchStats",
    "SearchCheckpoint",
    "SearchCache",
    "ExactRuleSearch",
    "MAX_FRACTION_BITS",
    "quantization_bits",
]

#: Largest fixed-point fraction-bit count :func:`quantization_bits` returns.
MAX_FRACTION_BITS = 42


def quantization_bits(
    tub_max: float, weights_left: np.ndarray, weights_right: np.ndarray, n: int
) -> int:
    """The fixed-point fraction-bit count of a search over ``n`` transactions.

    Code lengths are scaled by ``2^bits`` and rounded once (see
    :class:`_Quantized`), with ``bits`` chosen so the largest possible
    intermediate sum, ``(n + 1) * (tub_max + L(I_L) + L(I_R) + 4)`` in
    fixed point, stays below ``2^51``, and clamped to
    ``[0, MAX_FRACTION_BITS]``.  ``tub_max`` is the largest ``tub`` of the
    left view plus the largest of the right view; ``weights_left`` /
    ``weights_right`` are the per-item code lengths.  The column store
    (:mod:`repro.corpus`) records the same scale for an empty cover state.
    """
    magnitude = (n + 1.0) * (
        tub_max + float(weights_left.sum()) + float(weights_right.sum()) + 4.0
    )
    return max(0, min(MAX_FRACTION_BITS, 51 - math.frexp(magnitude)[1]))


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

    Construction packs only.  The one operand a search adds is built on
    first use, so states that only replay rules never pay for it:
    ``cooccur``, counted on the packed columns, which every search's pair
    seed and :class:`~repro.core.beam.TranslatorBeam` read.  Both
    traversals read the packed columns themselves (:class:`_DfsOperands`).
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

    All code lengths are scaled by ``2^bits`` (:func:`quantization_bits`)
    and rounded once; every bound and gain downstream is then an exact
    integer sum that stays below ``2^51`` whatever the summation order,
    so the integer-valued ``float64`` vectors here convert exactly to the
    int64 operands of both traversals (:class:`_DfsOperands`).  It holds
    what the pair seed and the universe order read: the quantized code
    lengths, ``tub`` and the packed sign rows.
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
        self.bits = quantization_bits(tub_max, weights_left, weights_right, n)
        self.one = float(1 << self.bits)
        self.wq_left = np.rint(weights_left * self.one)
        self.wq_right = np.rint(weights_right * self.one)
        # Net per-cell weight sign: covering an uncovered cell gains its
        # code length, introducing a new error loses it, anything else 0.
        # The pair seed and both traversals sum the packed sign rows as
        # fused AND+popcounts.
        self.pos_left, self.neg_left = state.sign_rows(Side.LEFT)
        self.pos_right, self.neg_right = state.sign_rows(Side.RIGHT)
        # tub in fixed point, recomputed from the quantized weights (the
        # positive rows are U) so the rub bound provably dominates the
        # quantized gains.
        self.tubq_left = unpack_rows(self.pos_left, n).T @ self.wq_left
        self.tubq_right = unpack_rows(self.pos_right, n).T @ self.wq_right

    def to_float(self, value: float) -> float:
        return float(value) / self.one


def _byte_masses(table: np.ndarray) -> np.ndarray:
    """Entry ``256 * k + v``: the mass of byte value ``v`` at support byte ``k``.

    ``table`` is a padded weight table (:func:`fixed_weight_table`) whose
    entry ``8k + b`` weighs transaction ``8k + b``, which is bit ``b`` of
    byte ``k`` of a packed support on every platform.
    """
    weights = table.reshape(-1, 8)
    out = np.zeros((weights.shape[0], 256), dtype=np.int64)
    for bit in range(8):
        span = 1 << bit
        out[:, span : 2 * span] = out[:, :span] + weights[:, bit, None]
    return out.ravel()


class _DfsOperands:
    """Universe-ordered operands of one search, read by both traversals.

    Built once per search and shared read-only by its shards: row ``u``
    of ``rows``, ``pos`` and ``neg`` holds universe entry ``u``'s packed
    transaction set and its positive/negative net-sign rows
    (:meth:`CoverState.sign_rows`), ``sides`` its view (0 left, 1 right)
    and ``wq`` its fixed-point code length, which is also its per-cell
    weight.  The transaction upper bounds ride as padded int64 weight
    tables.

    ``kernel`` is the loaded C kernel that runs the traversal, or
    ``None``: then :func:`_dfs_numpy` runs it, on tables built only for
    it.  ``item_words[u]`` stacks ``rows[u]``, ``pos[u]`` and ``neg[u]``.
    ``delta_weights[u]`` weighs the counts of the last two in a delta
    towards ``u``'s view: ``±wq[u]`` in column 0 (the delta of a left
    child towards the right view) when ``u`` is a right item, in column 1
    when it is a left one.  ``byte_masses[byte_base[s] + 256 * k + v]``
    is the ``tub`` mass, under the table of the view other than ``s``, of
    byte value ``v`` at byte ``k`` of a support (:func:`_byte_masses`), so
    the ``rub`` mass of a child of view ``s`` is a gather over its
    support's bytes.
    """

    __slots__ = (
        "kernel", "rows", "pos", "neg", "sides", "wq", "tub_left", "tub_right", "full",
        "item_words", "delta_weights", "byte_masses", "byte_base",
    )

    def __init__(
        self,
        universe: list[_Item],
        quantized: _Quantized,
        cache: SearchCache,
        kernel: NativeKernel | None,
    ) -> None:
        self.kernel = kernel
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
        self.item_words = self.delta_weights = self.byte_masses = self.byte_base = None
        if kernel is None:
            n_bytes = 8 * shape[1]
            self.item_words = np.stack([self.rows, self.pos, self.neg], axis=1)
            towards = np.stack([self.wq * self.sides, self.wq * (1 - self.sides)], axis=1)
            self.delta_weights = np.stack([towards, -towards], axis=1)
            # A left child's mass is under tub_right, a right child's
            # under tub_left.
            self.byte_masses = np.concatenate(
                [_byte_masses(self.tub_right), _byte_masses(self.tub_left)]
            )
            self.byte_base = 256 * np.arange(2 * n_bytes, dtype=np.int64).reshape(
                2, n_bytes
            )


class _Frame:
    """One frame of the numpy traversal: ``repro_frame`` of ``native/kernel.c``.

    Per-view fields are indexed by view (0 the lhs, 1 the rhs): ``pair``
    holds the packed supports, ``n_items`` and ``len`` the item counts
    and code lengths, ``count`` and ``wsum`` each support's size and its
    ``tub`` mass under the other view's table, and ``delta`` the rule's
    deltas towards the left and the right view, ``None`` until summed.
    ``path`` lists the universe entries that created the frames down to
    this one.

    :func:`_expand` lists the alive children in ``[position, limit)``
    (``alive``) with each one's narrowed support, count, own item's net
    count (``own_nets``) and, under ``rub``, mass; :func:`_delta_pass`, run when the frame first
    evaluates a child, adds each child's delta towards the other view
    from ``delta_start`` on (``others``, indexed by the child's view).
    """

    __slots__ = (
        "path", "position", "limit", "cursor", "pair", "n_items", "len", "count",
        "wsum", "delta", "alive", "narrowed", "counts", "masses", "own_nets",
        "delta_start", "others",
    )

    def __init__(
        self, path, position, limit, pair, n_items, lengths, count, wsum, delta
    ) -> None:
        self.path = path
        self.position = position
        self.limit = limit
        self.cursor = 0
        self.pair = pair
        self.n_items = n_items
        self.len = lengths
        self.count = count
        self.wsum = wsum
        self.delta = delta
        self.alive = None
        self.others = None
        self.delta_start = 0

    def child(
        self, k: int, u: int, s: int, length: int, size: int, delta
    ) -> "_Frame":
        """The frame of alive child ``k``, universe entry ``u`` of view ``s``.

        ``length`` is ``u``'s code length and ``delta`` the child's deltas
        when the frame evaluated it (``None`` leaves them to the child).
        """
        pair = self.pair.copy()
        pair[s] = self.narrowed[k]
        n_items = self.n_items.copy()
        n_items[s] += 1
        lengths = self.len.copy()
        lengths[s] += length
        count = self.count.copy()
        count[s] = self.counts[k]
        wsum = self.wsum.copy()
        if self.masses is not None:
            wsum[s] = self.masses[k]
        return _Frame(
            self.path + (u,), u + 1, size, pair, n_items, lengths, count, wsum, delta
        )


# For a child of view s: its own view's support, then the other view's
# twice (the supports its row, its pos row and its neg row are ANDed with).
_CHILD_SUPPORTS = np.array([[0, 1, 1], [1, 0, 0]])


def _expand(ops: _DfsOperands, frame: _Frame, use_rub: bool) -> None:
    """List the frame's alive children with their counts, masses and own nets.

    A child is alive when its item co-occurs with the frame's joint
    support (``repro_expand``); its support narrows the frame's support
    on its view (``repro_narrow``), its mass sums that support under the
    other view's ``tub`` (``repro_mass``), byte by byte, and its own net
    counts its item's pos and neg rows on the other view's support
    (``repro_net``, for the delta towards its own view).  One AND and one
    popcount over the packed words give the last three.
    """
    pair = frame.pair
    lo = frame.position
    hit = (ops.rows[lo : frame.limit] & (pair[0] & pair[1])).any(axis=1)
    ids = hit.nonzero()[0]
    ids += lo
    sides = ops.sides[ids]
    words = ops.item_words[ids] & pair[_CHILD_SUPPORTS][sides]
    counts = popcount_rows(words)
    frame.alive = ids.tolist()
    frame.narrowed = words[:, 0]
    frame.counts = counts[:, 0].tolist()
    frame.own_nets = (counts[:, 1] - counts[:, 2]).tolist()
    frame.masses = None
    if use_rub:
        frame.masses = (
            ops.byte_masses.take(ops.byte_base[sides] + words.view(np.uint8)[:, 0])
            .sum(axis=1)
            .tolist()
        )


def _frame_delta(ops: _DfsOperands, frame: _Frame) -> tuple[int | None, int | None]:
    """The frame's own deltas towards the left and the right view.

    Only a child whose rule has items on both views is evaluated, so a
    frame with one view empty evaluates only children of the empty view,
    whose delta towards it sums no item; its delta towards the other view
    is never read and stays ``None``, as ``repro_dfs`` leaves it unsummed.
    """
    n_left, n_right = frame.n_items
    if not n_left:
        return 0, None
    if not n_right:
        return None, 0
    items = np.array(frame.path, dtype=np.int64)
    supports = frame.pair[1 - ops.sides[items]]
    counts = popcount_rows(supports[:, None, :] & ops.item_words[items, 1:])
    towards_right, towards_left = (
        counts.reshape(-1) @ ops.delta_weights[items].reshape(-1, 2)
    ).tolist()
    return towards_left, towards_right


def _delta_pass(ops: _DfsOperands, frame: _Frame, start: int) -> None:
    """The deltas towards the other view of the frame's children from ``start`` on.

    As ``repro_dfs`` sums them (``repro_delta``): afresh, over the
    child's narrowed support, for the path items of the view other than
    the child's.  The child's delta towards its own view is the frame's
    plus its own net (:func:`_expand`), so the frame's deltas are summed
    here too when it has none yet.
    """
    if frame.delta is None:
        frame.delta = _frame_delta(ops, frame)
    items = np.array(frame.path, dtype=np.int64)
    signs = ops.item_words[items, 1:].reshape(2 * items.size, -1)
    counts = popcount_rows(frame.narrowed[start:, None, :] & signs)
    frame.others = (counts @ ops.delta_weights[items].reshape(-1, 2)).tolist()
    frame.delta_start = start


def _dfs_numpy(
    ops: _DfsOperands,
    *,
    one: int,
    best_q: int,
    counters: tuple[int, int, int, int],
    root: tuple[int, int],
    use_rub: bool,
    use_qub: bool,
    max_rule_size: int | None,
    max_nodes: int | None,
    path: tuple[int, ...],
    cursors: tuple[int, ...] | None,
) -> DfsResult:
    """``NativeKernel.dfs`` on numpy: the same traversal and the same outcome.

    Walks the frames ``repro_dfs`` walks and makes every decision it
    makes, in the same order; only the masses and deltas are summed in
    batches (:func:`_expand`, :func:`_delta_pass`) rather than on demand,
    which changes no value.  The caller validated the checkpoint's
    shape; the cursors are checked here against the replayed child lists.
    """
    from repro.native.api import DfsResult

    sides = ops.sides.tolist()
    wq = ops.wq.tolist()
    size = len(wq)
    visited, pruned, evaluations, skipped = counters
    best = direction = None
    n = int(popcount_rows(ops.full[None, :])[0])
    stack = [
        _Frame(
            (), root[0], root[1], np.stack([ops.full, ops.full]), [0, 0], [0, 0],
            [n, n], [int(ops.tub_right.sum()), int(ops.tub_left.sum())], (0, 0),
        )
    ]
    if cursors is not None:
        # Replay the checkpoint's path the way the traversal built it.
        for depth, cursor in enumerate(cursors):
            frame = stack[-1]
            _expand(ops, frame, use_rub)
            frame.cursor = cursor
            n_alive = len(frame.alive)
            if depth == len(path):
                if cursor >= n_alive:
                    return DfsResult(
                        "bad_top_cursor", best_q, counters,
                        error_depth=depth, error_children=n_alive,
                    )
                break
            u = path[depth]
            if not 0 < cursor <= n_alive or frame.alive[cursor - 1] != u:
                return DfsResult(
                    "bad_cursor", best_q, counters,
                    error_depth=depth, error_children=n_alive,
                )
            stack.append(frame.child(cursor - 1, u, sides[u], wq[u], size, None))

    status = "complete"
    budget = math.inf if max_nodes is None else max_nodes
    while stack:
        frame = stack[-1]
        if frame.alive is None:
            if frame.position >= frame.limit:
                stack.pop()
                continue
            _expand(ops, frame, use_rub)
        alive, masses, counts = frame.alive, frame.masses, frame.counts
        lengths, n_items = frame.len, frame.n_items
        base_cost = lengths[0] + lengths[1] + one
        # What a child of view s reads of the frame's other view (1 - s).
        other_len = (lengths[1], lengths[0])
        other_count = (frame.count[1], frame.count[0])
        other_wsum = (frame.wsum[1], frame.wsum[0])
        other_items = (n_items[1], n_items[0])
        leaves = max_rule_size is not None and n_items[0] + n_items[1] + 1 >= max_rule_size
        own_nets, others = frame.own_nets, frame.others
        delta, start = frame.delta, frame.delta_start
        for k in range(frame.cursor, len(alive)):
            visited += 1
            if visited > budget:
                # Leave the over-budget node unvisited for the resume.
                frame.cursor = k
                visited -= 1
                status = "interrupted"
                break
            u = alive[k]
            s = sides[u]
            length = wq[u]
            cost = base_cost + length
            if use_rub and masses[k] + other_wsum[s] - cost <= best_q:
                pruned += 1
                continue
            evaluated = False
            if other_items[s]:
                if use_qub and (
                    counts[k] * other_len[s] + other_count[s] * (lengths[s] + length)
                    - cost <= best_q
                ):
                    skipped += 1
                else:
                    evaluations += 1
                    evaluated = True
                    if others is None:
                        _delta_pass(ops, frame, k)
                        others = frame.others
                        delta, start = frame.delta, frame.delta_start
                    towards_s = delta[s] + length * own_nets[k]
                    towards_o = others[k - start][s]
                    towards_left, towards_right = (
                        (towards_o, towards_s) if s else (towards_s, towards_o)
                    )
                    improved = None
                    gain = towards_right - cost - one
                    if gain > best_q:
                        best_q, improved = gain, "->"
                    gain = towards_left - cost - one
                    if gain > best_q:
                        best_q, improved = gain, "<-"
                    gain = towards_left + towards_right - cost
                    if gain > best_q:
                        best_q, improved = gain, "<->"
                    if improved is not None:
                        best, direction = frame.path + (u,), improved
            if leaves:
                continue
            frame.cursor = k + 1
            stack.append(
                frame.child(
                    k, u, s, length, size,
                    (towards_left, towards_right) if evaluated else None,
                )
            )
            break
        else:
            stack.pop()
        if status == "interrupted":
            break

    outcome = {
        "status": status,
        "best_q": best_q,
        "counters": (visited, pruned, evaluations, skipped),
        "best": best,
        "direction": direction,
    }
    if status == "interrupted":
        outcome["path"] = stack[-1].path
        outcome["cursors"] = tuple(frame.cursor for frame in stack)
        if use_rub:
            # Every unexplored node lies under a stacked frame's child
            # from its cursor on; bound each the way the traversal would.
            bound = None
            for frame in stack:
                base = frame.len[0] + frame.len[1] + one
                for k in range(frame.cursor, len(frame.alive)):
                    u = frame.alive[k]
                    rub = frame.masses[k] + frame.wsum[1 - sides[u]] - base - wq[u]
                    if bound is None or rub > bound:
                        bound = rub
            outcome["frontier_bound"] = bound
    return DfsResult(**outcome)


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
    def _operands(self, universe: list[_Item], quantized: _Quantized) -> _DfsOperands:
        """The per-search operands, shared by every shard."""
        from repro import native

        kernel = native.load_kernel() if self.backend == "native" else None
        return _DfsOperands(universe, quantized, self.cache, kernel)

    # ------------------------------------------------------------------
    # Anytime support: gap bounds, checkpoint capture
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
            # Threads: shards share the read-only operands, and a native
            # shard runs with the GIL released.
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
        operands: _DfsOperands | None = None,
        root_lo: int = 0,
        root_hi: int | None = None,
        resume: SearchCheckpoint | None = None,
    ) -> tuple[TranslationRule | None, float]:
        """Depth-first branch-and-bound over the universe.

        Shards of a parallel search pass their shared ``operands`` and
        their root range ``[root_lo, root_hi)``; a resumed search replays
        ``resume``'s stack instead of starting at the root.  The C kernel
        runs the traversal in one GIL-releasing call where it loads
        (``operands.kernel``), :func:`_dfs_numpy` elsewhere; both return
        the same outcome, decoded here.
        """
        if self.max_rule_size is not None and self.max_rule_size <= 0:
            return best_rule, best_q
        if operands is None:
            operands = self._operands(universe, quantized)
        root_range = (root_lo, len(universe) if root_hi is None else root_hi)
        if resume is not None:
            root_range = (resume.root_lo, resume.root_hi)
        options = {
            "one": int(quantized.one),
            "best_q": int(best_q),
            "counters": (
                stats.nodes_visited,
                stats.nodes_pruned_rub,
                stats.evaluations,
                stats.evaluations_skipped_qub,
            ),
            "root": root_range,
            "use_rub": self.use_rub,
            "use_qub": self.use_qub,
            "max_rule_size": self.max_rule_size,
            "max_nodes": self.max_nodes,
            "path": resume.path if resume is not None else (),
            "cursors": resume.cursors if resume is not None else None,
        }
        if operands.kernel is None:
            outcome = _dfs_numpy(operands, **options)
        else:
            outcome = operands.kernel.dfs(
                operands.rows,
                operands.pos,
                operands.neg,
                operands.sides,
                operands.wq,
                operands.tub_left,
                operands.tub_right,
                operands.full,
                **options,
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
