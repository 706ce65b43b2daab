"""Append-only two-view row buffer with incremental packed columns.

The streaming subsystem's data structure: a window over a two-view row
stream that keeps **both** representations the rest of the library
wants — the Boolean view matrices (for :class:`~repro.core.state.CoverState`
and dataset construction) and the packed uint64 per-item bitset columns
of :mod:`repro.core.bitset` (for the search kernel and support
counting) — and maintains them *incrementally*:

* **Append** packs only the new word-tail: a chunk of ``k`` rows costs
  ``O(n_items * k / 64)`` word writes (:func:`repro.core.bitset.pack_rows_at`),
  never a repack of the live window.
* **Evict** advances a logical start offset and zeroes the evicted bit
  range (``O(evicted words)``); fully dead leading words are dropped by
  an amortised word-rotation compaction, so a sliding window never
  degenerates into an unbounded buffer.
* **Window extraction** (:meth:`bit_matrix`) is a word slice when the
  window start is word-aligned and one :func:`~repro.core.bitset.shift_rows`
  pass otherwise — ``O(live words)``, bit-identical to packing the
  window from scratch (enforced by ``tests/test_stream.py``).
* **Tracked itemsets** (:meth:`track` / :meth:`track_table`) keep packed
  support masks of registered rule antecedents/consequents aligned to
  the buffer, so the support counts of every published rule update in
  ``O(new words)`` per append instead of ``O(window)``.

A windowed refit takes :meth:`refit_context`, which hands the
incremental packed columns to :class:`repro.core.search.SearchCache` —
the refit then skips the full repack and, because incremental packing
is bit-identical, fits exactly the model a batch fit on the same window
would.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs as _obs
from repro.core.bitset import (
    WORD_BITS,
    BitMatrix,
    and_reduce_many_rows,
    and_reduce_rows,
    n_words_for,
    pack_rows_at,
    popcount,
    popcount_rows,
    shift_rows,
)
from repro.core.search import SearchCache
from repro.data.dataset import Side, TwoViewDataset

__all__ = ["StreamBuffer", "TrackedItemset"]


def _low_mask(bits: int) -> np.uint64:
    """Word mask with bit positions ``0 .. bits-1`` set."""
    return np.uint64((1 << bits) - 1)


class _SideStore:
    """Dual Boolean/packed storage of one view's live rows."""

    __slots__ = ("n_items", "bools", "words", "counts")

    def __init__(self, n_items: int, cap_rows: int) -> None:
        self.n_items = n_items
        self.bools = np.zeros((cap_rows, n_items), dtype=bool)
        self.words = np.zeros((n_items, n_words_for(cap_rows)), dtype=np.uint64)
        self.counts = np.zeros(n_items, dtype=np.int64)


class TrackedItemset:
    """Incrementally maintained support of one itemset over the window.

    Created through :meth:`StreamBuffer.track`; holds the packed support
    mask (AND over the itemset's item columns, aligned to the buffer's
    bit space) and the live support count.  The buffer updates both on
    every append/evict — reads are O(1).
    """

    __slots__ = ("side", "items", "words", "count")

    def __init__(self, side: Side, items: tuple[int, ...]) -> None:
        self.side = side
        self.items = items
        self.words: np.ndarray | None = None  # assigned by the buffer
        self.count = 0


class StreamBuffer:
    """Sliding/tumbling window over a two-view row stream.

    Args:
        n_left, n_right: Vocabulary widths of the two views; every
            appended row chunk must match them.
        left_names, right_names: Optional item names forwarded to
            :meth:`window_dataset`.
        capacity: Initial row capacity hint (the buffer grows as
            needed); useful to pre-size for a known window.

    Tracked supports update through numpy's grouped AND-reduce: the
    regions are a few words per append, too small for a C kernel to pay
    off (a fused one ran at 0.94x of numpy on a 32k-row window).

    Example::

        >>> import numpy as np
        >>> from repro.stream import StreamBuffer
        >>> buffer = StreamBuffer(n_left=2, n_right=2)
        >>> buffer.append(np.eye(2, dtype=bool), np.eye(2, dtype=bool))
        >>> buffer.evict(1)
        >>> len(buffer)
        1
    """

    def __init__(
        self,
        n_left: int,
        n_right: int,
        left_names: Sequence[str] | None = None,
        right_names: Sequence[str] | None = None,
        capacity: int = 256,
    ) -> None:
        if n_left < 0 or n_right < 0:
            raise ValueError("vocabulary sizes must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        cap_rows = n_words_for(capacity) * WORD_BITS
        self._left = _SideStore(n_left, cap_rows)
        self._right = _SideStore(n_right, cap_rows)
        self.left_names = list(left_names) if left_names is not None else None
        self.right_names = list(right_names) if right_names is not None else None
        self._cap_rows = cap_rows
        self._start = 0  # bit/row offset of the first live transaction
        self._end = 0  # one past the last live transaction
        self._trackers: list[TrackedItemset] = []
        #: Lifetime counters (windows come and go; these only grow).
        self.appended_total = 0
        self.evicted_total = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._end - self._start

    def restore_counters(self, appended_total: int, evicted_total: int) -> None:
        """Reset the lifetime counters to checkpointed values.

        Only meaningful when refilling a fresh buffer from a
        :class:`~repro.resilience.supervisor.WindowCheckpoint` — the
        restoring ``append`` bumped ``appended_total`` as if the window
        were new rows, so the snapshot's lifetime counters are put back
        for continuity of observability.
        """
        if appended_total < 0 or evicted_total < 0:
            raise ValueError("lifetime counters must be non-negative")
        self.appended_total = appended_total
        self.evicted_total = evicted_total

    @property
    def n_left(self) -> int:
        """Left vocabulary width."""
        return self._left.n_items

    @property
    def n_right(self) -> int:
        """Right vocabulary width."""
        return self._right.n_items

    def _store(self, side: Side) -> _SideStore:
        return self._left if side is Side.LEFT else self._right

    def item_counts(self, side: Side) -> np.ndarray:
        """Per-item occurrence counts over the live window (a copy)."""
        return self._store(side).counts.copy()

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def _rebase(self, new_cap_rows: int | None = None) -> None:
        """Drop dead leading words (and optionally grow), keeping the
        start offset's sub-word position so no bits ever shift."""
        dead_w = self._start // WORD_BITS
        used_w = n_words_for(self._end)
        live_w = used_w - dead_w
        if new_cap_rows is None and dead_w == 0:
            return
        cap_rows = self._cap_rows if new_cap_rows is None else new_cap_rows
        cap_w = n_words_for(cap_rows)
        row_shift = dead_w * WORD_BITS
        for store in (self._left, self._right):
            words = np.zeros((store.n_items, cap_w), dtype=np.uint64)
            words[:, :live_w] = store.words[:, dead_w:used_w]
            store.words = words
            bools = np.zeros((cap_rows, store.n_items), dtype=bool)
            bools[: self._end - row_shift] = store.bools[row_shift : self._end]
            store.bools = bools
        for tracker in self._trackers:
            words = np.zeros(cap_w, dtype=np.uint64)
            words[:live_w] = tracker.words[dead_w:used_w]
            tracker.words = words
        self._cap_rows = cap_rows
        self._start -= row_shift
        self._end -= row_shift

    def _ensure_capacity(self, new_rows: int) -> None:
        if self._end + new_rows <= self._cap_rows:
            return
        live = len(self)
        needed = live + (self._start % WORD_BITS) + new_rows
        cap_rows = self._cap_rows
        while cap_rows < 2 * needed:
            cap_rows *= 2
        self._rebase(cap_rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, left_rows: np.ndarray, right_rows: np.ndarray) -> None:
        """Append a chunk of transactions to the tail of the window.

        ``left_rows`` / ``right_rows`` are ``(k, n_left)`` /
        ``(k, n_right)`` Boolean matrices describing the same ``k`` new
        transactions.  Only the tail words of the packed columns are
        touched (``O(n_items * k / 64)``).
        """
        left_rows = np.ascontiguousarray(left_rows, dtype=bool)
        right_rows = np.ascontiguousarray(right_rows, dtype=bool)
        if left_rows.ndim != 2 or right_rows.ndim != 2:
            raise ValueError("row chunks must be 2-dimensional")
        if left_rows.shape[0] != right_rows.shape[0]:
            raise ValueError(
                "left and right chunks must have the same number of rows: "
                f"{left_rows.shape[0]} != {right_rows.shape[0]}"
            )
        if left_rows.shape[1] != self.n_left or right_rows.shape[1] != self.n_right:
            raise ValueError(
                f"chunk widths ({left_rows.shape[1]}, {right_rows.shape[1]}) do "
                f"not match the buffer ({self.n_left}, {self.n_right})"
            )
        k = left_rows.shape[0]
        if k == 0:
            return
        self._ensure_capacity(k)
        end = self._end
        offset = end % WORD_BITS
        w0 = end // WORD_BITS
        w_hi = n_words_for(end + k)
        for store, rows in ((self._left, left_rows), (self._right, right_rows)):
            store.bools[end : end + k] = rows
            packed = pack_rows_at(rows, offset)
            # Bits at and above ``offset`` of the tail word are still
            # zero (buffer invariant), so OR splices the chunk exactly;
            # and because ``packed`` holds only the new bits, its
            # popcounts are exactly the per-item count increments.
            store.words[:, w0] |= packed[:, 0]
            if packed.shape[1] > 1:
                store.words[:, w0 + 1 : w0 + packed.shape[1]] = packed[:, 1:]
            store.counts += popcount_rows(packed)
        offset_mask = _low_mask(offset) if offset else None
        for side in (Side.LEFT, Side.RIGHT):
            side_trackers = [t for t in self._trackers if t.side is side]
            if not side_trackers:
                continue
            store = self._store(side)
            # The AND over each itemset's freshly written tail words
            # recomputes exactly the bits of this word range; positions
            # below ``offset`` reproduce their previous value, so the
            # count increment is the region's popcount minus theirs.
            # All of a side's itemsets go through ONE grouped AND-reduce —
            # the regions are only a few words each, so the win is
            # amortising the per-call overhead across trackers.
            index: list[int] = []
            offsets = [0]
            for tracker in side_trackers:
                index.extend(tracker.items)
                offsets.append(len(index))
            regions, counts = and_reduce_many_rows(
                store.words[index, w0:w_hi],
                np.asarray(offsets, dtype=np.int64),
            )
            for tracker, region, region_count in zip(
                side_trackers, regions, counts
            ):
                old_partial = (
                    int(tracker.words[w0] & offset_mask).bit_count()
                    if offset_mask is not None
                    else 0
                )
                tracker.words[w0:w_hi] = region
                tracker.count += int(region_count) - old_partial
        self._end = end + k
        self.appended_total += k
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.stream_append(k, len(self))

    def evict(self, k: int) -> None:
        """Drop the ``k`` oldest live transactions from the window.

        Zeroes the evicted bit range (``O(evicted words)``) and advances
        the window start; dead leading words are dropped by an amortised
        rotation once they outnumber the live ones, so memory stays
        proportional to the window.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k > len(self):
            raise ValueError(f"cannot evict {k} of {len(self)} live rows")
        if k == 0:
            return
        lo, hi = self._start, self._start + k
        w_lo = lo // WORD_BITS
        tail = hi % WORD_BITS
        tail_mask = _low_mask(tail) if tail else None
        for store in (self._left, self._right):
            store.counts -= self._range_counts(store.words, lo, hi)
            self._clear_prefix(store.words, lo, hi)
        for tracker in self._trackers:
            # Inlined single-row variant of _range_counts/_clear_prefix.
            dead = tracker.words[w_lo : n_words_for(hi)]
            if tail_mask is None:
                tracker.count -= popcount(dead)
                dead[:] = 0
            else:
                tracker.count -= popcount(dead[:-1]) + int(
                    dead[-1] & tail_mask
                ).bit_count()
                dead[:-1] = 0
                dead[-1] &= ~tail_mask
        self._start = hi
        self.evicted_total += k
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.stream_evict(k, len(self))
        dead_w = self._start // WORD_BITS
        live_w = n_words_for(self._end) - dead_w
        if dead_w >= 8 and dead_w >= live_w:
            self._rebase()

    @staticmethod
    def _range_counts(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Per-row popcounts of bit range ``[lo, hi)``; bits below ``lo``
        must already be zero (the evicted-prefix invariant)."""
        tail = hi % WORD_BITS
        view = words[:, lo // WORD_BITS : n_words_for(hi)]
        if tail:
            view = view.copy()
            view[:, -1] &= _low_mask(tail)
        return popcount_rows(view)

    @staticmethod
    def _clear_prefix(words: np.ndarray, lo: int, hi: int) -> None:
        """Zero bit range ``[lo, hi)``; bits below ``lo`` are already zero."""
        words[:, lo // WORD_BITS : hi // WORD_BITS] = 0
        tail = hi % WORD_BITS
        if tail:
            words[:, hi // WORD_BITS] &= ~_low_mask(tail)

    # ------------------------------------------------------------------
    # Window extraction
    # ------------------------------------------------------------------
    def bit_matrix(self, side: Side) -> BitMatrix:
        """Packed item columns of the live window, bit-identical to
        ``BitMatrix.from_bool_columns(window)``.

        A word slice when the window start is word-aligned; one
        :func:`~repro.core.bitset.shift_rows` pass (the window rotation)
        otherwise.  Either way ``O(live words)`` — never a repack.
        """
        store = self._store(side)
        n_live = len(self)
        out_w = n_words_for(n_live)
        w_lo = self._start // WORD_BITS
        shift = self._start % WORD_BITS
        if shift == 0:
            return BitMatrix(store.words[:, w_lo : w_lo + out_w].copy(), n_live)
        source = np.zeros((store.n_items, out_w + 1), dtype=np.uint64)
        avail = min(out_w + 1, store.words.shape[1] - w_lo)
        source[:, :avail] = store.words[:, w_lo : w_lo + avail]
        return BitMatrix(shift_rows(source, shift)[:, :out_w], n_live)

    def window_dataset(self, name: str = "stream-window") -> TwoViewDataset:
        """The live window as a :class:`~repro.data.dataset.TwoViewDataset`."""
        return TwoViewDataset(
            self._left.bools[self._start : self._end],
            self._right.bools[self._start : self._end],
            self.left_names,
            self.right_names,
            name=name,
        )

    def refit_context(
        self, name: str = "stream-window"
    ) -> tuple[TwoViewDataset, SearchCache]:
        """Window dataset plus a :class:`SearchCache` built from the
        incrementally maintained packed columns.

        Hand both to any translator's ``fit(dataset, cache=cache)`` (see
        :func:`repro.stream.maintenance.fit_window`) so the refit skips
        the full repack; the fitted model is bit-identical to a batch fit
        on the same window because the injected columns are.
        """
        dataset = self.window_dataset(name)
        cache = SearchCache(
            dataset,
            left_bits=self.bit_matrix(Side.LEFT),
            right_bits=self.bit_matrix(Side.RIGHT),
        )
        return dataset, cache

    # ------------------------------------------------------------------
    # Tracked itemsets
    # ------------------------------------------------------------------
    def track(self, side: Side, items: Sequence[int]) -> TrackedItemset:
        """Register an itemset for incremental support maintenance.

        Returns a :class:`TrackedItemset` whose ``count`` the buffer
        keeps equal to the itemset's support in the live window, at
        ``O(new words)`` cost per append and ``O(evicted words)`` per
        evict.
        """
        items = tuple(int(item) for item in items)
        store = self._store(side)
        if not items:
            raise ValueError("cannot track an empty itemset")
        if any(not 0 <= item < store.n_items for item in items):
            raise ValueError(f"itemset {items} outside the {side.value} vocabulary")
        tracker = TrackedItemset(side, items)
        # Bits outside [start, end) are zero in every item column, so the
        # full-width AND is already correctly windowed.
        tracker.words, tracker.count = and_reduce_rows(store.words[list(items)])
        self._trackers.append(tracker)
        return tracker

    def track_table(self, table) -> list[tuple[TrackedItemset, TrackedItemset]]:
        """Track every rule of a translation table.

        Returns ``(lhs, rhs)`` tracker pairs in rule order — the live
        antecedent/consequent supports of each published rule, kept
        fresh by the incremental append/evict path.
        """
        return [
            (self.track(Side.LEFT, rule.lhs), self.track(Side.RIGHT, rule.rhs))
            for rule in table
        ]

    def untrack_all(self) -> None:
        """Drop every registered tracker (e.g. after a model swap)."""
        self._trackers.clear()

    def __repr__(self) -> str:
        return (
            f"StreamBuffer(n_left={self.n_left}, n_right={self.n_right}, "
            f"live={len(self)}, appended={self.appended_total}, "
            f"evicted={self.evicted_total}, trackers={len(self._trackers)})"
        )
