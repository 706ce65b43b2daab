"""Incremental cover state for translation-table construction.

All three TRANSLATOR algorithms grow a table one rule at a time, and the
compression gain of a candidate rule (paper, Eq. 1-2) must be evaluated
against the *current* table thousands of times per iteration.  This module
maintains the derived state — translated views, uncovered tables ``U``,
error tables ``E`` and all encoded-length totals — incrementally, and
computes gains as popcounts over packed transaction sets:

    Δ_{D|T}(X -> Y) = Σ_{t: X ⊆ t_L}  L(Y ∩ U_t^R | D_R)
                                     - L(Y \\ (t_R ∪ E_t^R) | D_R)

Key facts exploited (Section 5.1): rules are only ever added, so the
translated views grow monotonically, ``U`` shrinks monotonically and ``E``
grows monotonically; an error can never be removed again.

The translated view, ``U`` and ``E`` of each side (a :class:`SideCover`)
are ``uint64`` word rows, one per item, in the layout of the data columns
of the state's :class:`~repro.core.search.SearchCache`.  A directional
delta is AND/ANDNOT plus popcount over the consequent rows — an integer
count per consequent column, dotted with the code lengths in column
order — and adding a rule is OR/ANDNOT on them.  Other modules never read
the rows: they ask for transaction upper bounds, net signs
(:meth:`CoverState.sign_rows`, :meth:`CoverState.net_signs`) or cell
counts (:meth:`CoverState.snapshot`).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.bitset import BitMatrix, popcount, popcount_rows, unpack_rows
from repro.core.encoding import CodeLengthModel
from repro.core.rules import Direction, TranslationRule
from repro.core.search import SearchCache
from repro.core.table import TranslationTable

__all__ = ["CoverState", "SideCover"]


class SideCover:
    """Packed cover of one view: its data, translated, ``U`` and ``E`` rows.

    ``data`` is the view's :class:`BitMatrix`; ``translated``,
    ``uncovered`` and ``errors`` are ``(n_items, n_words)`` uint64 arrays
    in the same layout, and ``weights`` holds the view's finite per-item
    code lengths.  Treat all of them as read-only.
    """

    __slots__ = ("data", "translated", "uncovered", "errors", "weights")

    def __init__(self, data: BitMatrix, lengths: np.ndarray) -> None:
        self.data = data
        # With an empty table everything is uncovered and nothing is an error.
        self.uncovered = data.words.copy()
        self.translated = np.zeros_like(self.uncovered)
        self.errors = np.zeros_like(self.uncovered)
        # Finite per-item weights: infinite codes belong to never-occurring
        # items, which can never be covered nor erroneously introduced by
        # rules built from occurring itemsets.
        self.weights = np.where(np.isfinite(lengths), lengths, 0.0)

    def _new_cells(
        self, support: np.ndarray, columns: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cells that translating ``columns`` onto ``support`` covers or makes errors.

        A new error is a cell neither in the data nor already translated
        (already-translated absent cells are in ``E``); the support's zero
        padding drops the complement's padding bits.
        """
        covered = self.uncovered[columns] & support
        errors = support & ~(self.data.words[columns] | self.translated[columns])
        return covered, errors

    def copy(self) -> "SideCover":
        """A copy with its own cover rows; ``data`` and ``weights`` are shared."""
        clone = SideCover.__new__(SideCover)
        clone.data = self.data
        clone.weights = self.weights
        clone.translated = self.translated.copy()
        clone.uncovered = self.uncovered.copy()
        clone.errors = self.errors.copy()
        return clone

    def delta(self, support: np.ndarray, columns: list[int]) -> float:
        """Covered bits minus new error bits of translating ``columns`` onto ``support``."""
        weights = self.weights[columns]
        covered, errors = self._new_cells(support, columns)
        return float(popcount_rows(covered) @ weights) - float(
            popcount_rows(errors) @ weights
        )

    def apply(self, support: np.ndarray, columns: list[int]) -> float:
        """Translate ``columns`` onto ``support``; returns the change in correction bits."""
        weights = self.weights[columns]
        covered, errors = self._new_cells(support, columns)
        covered_bits = float(popcount_rows(covered) @ weights)
        error_bits = float(popcount_rows(errors) @ weights)
        self.translated[columns] |= support
        self.uncovered[columns] &= ~support
        self.errors[columns] |= errors
        return error_bits - covered_bits


class CoverState:
    """Mutable state of a translation table being constructed for a dataset.

    The state owns a :class:`TranslationTable`, the fit's
    :class:`SearchCache` and the packed cover derived from the table, one
    :class:`SideCover` per view (:meth:`cover`).  Rules are added through
    :meth:`add_rule`, which keeps everything consistent in
    ``O(|rule| * n / 64)`` word operations.

    Parameters
    ----------
    dataset:
        The two-view dataset being modelled.
    code_lengths:
        Optional pre-built :class:`CodeLengthModel` (shared across states
        to avoid recomputation).
    cache:
        Optional :class:`SearchCache` of ``dataset`` (the streaming
        buffer and the column store build one from columns they already
        hold); by default the state packs its own.  A cache built for
        another dataset object raises ``ValueError``.
    """

    def __init__(
        self,
        dataset: TwoViewDataset,
        code_lengths: CodeLengthModel | None = None,
        cache: SearchCache | None = None,
    ) -> None:
        if cache is None:
            cache = SearchCache(dataset)
        elif cache.dataset is not dataset:
            raise ValueError("cache was built for a different dataset")
        self.dataset = dataset
        self.cache = cache
        self.codes = code_lengths if code_lengths is not None else CodeLengthModel(dataset)
        self.table = TranslationTable()
        self._left = SideCover(cache.left_bits, self.codes.lengths_left)
        self._right = SideCover(cache.right_bits, self.codes.lengths_right)
        self.table_bits = 0.0
        self.correction_bits_left = float(
            np.dot(popcount_rows(self._left.uncovered), self._left.weights)
        )
        self.correction_bits_right = float(
            np.dot(popcount_rows(self._right.uncovered), self._right.weights)
        )
        self.baseline_bits = self.correction_bits_left + self.correction_bits_right

    def copy(self) -> "CoverState":
        """An independent state with the same table and cover.

        The packed cover rows, the table and the running length totals
        are duplicated, so adding rules to either state leaves the other
        alone; the dataset, the cache and the code lengths are shared.
        Adding the same rules to a copy performs the same updates in the
        same order as replaying the whole table on a fresh state, so
        every length comes out bit-identical.
        """
        clone = CoverState.__new__(CoverState)
        clone.dataset = self.dataset
        clone.cache = self.cache
        clone.codes = self.codes
        clone.table = TranslationTable(self.table)
        clone._left = self._left.copy()
        clone._right = self._right.copy()
        clone.table_bits = self.table_bits
        clone.correction_bits_left = self.correction_bits_left
        clone.correction_bits_right = self.correction_bits_right
        clone.baseline_bits = self.baseline_bits
        return clone

    def cover(self, side: Side) -> SideCover:
        """The packed cover of one view."""
        return self._left if side is Side.LEFT else self._right

    # ------------------------------------------------------------------
    # Length accounting
    # ------------------------------------------------------------------
    def total_length(self) -> float:
        """``L(D_{L<->R}, T) = L(T) + L(C_L|T) + L(C_R|T)`` in bits."""
        return self.table_bits + self.correction_bits_left + self.correction_bits_right

    def compression_ratio(self) -> float:
        """``L% = L(D, T) / L(D, ∅)`` (reported as a fraction, not percent)."""
        if self.baseline_bits == 0:
            return 1.0
        return self.total_length() / self.baseline_bits

    def correction_fraction(self) -> float:
        """``|C|% = |C| / ((|I_L| + |I_R|) * |D|)`` (Section 6, fraction)."""
        cells = sum(
            popcount(cover.uncovered) + popcount(cover.errors)
            for cover in (self._left, self._right)
        )
        denominator = self.dataset.n_items * self.dataset.n_transactions
        return cells / denominator if denominator else 0.0

    def snapshot(self) -> dict[str, float | int]:
        """Per-iteration statistics used by the Fig. 2 construction trace."""
        return {
            "n_rules": len(self.table),
            "uncovered_left": popcount(self._left.uncovered),
            "uncovered_right": popcount(self._right.uncovered),
            "errors_left": popcount(self._left.errors),
            "errors_right": popcount(self._right.errors),
            "table_bits": self.table_bits,
            "correction_bits_left": self.correction_bits_left,
            "correction_bits_right": self.correction_bits_right,
            "total_bits": self.total_length(),
            "compression_ratio": self.compression_ratio(),
        }

    # ------------------------------------------------------------------
    # Gain computation (Eq. 1-2)
    # ------------------------------------------------------------------
    def _delta_towards(
        self, target: Side, antecedent: tuple[int, ...], consequent: tuple[int, ...]
    ) -> float:
        """``Δ_{D|T}`` of one direction: covered bits minus new error bits."""
        support = self.cover(target.opposite).data.support(antecedent)
        return self.cover(target).delta(support, list(consequent))

    def delta_forward(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> float:
        """``Δ_{D|T}(X -> Y)``: data-length reduction of the forward part."""
        return self._delta_towards(Side.RIGHT, lhs, rhs)

    def delta_backward(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> float:
        """``Δ_{D|T}(X <- Y)``: data-length reduction of the backward part."""
        return self._delta_towards(Side.LEFT, rhs, lhs)

    def gain(self, rule: TranslationRule) -> float:
        """Total compression gain ``Δ_{D,T}(rule)`` (positive = better).

        Equals ``L(D, T) - L(D, T ∪ {rule})``: the data-length reduction of
        the applicable directions minus the encoded length of the rule.
        It is computed as exactly that difference of :meth:`total_length`
        values, with the terms :meth:`add_rule` adds in the order it adds
        them, so its sign always agrees with what adding the rule does to
        the total.  (Summing the deltas and the rule length first can round
        a zero gain to ``+4e-16`` while the total stays unchanged.)
        """
        left = self.correction_bits_left
        right = self.correction_bits_right
        if rule.direction.applies_forward:
            right -= self.delta_forward(rule.lhs, rule.rhs)
        if rule.direction.applies_backward:
            left -= self.delta_backward(rule.lhs, rule.rhs)
        after = self.table_bits + self.codes.rule_length(rule) + left + right
        return self.total_length() - after

    def best_direction(
        self,
        lhs: tuple[int, ...],
        rhs: tuple[int, ...],
        support_left: np.ndarray | None = None,
        support_right: np.ndarray | None = None,
    ) -> tuple[TranslationRule, float]:
        """Best of the three rule instantiations of an itemset pair.

        Computes the two directional deltas once and derives all three
        gains from them (the bidirectional delta is their sum, Section 5.1).
        ``support_left`` / ``support_right`` optionally pass the packed
        supports of ``lhs`` / ``rhs`` (``state.cache.left_bits.support``;
        the candidate-based algorithms reuse them across iterations).
        Pure: worker threads may call it concurrently.
        """
        if support_left is None:
            support_left = self._left.data.support(lhs)
        if support_right is None:
            support_right = self._right.data.support(rhs)
        forward = self._right.delta(support_left, list(rhs))
        backward = self._left.delta(support_right, list(lhs))
        base_bits = self.codes.itemset_length(Side.LEFT, lhs) + self.codes.itemset_length(
            Side.RIGHT, rhs
        )
        gains = {
            Direction.FORWARD: forward - base_bits - 2.0,
            Direction.BACKWARD: backward - base_bits - 2.0,
            Direction.BOTH: forward + backward - base_bits - 1.0,
        }
        direction = max(gains, key=lambda key: gains[key])
        return TranslationRule(lhs, rhs, direction), gains[direction]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _apply_towards(
        self, target: Side, antecedent: tuple[int, ...], consequent: tuple[int, ...]
    ) -> None:
        support = self.cover(target.opposite).data.support(antecedent)
        if not support.any():
            return
        change = self.cover(target).apply(support, list(consequent))
        if target is Side.RIGHT:
            self.correction_bits_right += change
        else:
            self.correction_bits_left += change

    def add_rule(self, rule: TranslationRule) -> None:
        """Add ``rule`` to the table and update all derived state."""
        self.table.add(rule)
        self.table_bits += self.codes.rule_length(rule)
        if rule.direction.applies_forward:
            self._apply_towards(Side.RIGHT, rule.lhs, rule.rhs)
        if rule.direction.applies_backward:
            self._apply_towards(Side.LEFT, rule.rhs, rule.lhs)

    # ------------------------------------------------------------------
    # Bounds support (Section 5.2)
    # ------------------------------------------------------------------
    def transaction_upper_bounds(self, side: Side) -> np.ndarray:
        """``tub`` vector: encoded size of each transaction's uncovered items.

        ``tub(t_side) = L(U_t^side | D_side)``; constant during the search
        for a single rule, recomputed between iterations.
        """
        cover = self.cover(side)
        rows = unpack_rows(cover.uncovered, self.dataset.n_transactions)
        # ``rows.T @ weights`` sums each transaction in the order a dense
        # (n x items) product does; the search's fixed-point step depends
        # on these floats.
        return rows.T @ cover.weights

    def sign_rows(self, side: Side) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(positive, negative)`` net-sign rows of one side.

        Translating an item onto a positive cell (an uncovered one) gains
        the item's code length; onto a negative cell (neither in the data
        nor already translated) it adds an error and loses it; every other
        cell is neutral.  The positive rows are the live ``U`` rows, so
        callers must not mutate them.
        """
        cover = self.cover(side)
        present = cover.data.words | cover.translated
        return cover.uncovered, self.cache.full_words & ~present

    def net_signs(self, side: Side) -> np.ndarray:
        """Dense ``(items, n)`` float64 net sign of every cell of one side.

        ``+1`` on the positive cells of :meth:`sign_rows`, ``-1`` on the
        negative ones, ``0`` elsewhere; scaled by the code lengths, a row
        sums to the delta of translating its item onto a set of rows.
        """
        positive, negative = self.sign_rows(side)
        n = self.dataset.n_transactions
        return unpack_rows(positive, n).astype(np.float64) - unpack_rows(negative, n)
