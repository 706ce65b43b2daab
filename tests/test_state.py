"""Unit tests for the incremental cover state (Section 5.1).

The central invariant: the incrementally maintained state (translated
views, U/E tables, encoded lengths, gains) must always agree with a
from-scratch recomputation via :func:`repro.core.translate.corrections`
and :class:`repro.core.encoding.CodeLengthModel`.  The state keeps its
cover as packed rows, so it is compared with the packed batch tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Side
from repro.core.bitset import BitMatrix
from repro.core.encoding import CodeLengthModel
from repro.core.rules import Direction, TranslationRule
from repro.core.state import CoverState
from repro.core.translate import corrections


def packed(matrix):
    """Packed rows of a transactions-by-items Boolean matrix."""
    return BitMatrix.from_bool_columns(matrix).words


def assert_matches_batch(state, batch):
    """Every packed cover row of ``state`` equals the packed batch table."""
    for side, suffix in ((Side.LEFT, "left"), (Side.RIGHT, "right")):
        cover = state.cover(side)
        for name in ("translated", "uncovered", "errors"):
            expected = packed(getattr(batch, f"{name}_{suffix}"))
            np.testing.assert_array_equal(getattr(cover, name), expected)


def random_rules(dataset, rng, count=8):
    rules = []
    while len(rules) < count:
        lhs_size = int(rng.integers(1, 3))
        rhs_size = int(rng.integers(1, 3))
        lhs = tuple(rng.choice(dataset.n_left, size=lhs_size, replace=False))
        rhs = tuple(rng.choice(dataset.n_right, size=rhs_size, replace=False))
        direction = [Direction.FORWARD, Direction.BACKWARD, Direction.BOTH][
            int(rng.integers(3))
        ]
        rule = TranslationRule(lhs, rhs, direction)
        if rule not in rules:
            rules.append(rule)
    return rules


class TestInitialState:
    def test_everything_uncovered(self, toy_dataset):
        state = CoverState(toy_dataset)
        left, right = state.cover(Side.LEFT), state.cover(Side.RIGHT)
        np.testing.assert_array_equal(left.uncovered, packed(toy_dataset.left))
        np.testing.assert_array_equal(right.uncovered, packed(toy_dataset.right))
        assert not left.errors.any()
        assert not right.errors.any()
        assert state.table_bits == 0.0

    def test_baseline_matches_codes(self, toy_dataset):
        state = CoverState(toy_dataset)
        codes = CodeLengthModel(toy_dataset)
        assert state.total_length() == pytest.approx(codes.baseline_length())
        assert state.compression_ratio() == pytest.approx(1.0)

    def test_correction_fraction_initial(self, toy_dataset):
        state = CoverState(toy_dataset)
        ones = toy_dataset.left.sum() + toy_dataset.right.sum()
        cells = toy_dataset.n_items * toy_dataset.n_transactions
        assert state.correction_fraction() == pytest.approx(ones / cells)


class TestConsistencyAfterRules:
    def test_matches_batch_corrections(self, planted_dataset, rng):
        state = CoverState(planted_dataset)
        rules = random_rules(planted_dataset, rng)
        for rule in rules:
            state.add_rule(rule)
        assert_matches_batch(state, corrections(planted_dataset, state.table))

    def test_lengths_match_recomputation(self, planted_dataset, rng):
        state = CoverState(planted_dataset)
        codes = state.codes
        for rule in random_rules(planted_dataset, rng):
            state.add_rule(rule)
        batch = corrections(planted_dataset, state.table)
        expected_left = codes.correction_length(Side.LEFT, batch.correction_left)
        expected_right = codes.correction_length(Side.RIGHT, batch.correction_right)
        assert state.correction_bits_left == pytest.approx(expected_left)
        assert state.correction_bits_right == pytest.approx(expected_right)
        assert state.table_bits == pytest.approx(codes.table_length(state.table))

    def test_u_and_e_disjoint_invariant(self, planted_dataset, rng):
        state = CoverState(planted_dataset)
        for rule in random_rules(planted_dataset, rng):
            state.add_rule(rule)
            for side in Side:
                cover = state.cover(side)
                assert not (cover.uncovered & cover.errors).any()

    def test_errors_never_removed(self, planted_dataset, rng):
        # Once an error is inserted into E it cannot be removed (Section 5.1).
        state = CoverState(planted_dataset)
        errors = state.cover(Side.RIGHT).errors
        previous_errors = errors.copy()
        for rule in random_rules(planted_dataset, rng):
            state.add_rule(rule)
            assert not (previous_errors & ~errors).any()
            previous_errors = errors.copy()

    def test_uncovered_monotone_shrinking(self, planted_dataset, rng):
        state = CoverState(planted_dataset)
        uncovered = state.cover(Side.RIGHT).uncovered
        previous = uncovered.copy()
        for rule in random_rules(planted_dataset, rng):
            state.add_rule(rule)
            assert not (uncovered & ~previous).any()
            previous = uncovered.copy()


class TestGain:
    def test_gain_equals_length_difference(self, planted_dataset, rng):
        """state.gain(r) must equal L(D,T) - L(D,T + r) exactly (Eq. 1)."""
        state = CoverState(planted_dataset)
        for rule in random_rules(planted_dataset, rng, count=12):
            before = state.total_length()
            predicted = state.gain(rule)
            state.add_rule(rule)
            actual = before - state.total_length()
            assert predicted == pytest.approx(actual, abs=1e-9)

    def test_bidirectional_delta_is_sum(self, planted_dataset, rng):
        state = CoverState(planted_dataset)
        lhs = (0, 1)
        rhs = (2,)
        forward = state.delta_forward(lhs, rhs)
        backward = state.delta_backward(lhs, rhs)
        both_rule = TranslationRule(lhs, rhs, Direction.BOTH)
        base = state.codes.itemset_length(Side.LEFT, lhs) + state.codes.itemset_length(
            Side.RIGHT, rhs
        )
        assert state.gain(both_rule) == pytest.approx(forward + backward - base - 1.0)

    def test_best_direction_consistent_with_gain(self, planted_dataset):
        state = CoverState(planted_dataset)
        rule, gain = state.best_direction((0,), (0,))
        assert gain == pytest.approx(state.gain(rule))
        for direction in Direction:
            other = TranslationRule((0,), (0,), direction)
            assert state.gain(other) <= gain + 1e-9

    def test_gain_of_nonoccurring_antecedent(self, toy_dataset):
        state = CoverState(toy_dataset)
        # {a, c} never co-occur on the left side of the toy dataset.
        a = toy_dataset.item_index(Side.LEFT, "a")
        c = toy_dataset.item_index(Side.LEFT, "c")
        rule = TranslationRule((a, c), (0,), Direction.FORWARD)
        # Delta is zero, so the gain is minus the rule length.
        assert state.gain(rule) == pytest.approx(-state.codes.rule_length(rule))


class TestSnapshot:
    def test_snapshot_keys(self, toy_dataset):
        state = CoverState(toy_dataset)
        snapshot = state.snapshot()
        for key in (
            "n_rules",
            "uncovered_left",
            "uncovered_right",
            "errors_left",
            "errors_right",
            "table_bits",
            "total_bits",
            "compression_ratio",
        ):
            assert key in snapshot

    def test_transaction_upper_bounds(self, toy_dataset):
        state = CoverState(toy_dataset)
        tub = state.transaction_upper_bounds(Side.RIGHT)
        assert tub.shape == (toy_dataset.n_transactions,)
        # Initially, tub is the encoded size of each full right transaction.
        weights = state.cover(Side.RIGHT).weights
        expected = toy_dataset.right @ weights
        np.testing.assert_allclose(tub, expected)

    def test_tub_decreases_after_rule(self, planted_dataset, rng):
        state = CoverState(planted_dataset)
        before = state.transaction_upper_bounds(Side.RIGHT).sum()
        for rule in random_rules(planted_dataset, rng, count=5):
            state.add_rule(rule)
        after = state.transaction_upper_bounds(Side.RIGHT).sum()
        assert after <= before + 1e-9
