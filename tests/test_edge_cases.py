"""Edge-case and failure-injection tests across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Side, TwoViewDataset
from repro.core.encoding import CodeLengthModel
from repro.core.rules import Direction, TranslationRule
from repro.core.search import ExactRuleSearch, SearchCache
from repro.core.state import CoverState
from repro.core.translator import TranslatorExact, TranslatorGreedy, TranslatorSelect
from repro.baselines.krimp import Krimp
from repro.mining.twoview import two_view_candidates


class TestDegenerateDatasets:
    def test_single_transaction(self):
        data = TwoViewDataset([[1, 1]], [[1, 0]])
        result = TranslatorExact().fit(data)
        # One transaction: all occurring items have probability 1, so both
        # rule codes and correction codes are free — nothing to gain.
        assert result.compression_ratio == pytest.approx(1.0)

    def test_all_ones_dataset(self):
        data = TwoViewDataset(np.ones((5, 3), bool), np.ones((5, 2), bool))
        state = CoverState(data)
        # Items with full support have zero code length: baseline is 0.
        assert state.baseline_bits == 0.0
        assert state.compression_ratio() == pytest.approx(1.0)
        result = TranslatorExact().fit(data)
        assert result.n_rules == 0

    def test_all_zero_columns(self):
        left = np.zeros((6, 3), dtype=bool)
        left[:, 0] = True
        right = np.zeros((6, 2), dtype=bool)
        right[:3, 0] = True
        data = TwoViewDataset(left, right)
        result = TranslatorExact().fit(data)
        # Zero-support items must never enter rules.
        for rule in result.table:
            assert all(data.left[:, item].any() for item in rule.lhs)
            assert all(data.right[:, item].any() for item in rule.rhs)

    def test_single_item_views(self):
        rng = np.random.default_rng(0)
        column = (rng.random(40) < 0.5).reshape(-1, 1)
        data = TwoViewDataset(column, column.copy())
        result = TranslatorExact().fit(data)
        # Perfect correlation between two single items: one rule suffices.
        assert result.n_rules == 1
        assert result.table[0].direction is Direction.BOTH
        assert result.compression_ratio < 1.0

    def test_perfectly_anticorrelated_views(self):
        rng = np.random.default_rng(1)
        column = (rng.random(40) < 0.5).reshape(-1, 1)
        data = TwoViewDataset(column, ~column)
        result = TranslatorExact().fit(data)
        # X -> Y never co-occurs; the search prunes non-co-occurring pairs,
        # so no rule can be found even though the views are dependent.
        assert result.n_rules == 0

    def test_duplicate_transactions(self):
        data = TwoViewDataset.from_transactions(
            [({"a"}, {"x"})] * 20 + [({"b"}, {"y"})] * 20
        )
        result = TranslatorExact().fit(data)
        assert result.compression_ratio < 0.6
        rendered = result.table.render(data)
        assert "a" in rendered and "x" in rendered


class TestSelectEdgeCases:
    def test_empty_candidate_list(self, toy_dataset):
        result = TranslatorSelect(candidates=[]).fit(toy_dataset)
        assert result.n_rules == 0
        assert result.compression_ratio == pytest.approx(1.0)

    def test_minsup_above_all_supports(self, toy_dataset):
        result = TranslatorSelect(minsup=100).fit(toy_dataset)
        assert result.n_rules == 0

    def test_candidate_truncation_keeps_top_support(self, planted_dataset):
        translator = TranslatorSelect(minsup=2, max_candidates=10)
        candidates = translator._get_candidates(SearchCache(planted_dataset))
        assert len(candidates) == 10
        full = two_view_candidates(planted_dataset, 2, max_candidates=200_000)
        top_supports = [candidate.support for candidate in full[:10]]
        assert [candidate.support for candidate in candidates] == top_supports

    def test_max_iterations_zero(self, planted_dataset):
        result = TranslatorSelect(minsup=2, max_iterations=0).fit(planted_dataset)
        assert result.n_rules == 0

    def test_k_larger_than_candidates(self, toy_dataset):
        result = TranslatorSelect(k=1000, minsup=1).fit(toy_dataset)
        # Must terminate and produce a valid model.
        assert result.compression_ratio <= 1.0


class TestGreedyEdgeCases:
    def test_greedy_deterministic(self, planted_dataset):
        first = TranslatorGreedy(minsup=2).fit(planted_dataset)
        second = TranslatorGreedy(minsup=2).fit(planted_dataset)
        assert list(first.table) == list(second.table)

    def test_greedy_empty_candidates(self, toy_dataset):
        result = TranslatorGreedy(candidates=[]).fit(toy_dataset)
        assert result.n_rules == 0


class TestSearchEdgeCases:
    def test_search_on_all_zero_right(self):
        left = np.ones((5, 2), dtype=bool)
        right = np.zeros((5, 2), dtype=bool)
        data = TwoViewDataset(left, right)
        state = CoverState(data)
        rule, gain, stats = ExactRuleSearch(state).find_best_rule()
        assert rule is None
        assert gain == 0.0

    def test_search_max_rule_size_one_impossible(self, planted_dataset):
        # A rule needs at least 2 items (one per side); max_rule_size=1
        # therefore yields nothing.
        state = CoverState(planted_dataset)
        rule, gain, __ = ExactRuleSearch(state, max_rule_size=1).find_best_rule()
        assert rule is None

    def test_search_after_saturation(self, toy_dataset):
        state = CoverState(toy_dataset)
        added = 0
        while added < 20:
            rule, gain, __ = ExactRuleSearch(state).find_best_rule()
            if rule is None:
                break
            state.add_rule(rule)
            added += 1
        # Convergence: the final search finds nothing with positive gain.
        rule, gain, __ = ExactRuleSearch(state).find_best_rule()
        assert rule is None and gain == 0.0


class TestEncodingEdgeCases:
    def test_deterministic_across_instances(self, planted_dataset):
        first = CodeLengthModel(planted_dataset)
        second = CodeLengthModel(planted_dataset)
        np.testing.assert_array_equal(first.lengths_left, second.lengths_left)

    def test_duplicate_items_in_itemset_length(self, toy_dataset):
        codes = CodeLengthModel(toy_dataset)
        # itemset_length sums what it is given; rule normalisation upstream
        # guarantees uniqueness, asserted here via TranslationRule.
        rule = TranslationRule((0, 0, 1), (2,), Direction.BOTH)
        assert rule.lhs == (0, 1)


class TestKrimpEdgeCases:
    def test_adaptive_minsup_reported(self):
        rng = np.random.default_rng(2)
        dense = rng.random((60, 14)) < 0.7
        result = Krimp(minsup=1, max_candidates=200).fit(dense)
        assert result.effective_minsup >= 1
        assert result.n_candidates <= 200

    def test_empty_matrix(self):
        result = Krimp(minsup=1).fit(np.zeros((4, 3), dtype=bool))
        assert result.n_accepted == 0
        assert result.baseline_bits == 0.0
