"""Unit tests for cross-view association rule mining."""

from __future__ import annotations

import pytest

from repro.data.dataset import Side
from repro.core.rules import Direction
from repro.baselines.assoc import (
    AssociationRule,
    merge_bidirectional,
    mine_crossview_rules,
)
from repro.eval.metrics import confidence


class TestMining:
    def test_confidences_correct(self, planted_dataset):
        rules = mine_crossview_rules(planted_dataset, minsup=5, minconf=0.5)
        assert rules
        for rule in rules[:30]:
            forward = rule.direction is Direction.FORWARD
            expected = confidence(
                planted_dataset, rule.lhs, rule.rhs, forward=forward
            )
            assert rule.confidence == pytest.approx(expected)

    def test_minconf_respected(self, planted_dataset):
        rules = mine_crossview_rules(planted_dataset, minsup=5, minconf=0.8)
        assert all(rule.confidence >= 0.8 for rule in rules)

    def test_minsup_respected(self, planted_dataset):
        rules = mine_crossview_rules(planted_dataset, minsup=10, minconf=0.1)
        assert all(rule.support >= 10 for rule in rules)

    def test_lower_thresholds_give_more_rules(self, planted_dataset):
        strict = mine_crossview_rules(planted_dataset, minsup=10, minconf=0.9)
        loose = mine_crossview_rules(planted_dataset, minsup=3, minconf=0.3)
        assert len(loose) >= len(strict)

    def test_pattern_explosion_demonstrated(self, planted_dataset):
        # The explosion the paper complains about: loose thresholds yield
        # far more rules than a translation table would contain.
        rules = mine_crossview_rules(planted_dataset, minsup=2, minconf=0.2)
        assert len(rules) > 100

    def test_max_rules_guard(self, planted_dataset):
        # Either the rule cap or the upstream mining cap may fire first;
        # both abort the explosion.
        with pytest.raises(RuntimeError, match="explosion|max_candidates"):
            mine_crossview_rules(planted_dataset, minsup=2, minconf=0.1, max_rules=10)

    def test_minconf_validation(self, planted_dataset):
        with pytest.raises(ValueError, match="minconf"):
            mine_crossview_rules(planted_dataset, minsup=2, minconf=1.5)

    def test_to_translation_rule(self):
        rule = AssociationRule((0,), (1,), Direction.FORWARD, 5, 0.9)
        translation = rule.to_translation_rule()
        assert translation.lhs == (0,)
        assert translation.direction is Direction.FORWARD


class TestMerge:
    def test_merges_both_directions(self):
        rules = [
            AssociationRule((0,), (1,), Direction.FORWARD, 5, 0.8),
            AssociationRule((0,), (1,), Direction.BACKWARD, 5, 0.9),
        ]
        merged = merge_bidirectional(rules)
        assert len(merged) == 1
        assert merged[0].direction is Direction.BOTH
        assert merged[0].confidence == pytest.approx(0.9)

    def test_keeps_single_direction(self):
        rules = [AssociationRule((0,), (1,), Direction.FORWARD, 5, 0.8)]
        merged = merge_bidirectional(rules)
        assert merged == rules

    def test_different_itemsets_not_merged(self):
        rules = [
            AssociationRule((0,), (1,), Direction.FORWARD, 5, 0.8),
            AssociationRule((0,), (2,), Direction.BACKWARD, 5, 0.9),
        ]
        assert len(merge_bidirectional(rules)) == 2

    def test_sorted_by_confidence(self, planted_dataset):
        rules = mine_crossview_rules(planted_dataset, minsup=4, minconf=0.4)
        merged = merge_bidirectional(rules)
        confidences = [rule.confidence for rule in merged]
        assert confidences == sorted(confidences, reverse=True)
