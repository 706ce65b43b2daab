"""Unit tests for redundancy/coverage analysis and FIMI loading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Side, TwoViewDataset
from repro.data.io import load_fimi, load_fimi_pair
from repro.core.rules import Direction, TranslationRule
from repro.core.table import TranslationTable
from repro.core.translate import corrections
from repro.core.translator import TranslatorSelect
from repro.baselines.assoc import mine_crossview_rules
from repro.baselines.convert import rules_to_translation_table
from repro.eval.redundancy import (
    item_coverage,
    redundancy_report,
    redundancy_score,
    rule_overlap,
)


class TestRuleOverlap:
    def test_identical_rules_full_overlap(self, toy_dataset):
        rule = TranslationRule((0, 1), (3,), Direction.BOTH)
        assert rule_overlap(toy_dataset, rule, rule) == pytest.approx(1.0)

    def test_disjoint_rules_zero_overlap(self, toy_dataset):
        a_rule = TranslationRule((0,), (3,), Direction.FORWARD)  # fires on a-rows
        c_rule = TranslationRule((2,), (2,), Direction.FORWARD)  # fires on c-rows
        assert rule_overlap(toy_dataset, a_rule, c_rule) == 0.0

    def test_overlap_by_hand(self, toy_dataset):
        # a fires on rows {0,3,4}; d fires on rows {1,3}: overlap 1/4.
        a_rule = TranslationRule((0,), (3,), Direction.FORWARD)
        d_rule = TranslationRule((3,), (3,), Direction.FORWARD)
        assert rule_overlap(toy_dataset, a_rule, d_rule) == pytest.approx(0.25)

    def test_bidirectional_uses_both_sides(self, toy_dataset):
        # Backward direction makes the rule fire wherever rhs occurs too.
        rule = TranslationRule((2,), (3,), Direction.BOTH)
        forward_only = rule.with_direction(Direction.FORWARD)
        other = TranslationRule((0,), (1,), Direction.FORWARD)
        assert rule_overlap(toy_dataset, rule, other) >= rule_overlap(
            toy_dataset, forward_only, other
        )


class TestRedundancyScore:
    def test_single_rule_zero(self, toy_dataset):
        table = TranslationTable([TranslationRule((0,), (3,), Direction.BOTH)])
        assert redundancy_score(toy_dataset, table) == 0.0

    def test_translator_less_redundant_than_assoc_rules(self, planted_dataset):
        translator = TranslatorSelect(k=1, minsup=3).fit(planted_dataset)
        assoc = mine_crossview_rules(planted_dataset, minsup=3, minconf=0.6, max_size=4)
        assoc_table = rules_to_translation_table(assoc[:50])
        translator_score = redundancy_score(planted_dataset, translator.table)
        assoc_score = redundancy_score(planted_dataset, assoc_table)
        assert translator_score < assoc_score

    def test_max_pairs_cap(self, planted_dataset):
        assoc = mine_crossview_rules(planted_dataset, minsup=3, minconf=0.5, max_size=4)
        table = rules_to_translation_table(assoc[:40])
        capped = redundancy_score(planted_dataset, table, max_pairs=10)
        assert 0.0 <= capped <= 1.0


class TestItemCoverage:
    def test_empty_table(self, toy_dataset):
        coverage = item_coverage(toy_dataset, [])
        assert coverage["items_used_left"] == 0.0
        assert coverage["ones_covered_left"] == 0.0
        assert coverage["errors_introduced"] == 0

    def test_full_fit_covers_ones(self, planted_dataset):
        result = TranslatorSelect(k=1, minsup=2).fit(planted_dataset)
        coverage = item_coverage(planted_dataset, result.table)
        assert 0.0 < coverage["ones_covered_right"] <= 1.0
        batch = corrections(planted_dataset, result.table)
        expected_uncovered = int(batch.uncovered_right.sum())
        ones = int(planted_dataset.right.sum())
        assert coverage["ones_covered_right"] == pytest.approx(
            (ones - expected_uncovered) / ones
        )

    def test_report_rows(self, planted_dataset):
        result = TranslatorSelect(k=1, minsup=2).fit(planted_dataset)
        rows = redundancy_report(
            planted_dataset, {"translator": result.table, "empty": []}
        )
        assert len(rows) == 2
        assert rows[0]["method"] == "translator"
        assert rows[1]["n_rules"] == 0


class TestFimiLoading:
    def test_load_fimi_split(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("0 2 5\n1 4\n# comment\n0 1 5\n")
        data = load_fimi(path, n_left=3)
        assert data.n_transactions == 3
        assert data.n_left == 3
        assert data.n_right == 3  # items 3..5
        left, right = data.transaction(0)
        assert left == {0, 2}
        assert right == {2}  # item 5 -> right column 2

    def test_load_fimi_explicit_items(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("0 1\n")
        data = load_fimi(path, n_left=2, n_items=6)
        assert data.n_right == 4

    def test_load_fimi_bad_item(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("0 9\n")
        with pytest.raises(ValueError, match="exceeds"):
            load_fimi(path, n_left=2, n_items=5)

    def test_load_fimi_bad_n_left(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="n_left"):
            load_fimi(path, n_left=10, n_items=5)

    def test_load_fimi_pair(self, tmp_path):
        left_path = tmp_path / "left.dat"
        right_path = tmp_path / "right.dat"
        left_path.write_text("0 1\n2\n")
        right_path.write_text("1\n0 1\n")
        data = load_fimi_pair(left_path, right_path)
        assert data.n_transactions == 2
        assert data.n_left == 3
        assert data.n_right == 2
        assert bool(data.right[0, 1]) is True

    def test_load_fimi_pair_mismatch(self, tmp_path):
        left_path = tmp_path / "left.dat"
        right_path = tmp_path / "right.dat"
        left_path.write_text("0\n1\n")
        right_path.write_text("0\n")
        with pytest.raises(ValueError, match="different transaction counts"):
            load_fimi_pair(left_path, right_path)
