"""Unit tests for post-hoc translation-table pruning."""

from __future__ import annotations

import pytest

from repro.core.encoding import CodeLengthModel
from repro.core.pruning import prune_table, removal_lengths
from repro.core.rules import Direction, TranslationRule
from repro.core.state import CoverState
from repro.core.table import TranslationTable
from repro.core.translator import TranslatorGreedy, TranslatorSelect


def total_bits(dataset, rules):
    state = CoverState(dataset)
    for rule in rules:
        state.add_rule(rule)
    return state.total_length()


class TestPruneTable:
    def test_empty_table(self, toy_dataset):
        result = prune_table(toy_dataset, TranslationTable())
        assert len(result.table) == 0
        assert result.removed == []
        assert result.improvement_bits == 0.0

    def test_never_increases_length(self, planted_dataset):
        fitted = TranslatorGreedy(minsup=2).fit(planted_dataset)
        result = prune_table(planted_dataset, fitted.table)
        assert result.bits_after <= result.bits_before + 1e-9
        assert result.bits_after == pytest.approx(
            total_bits(planted_dataset, list(result.table))
        )

    def test_removes_useless_rule(self, planted_dataset):
        # A rule with a never-occurring antecedent only costs bits.
        fitted = TranslatorSelect(k=1, minsup=2).fit(planted_dataset)
        junk = TranslationRule(
            tuple(range(min(6, planted_dataset.n_left))),
            (0,),
            Direction.FORWARD,
        )
        rules = list(fitted.table)
        if junk in rules:
            rules.remove(junk)
        padded = TranslationTable(rules + [junk])
        result = prune_table(planted_dataset, padded)
        assert junk in result.removed

    def test_keeps_good_rules(self, planted_dataset):
        fitted = TranslatorSelect(k=1, minsup=2).fit(planted_dataset)
        result = prune_table(planted_dataset, fitted.table)
        # MDL-selected rules each had positive gain at addition time;
        # most should survive pruning (later additions rarely subsume
        # earlier ones completely on planted data).
        assert len(result.table) >= max(1, fitted.n_rules // 2)

    def test_accounting_consistent(self, planted_dataset):
        fitted = TranslatorGreedy(minsup=2).fit(planted_dataset)
        codes = CodeLengthModel(planted_dataset)
        result = prune_table(planted_dataset, fitted.table, codes)
        assert len(result.table) + len(result.removed) == fitted.n_rules
        assert result.improvement_bits >= 0.0


def replay_prune(dataset, rules, codes):
    """The replay reference: re-cover every candidate table from scratch."""
    def length(candidate):
        state = CoverState(dataset, codes)
        for rule in candidate:
            state.add_rule(rule)
        return state.total_length()

    rules = list(rules)
    current = before = length(rules)
    removed = []
    while rules:
        best_index, best_length = -1, current
        for index in range(len(rules)):
            candidate_length = length(rules[:index] + rules[index + 1 :])
            if candidate_length < best_length - 1e-12:
                best_index, best_length = index, candidate_length
        if best_index < 0:
            break
        removed.append(rules.pop(best_index))
        current = best_length
    return rules, removed, before, current


class TestRemovalLengths:
    def test_lengths_equal_the_replay(self, planted_dataset, monkeypatch):
        # Each removal is scored from a copy of the prefix state, which
        # makes the same additions in the same order as a replay of the
        # shortened table: every length is bit-identical to the replay's,
        # at m(m - 1)/2 + m additions instead of m^2.
        rules = list(TranslatorGreedy(minsup=2).fit(planted_dataset).table)
        codes = CodeLengthModel(planted_dataset)
        replayed = [
            total_bits(planted_dataset, rules[:k] + rules[k + 1 :])
            for k in range(len(rules))
        ]
        calls = []
        add_rule = CoverState.add_rule
        monkeypatch.setattr(
            CoverState, "add_rule",
            lambda state, rule: (calls.append(rule), add_rule(state, rule))[1],
        )
        full, without = removal_lengths(planted_dataset, rules, codes)
        m = len(rules)
        assert m > 5
        assert len(calls) == m * (m - 1) // 2 + m
        assert repr(full) == repr(total_bits(planted_dataset, rules))
        assert [repr(length) for length in without] == [repr(x) for x in replayed]

    def test_pruning_matches_the_replay(self, planted_dataset):
        codes = CodeLengthModel(planted_dataset)
        for fitted in (
            TranslatorGreedy(minsup=2).fit(planted_dataset),
            TranslatorSelect(k=1, minsup=2).fit(planted_dataset),
        ):
            result = prune_table(planted_dataset, fitted.table, codes)
            kept, removed, before, after = replay_prune(
                planted_dataset, fitted.table, codes
            )
            assert list(result.table) == kept
            assert result.removed == removed
            assert (repr(result.bits_before), repr(result.bits_after)) == (
                repr(before), repr(after),
            )

    def test_copy_is_independent(self, planted_dataset):
        rules = list(TranslatorGreedy(minsup=2).fit(planted_dataset).table)
        state = CoverState(planted_dataset)
        state.add_rule(rules[0])
        clone = state.copy()
        assert clone.cache is state.cache and clone.codes is state.codes
        clone.add_rule(rules[1])
        assert len(state.table) == 1 and len(clone.table) == 2
        assert state.total_length() == total_bits(planted_dataset, rules[:1])
        assert clone.total_length() == total_bits(planted_dataset, rules[:2])
        assert state.snapshot() != clone.snapshot()
