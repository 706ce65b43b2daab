"""Redundancy and coverage analysis of rule sets.

The paper's central qualitative claim is that translation tables are
*non-redundant* while the baselines' rule sets are not ("due to
redundancy in the pattern space, the top-k rules are usually very similar
and therefore not of interest to a data analyst").  This module makes the
claim measurable:

* :func:`rule_overlap` — Jaccard similarity of two rules' support sets;
* :func:`redundancy_score` — mean pairwise overlap within a rule set
  (0 = perfectly non-redundant, 1 = all rules fire on the same rows);
* :func:`item_coverage` — per view: which items appear in rules, which
  occurrences get covered, which are left to the correction table.

Used by the Table 3 / Fig. 3 discussion and available to downstream
users as a model-inspection tool.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.rules import TranslationRule
from repro.core.state import CoverState
from repro.core.table import TranslationTable

__all__ = ["rule_overlap", "redundancy_score", "item_coverage", "redundancy_report"]


def _firing_mask(dataset: TwoViewDataset, rule: TranslationRule) -> np.ndarray:
    """Transactions in which the rule fires in at least one direction."""
    mask = np.zeros(dataset.n_transactions, dtype=bool)
    if rule.direction.applies_forward:
        mask |= dataset.support_mask(Side.LEFT, rule.lhs)
    if rule.direction.applies_backward:
        mask |= dataset.support_mask(Side.RIGHT, rule.rhs)
    return mask


def rule_overlap(
    dataset: TwoViewDataset, first: TranslationRule, second: TranslationRule
) -> float:
    """Jaccard similarity of the two rules' firing sets."""
    first_mask = _firing_mask(dataset, first)
    second_mask = _firing_mask(dataset, second)
    union = int((first_mask | second_mask).sum())
    if union == 0:
        return 0.0
    return int((first_mask & second_mask).sum()) / union


def redundancy_score(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
    max_pairs: int = 5_000,
) -> float:
    """Mean pairwise firing-set overlap of a rule set.

    For very large rule sets only the first ``max_pairs`` pairs (in rule
    order) are averaged, which keeps the measure usable on exploded
    baseline outputs.
    """
    rules = list(table)
    if len(rules) < 2:
        return 0.0
    masks = [_firing_mask(dataset, rule) for rule in rules]
    total = 0.0
    pairs = 0
    for first in range(len(rules)):
        for second in range(first + 1, len(rules)):
            union = int((masks[first] | masks[second]).sum())
            if union:
                total += int((masks[first] & masks[second]).sum()) / union
            pairs += 1
            if pairs >= max_pairs:
                return total / pairs
    return total / pairs if pairs else 0.0


def item_coverage(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
) -> dict[str, object]:
    """Per-view coverage statistics of a rule set.

    Returns, for each side, the fraction of items used in any rule and the
    fraction of data ones actually covered by the translation (i.e. not
    left to the ``U`` table).
    """
    rules = list(table)
    state = CoverState(dataset)
    for rule in rules:
        state.add_rule(rule)
    used_left = {item for rule in rules for item in rule.lhs}
    used_right = {item for rule in rules for item in rule.rhs}
    cells = state.snapshot()
    ones_left = int(dataset.left.sum())
    ones_right = int(dataset.right.sum())
    covered_left = ones_left - cells["uncovered_left"]
    covered_right = ones_right - cells["uncovered_right"]
    return {
        "items_used_left": len(used_left) / dataset.n_left if dataset.n_left else 0.0,
        "items_used_right": (
            len(used_right) / dataset.n_right if dataset.n_right else 0.0
        ),
        "ones_covered_left": covered_left / ones_left if ones_left else 0.0,
        "ones_covered_right": covered_right / ones_right if ones_right else 0.0,
        "errors_introduced": cells["errors_left"] + cells["errors_right"],
    }


def redundancy_report(
    dataset: TwoViewDataset,
    tables: dict[str, TranslationTable | Iterable[TranslationRule]],
) -> list[dict[str, object]]:
    """One row per method: redundancy plus coverage, ready for formatting."""
    rows: list[dict[str, object]] = []
    for method, table in tables.items():
        rules = list(table)
        coverage = item_coverage(dataset, rules)
        rows.append(
            {
                "method": method,
                "n_rules": len(rules),
                "redundancy": round(redundancy_score(dataset, rules), 3),
                "ones_covered_left": round(float(coverage["ones_covered_left"]), 3),
                "ones_covered_right": round(float(coverage["ones_covered_right"]), 3),
                "errors": coverage["errors_introduced"],
            }
        )
    return rows
