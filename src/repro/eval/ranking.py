"""Per-rule statistics and ranking for analyst-facing presentation.

The paper presents its qualitative results as *top rules* (Figs. 4-5),
*rules containing a focus item* (Fig. 6, 'Genre:Rock') and full rule
listings (Fig. 7).  This module computes the per-rule statistics those
presentations rely on and offers rankings by several criteria:

* ``gain`` — each rule's marginal MDL contribution when removed from the
  fitted table (the most faithful "importance" under the paper's score);
* ``confidence`` — maximum confidence ``c+`` (paper, Section 6);
* ``lift`` — observed co-occurrence over the independence expectation;
* ``support`` — absolute joint support;
* ``coverage`` — number of data cells the rule alone would cover.

All statistics are model-independent except ``gain``, which is computed
against the table the rule belongs to.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from repro.core.encoding import CodeLengthModel
from repro.core.pruning import removal_lengths
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import Side, TwoViewDataset
from repro.eval.metrics import confidence, max_confidence

__all__ = ["RuleStats", "rule_stats", "rank_rules", "focus_item_rules"]

_RANK_KEYS = ("gain", "confidence", "lift", "support", "coverage")


@dataclasses.dataclass(frozen=True)
class RuleStats:
    """All per-rule statistics used by the qualitative presentations."""

    rule: TranslationRule
    support_lhs: int
    support_rhs: int
    support_joint: int
    confidence_forward: float
    confidence_backward: float
    max_confidence: float
    lift: float
    coverage_cells: int
    encoded_bits: float
    gain_bits: float | None = None

    def render(self, dataset: TwoViewDataset | None = None) -> str:
        """One report line: statistics prefix + the rendered rule."""
        gain = "" if self.gain_bits is None else f" Δ{self.gain_bits:+.1f}b"
        return (
            f"[c+ {self.max_confidence:.2f}, lift {self.lift:.1f}, "
            f"supp {self.support_joint}{gain}] {self.rule.render(dataset)}"
        )


def _lift(dataset: TwoViewDataset, rule: TranslationRule, joint: int) -> float:
    """Joint support over the independence expectation of the two sides."""
    n = dataset.n_transactions
    if n == 0 or joint == 0:
        return 0.0
    support_lhs = dataset.support_count(Side.LEFT, rule.lhs)
    support_rhs = dataset.support_count(Side.RIGHT, rule.rhs)
    expected = support_lhs * support_rhs / n
    return float("inf") if expected == 0 else joint / expected


def _coverage_cells(dataset: TwoViewDataset, rule: TranslationRule) -> int:
    """Data cells the rule covers when applied alone (true positives)."""
    cells = 0
    if rule.direction.applies_forward:
        rows = dataset.support_mask(Side.LEFT, rule.lhs)
        cells += int(dataset.right[rows][:, list(rule.rhs)].sum())
    if rule.direction.applies_backward:
        rows = dataset.support_mask(Side.RIGHT, rule.rhs)
        cells += int(dataset.left[rows][:, list(rule.lhs)].sum())
    return cells


def rule_stats(
    dataset: TwoViewDataset,
    rule: TranslationRule,
    codes: CodeLengthModel | None = None,
) -> RuleStats:
    """Compute the model-independent statistics of one rule."""
    model = codes if codes is not None else CodeLengthModel(dataset)
    joint = int(dataset.joint_support_mask(rule.lhs, rule.rhs).sum())
    return RuleStats(
        rule=rule,
        support_lhs=dataset.support_count(Side.LEFT, rule.lhs),
        support_rhs=dataset.support_count(Side.RIGHT, rule.rhs),
        support_joint=joint,
        confidence_forward=confidence(dataset, rule.lhs, rule.rhs, forward=True),
        confidence_backward=confidence(dataset, rule.lhs, rule.rhs, forward=False),
        max_confidence=max_confidence(dataset, rule),
        lift=_lift(dataset, rule, joint),
        coverage_cells=_coverage_cells(dataset, rule),
        encoded_bits=model.rule_length(rule),
    )


def rank_rules(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
    by: str = "gain",
    descending: bool = True,
) -> list[RuleStats]:
    """Rank the rules of a table by one of the supported criteria.

    ``by`` is one of ``gain`` (marginal MDL contribution; the default),
    ``confidence`` (``c+``), ``lift``, ``support`` (joint) or
    ``coverage``.  Returns one :class:`RuleStats` per rule, sorted.
    """
    if by not in _RANK_KEYS:
        raise ValueError(f"unknown ranking key {by!r}; choose from {_RANK_KEYS}")
    rules = list(table)
    codes = CodeLengthModel(dataset)
    stats = [rule_stats(dataset, rule, codes) for rule in rules]
    if by == "gain":
        # A rule's marginal MDL contribution: L(without it) - L(with it),
        # positive when the table is better off keeping the rule.
        full, without = removal_lengths(dataset, rules, codes)
        stats = [
            dataclasses.replace(record, gain_bits=length - full)
            for record, length in zip(stats, without)
        ]
        key = lambda record: record.gain_bits  # noqa: E731
    elif by == "confidence":
        key = lambda record: record.max_confidence  # noqa: E731
    elif by == "lift":
        key = lambda record: record.lift  # noqa: E731
    elif by == "support":
        key = lambda record: record.support_joint  # noqa: E731
    else:
        key = lambda record: record.coverage_cells  # noqa: E731
    return sorted(stats, key=key, reverse=descending)


def focus_item_rules(
    table: TranslationTable | Iterable[TranslationRule],
    dataset: TwoViewDataset,
    item_name: str,
    side: Side | None = None,
) -> list[TranslationRule]:
    """All rules containing ``item_name`` (the Fig. 6 query).

    ``side`` restricts the lookup to one view; by default both views are
    searched (the name must exist in at least one).
    """
    sides = [side] if side is not None else [Side.LEFT, Side.RIGHT]
    matches: list[tuple[Side, int]] = []
    for candidate in sides:
        try:
            matches.append((candidate, dataset.item_index(candidate, item_name)))
        except KeyError:
            continue
    if not matches:
        raise KeyError(f"item {item_name!r} not found in the requested view(s)")
    found = []
    for rule in table:
        for item_side, column in matches:
            items = rule.lhs if item_side is Side.LEFT else rule.rhs
            if column in items:
                found.append(rule)
                break
    return found
