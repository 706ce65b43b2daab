"""Significant rule discovery — a MAGNUM OPUS stand-in (Webb, 2007).

MAGNUM OPUS is closed-source, so this module reimplements the selection
pressure the paper compares against: discover the cross-view rules whose
antecedent/consequent association is *statistically significant*, with
strict multiple-testing control, so that only a small set of individually
reliable, high-confidence rules survives.

Pipeline (per direction, then merged as the paper does):

1. enumerate candidate rules ``X -> y`` with an antecedent itemset from
   the source view (up to ``max_antecedent``) and a single-item consequent
   from the target view (MAGNUM OPUS's default search space);
2. test each with a one-sided Fisher exact test of the 2x2 contingency
   table of ``X`` vs ``y`` occurrences;
3. apply a Bonferroni-style correction for the size of the explored search
   space (Webb's layered correction);
4. require *productivity*: the rule's confidence must strictly exceed the
   confidence of every immediate generalisation (dropping one antecedent
   item) — this removes the redundant specialisations that cause rule
   explosion;
5. optionally validate the surviving rules on holdout data (Webb's
   holdout-assessment variant).

Finally the two directed rule sets are merged; rules found in both
directions become a single bidirectional rule (paper, Section 6.3).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.bitset import BitMatrix
from repro.core.rules import Direction, TranslationRule
from repro.mining.itemsets import itemsets

__all__ = ["SignificantRule", "SignificantRuleMiner"]


@dataclasses.dataclass(frozen=True)
class SignificantRule:
    """A significant directed rule with its statistics.

    ``lhs``/``rhs`` follow the translation-rule convention (left view /
    right view); ``direction`` states which implication was tested.
    """

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    direction: Direction
    support: int
    confidence: float
    p_value: float

    def to_translation_rule(self) -> TranslationRule:
        """Drop the statistics, keep the rule."""
        return TranslationRule(self.lhs, self.rhs, self.direction)


def _fisher_p(
    antecedent_mask: np.ndarray, consequent_mask: np.ndarray
) -> float:
    """One-sided Fisher exact p-value for positive association."""
    # Imported here so that ``import repro`` does not load scipy.stats.
    from scipy.stats import fisher_exact

    both = int((antecedent_mask & consequent_mask).sum())
    only_antecedent = int((antecedent_mask & ~consequent_mask).sum())
    only_consequent = int((~antecedent_mask & consequent_mask).sum())
    neither = int((~antecedent_mask & ~consequent_mask).sum())
    table = [[both, only_antecedent], [only_consequent, neither]]
    return float(fisher_exact(table, alternative="greater")[1])


class SignificantRuleMiner:
    """Mine statistically significant cross-view rules.

    Parameters
    ----------
    alpha:
        Family-wise significance level before correction (default 0.05).
    max_antecedent:
        Maximum antecedent itemset size (default 4, MAGNUM OPUS's default).
    minsup:
        Absolute minimum support of the antecedent (keeps the candidate
        space finite; default 5).
    min_confidence:
        Optional confidence floor applied before testing.
    holdout:
        When true, data is split 50/50; rules are discovered on the
        exploratory half and re-tested on the holdout half with a
        Bonferroni correction for the number of *selected* rules only
        (Webb's holdout assessment).
    seed:
        RNG seed for the holdout split.
    """

    def __init__(
        self,
        alpha: float = 0.05,
        max_antecedent: int = 4,
        minsup: int = 5,
        min_confidence: float = 0.0,
        holdout: bool = False,
        seed: int = 0,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.max_antecedent = max_antecedent
        self.minsup = minsup
        self.min_confidence = min_confidence
        self.holdout = holdout
        self.seed = seed

    # ------------------------------------------------------------------
    def mine(self, dataset: TwoViewDataset) -> list[SignificantRule]:
        """Mine significant rules in both directions and merge them."""
        if self.holdout and dataset.n_transactions >= 10:
            exploratory, holdout = dataset.split(0.5, rng=self.seed)
        else:
            exploratory, holdout = dataset, None
        forward = self._mine_direction(exploratory, Side.RIGHT)
        backward = self._mine_direction(exploratory, Side.LEFT)
        if holdout is not None:
            forward = self._validate(holdout, forward, Side.RIGHT)
            backward = self._validate(holdout, backward, Side.LEFT)
        return self._merge(forward + backward)

    # ------------------------------------------------------------------
    def _candidate_antecedents(
        self, dataset: TwoViewDataset, source: Side
    ) -> list[tuple[tuple[int, ...], np.ndarray]]:
        bits = BitMatrix.from_bool_columns(dataset.view(source))
        mined = itemsets(
            bits, max(1, self.minsup), closed=False, max_size=self.max_antecedent
        )
        return [
            (itemset, dataset.support_mask(source, itemset))
            for itemset, __ in mined
        ]

    def _mine_direction(
        self, dataset: TwoViewDataset, target: Side
    ) -> list[SignificantRule]:
        """Mine rules whose antecedent is in ``target.opposite``."""
        source = target.opposite
        antecedents = self._candidate_antecedents(dataset, source)
        target_matrix = dataset.view(target)
        n_consequents = dataset.n_side(target)
        n_tests = max(1, len(antecedents) * n_consequents)
        corrected_alpha = self.alpha / n_tests
        # Confidence of every immediate generalisation, for productivity.
        confidence_cache: dict[tuple[int, ...], dict[int, float]] = {}

        def direction_for(antecedent_side: Side) -> Direction:
            return Direction.FORWARD if antecedent_side is Side.LEFT else Direction.BACKWARD

        results: list[SignificantRule] = []
        for itemset, mask in antecedents:
            antecedent_support = int(mask.sum())
            if antecedent_support < self.minsup:
                continue
            confidences: dict[int, float] = {}
            covered = target_matrix[mask]
            joint_counts = covered.sum(axis=0)
            for consequent in range(n_consequents):
                joint = int(joint_counts[consequent])
                confidence = joint / antecedent_support
                confidences[consequent] = confidence
                if joint < self.minsup or confidence < self.min_confidence:
                    continue
                # Productivity: strictly better than all generalisations.
                if len(itemset) > 1 and not self._productive(
                    itemset, consequent, confidence, confidence_cache
                ):
                    continue
                p_value = _fisher_p(mask, target_matrix[:, consequent])
                if p_value >= corrected_alpha:
                    continue
                if source is Side.LEFT:
                    lhs, rhs = itemset, (consequent,)
                else:
                    lhs, rhs = (consequent,), itemset
                results.append(
                    SignificantRule(
                        lhs, rhs, direction_for(source), joint, confidence, p_value
                    )
                )
            confidence_cache[itemset] = confidences
        return results

    @staticmethod
    def _productive(
        itemset: tuple[int, ...],
        consequent: int,
        confidence: float,
        cache: dict[tuple[int, ...], dict[int, float]],
    ) -> bool:
        """Rule must beat every generalisation obtained by dropping one item.

        The ECLAT enumeration emits subsets before supersets along the
        search order, but not *all* immediate generalisations necessarily
        precede an itemset; missing cache entries are treated permissively
        (the generalisation was itself infrequent).
        """
        for drop in range(len(itemset)):
            generalisation = itemset[:drop] + itemset[drop + 1 :]
            parent_confidences = cache.get(generalisation)
            if parent_confidences is None:
                continue
            if confidence <= parent_confidences.get(consequent, 0.0):
                return False
        return True

    # ------------------------------------------------------------------
    def _validate(
        self, holdout: TwoViewDataset, rules: list[SignificantRule], target: Side
    ) -> list[SignificantRule]:
        """Webb's holdout assessment: re-test selected rules on fresh data."""
        if not rules:
            return []
        corrected_alpha = self.alpha / len(rules)
        source = target.opposite
        survivors: list[SignificantRule] = []
        for rule in rules:
            antecedent = rule.lhs if source is Side.LEFT else rule.rhs
            consequent = rule.rhs[0] if target is Side.RIGHT else rule.lhs[0]
            antecedent_mask = holdout.support_mask(source, antecedent)
            consequent_mask = holdout.view(target)[:, consequent]
            if not antecedent_mask.any():
                continue
            p_value = _fisher_p(antecedent_mask, consequent_mask)
            if p_value < corrected_alpha:
                survivors.append(rule)
        return survivors

    # ------------------------------------------------------------------
    @staticmethod
    def _merge(rules: list[SignificantRule]) -> list[SignificantRule]:
        """Merge rules found in both directions into bidirectional rules."""
        by_itemsets: dict[
            tuple[tuple[int, ...], tuple[int, ...]], list[SignificantRule]
        ] = {}
        for rule in rules:
            by_itemsets.setdefault((rule.lhs, rule.rhs), []).append(rule)
        merged: list[SignificantRule] = []
        for (lhs, rhs), group in by_itemsets.items():
            directions = {rule.direction for rule in group}
            if Direction.FORWARD in directions and Direction.BACKWARD in directions:
                merged.append(
                    SignificantRule(
                        lhs,
                        rhs,
                        Direction.BOTH,
                        max(rule.support for rule in group),
                        max(rule.confidence for rule in group),
                        min(rule.p_value for rule in group),
                    )
                )
            else:
                merged.extend(group)
        merged.sort(key=lambda rule: (rule.p_value, -rule.confidence, rule.lhs, rule.rhs))
        return merged
