"""Redescription mining — a REREMI stand-in (Galbrun & Miettinen, 2012).

Redescription mining looks for *pairs of queries*, one per view, that are
satisfied by (almost) the same set of objects; quality is the Jaccard
coefficient of the two support sets.  Following the paper's experimental
setup, queries are restricted to **monotone conjunctions** of Boolean
attributes, which makes every redescription interpretable as a
bidirectional high-confidence association rule.

The algorithm is REREMI's alternating greedy scheme:

1. **Initial pairs** — all singleton pairs ``({l}, {r})`` ranked by
   Jaccard; the top ``n_initial`` seed the beam.
2. **Alternating extension** — each beam entry is repeatedly extended
   with the single item (on either side) that maximises Jaccard; an
   extension is kept only when it strictly improves the coefficient.
3. **Selection** — extended candidates are deduplicated (by support
   signature), filtered with a binomial-tail p-value against the
   independence null, and the top ``max_results`` by Jaccard returned.

Like REREMI, selection is per-redescription ("ad-hoc pruning, driven
primarily by accuracy") — nothing discourages global redundancy, which is
exactly the behaviour the paper contrasts TRANSLATOR with.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.rules import Direction, TranslationRule

__all__ = ["Redescription", "ReremiMiner"]


@dataclasses.dataclass(frozen=True)
class Redescription:
    """A mined redescription: one monotone conjunction per view."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    jaccard: float
    support: int
    p_value: float

    def to_translation_rule(self) -> TranslationRule:
        """Interpret the redescription as a bidirectional rule."""
        return TranslationRule(self.lhs, self.rhs, Direction.BOTH)


def _jaccard(left_mask: np.ndarray, right_mask: np.ndarray) -> float:
    intersection = int((left_mask & right_mask).sum())
    union = int((left_mask | right_mask).sum())
    return intersection / union if union else 0.0


def redescription_p_value(
    n: int, left_support: int, right_support: int, intersection: int
) -> float:
    """Binomial-tail p-value of a redescription (standard RM significance).

    Under the independence null, each transaction lands in the
    intersection with probability ``(left_support/n) * (right_support/n)``;
    the p-value is the probability of seeing at least the observed
    intersection, ``P[Binomial(n, p) >= intersection]``.
    """
    # Imported here so that ``import repro`` does not load scipy.stats.
    from scipy.stats import binom

    if n == 0:
        return 1.0
    if intersection <= 0:
        return 1.0
    probability = (left_support / n) * (right_support / n)
    return float(binom.sf(intersection - 1, n, probability))


class ReremiMiner:
    """Alternating greedy redescription miner over Boolean two-view data.

    Parameters
    ----------
    n_initial:
        Number of top singleton pairs seeding the beam.
    beam_width:
        Beam width during extension.
    max_side_size:
        Maximum items per query side.
    min_support:
        Minimum intersection support of a reported redescription.
    max_p_value:
        Significance threshold on the binomial-tail p-value.
    max_results:
        Number of redescriptions returned (top by Jaccard).
    """

    def __init__(
        self,
        n_initial: int = 50,
        beam_width: int = 4,
        max_side_size: int = 4,
        min_support: int = 5,
        max_p_value: float = 0.01,
        max_results: int = 50,
    ) -> None:
        self.n_initial = n_initial
        self.beam_width = beam_width
        self.max_side_size = max_side_size
        self.min_support = min_support
        self.max_p_value = max_p_value
        self.max_results = max_results

    # ------------------------------------------------------------------
    def mine(self, dataset: TwoViewDataset) -> list[Redescription]:
        """Mine redescriptions of ``dataset``."""
        seeds = self._initial_pairs(dataset)
        found: dict[bytes, Redescription] = {}
        for lhs, rhs in seeds:
            redescription = self._extend(dataset, lhs, rhs)
            if redescription is None:
                continue
            left_mask = dataset.support_mask(Side.LEFT, redescription.lhs)
            right_mask = dataset.support_mask(Side.RIGHT, redescription.rhs)
            signature = np.packbits(left_mask & right_mask).tobytes()
            existing = found.get(signature)
            if existing is None or redescription.jaccard > existing.jaccard:
                found[signature] = redescription
        results = [
            redescription
            for redescription in found.values()
            if redescription.support >= self.min_support
            and redescription.p_value <= self.max_p_value
        ]
        results.sort(key=lambda redescription: (-redescription.jaccard, redescription.lhs))
        return results[: self.max_results]

    def to_rules(self, redescriptions: list[Redescription]) -> list[TranslationRule]:
        """Convert mined redescriptions to bidirectional translation rules."""
        rules: list[TranslationRule] = []
        seen: set[TranslationRule] = set()
        for redescription in redescriptions:
            rule = redescription.to_translation_rule()
            if rule not in seen:
                seen.add(rule)
                rules.append(rule)
        return rules

    # ------------------------------------------------------------------
    def _initial_pairs(
        self, dataset: TwoViewDataset
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Top singleton pairs by Jaccard."""
        scored: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = []
        left = dataset.left
        right = dataset.right
        # Vectorised pairwise intersection counts: left.T @ right.
        intersections = left.astype(np.int32).T @ right.astype(np.int32)
        left_supports = left.sum(axis=0)
        right_supports = right.sum(axis=0)
        for left_item in range(dataset.n_left):
            if left_supports[left_item] == 0:
                continue
            for right_item in range(dataset.n_right):
                if right_supports[right_item] == 0:
                    continue
                intersection = int(intersections[left_item, right_item])
                if intersection < self.min_support:
                    continue
                union = int(
                    left_supports[left_item] + right_supports[right_item] - intersection
                )
                jaccard = intersection / union if union else 0.0
                if jaccard > 0:
                    scored.append((jaccard, (left_item,), (right_item,)))
        scored.sort(key=lambda entry: -entry[0])
        return [(lhs, rhs) for __, lhs, rhs in scored[: self.n_initial]]

    def _extend(
        self,
        dataset: TwoViewDataset,
        lhs: tuple[int, ...],
        rhs: tuple[int, ...],
    ) -> Redescription | None:
        """Alternating greedy beam extension of one seed pair."""
        n = dataset.n_transactions
        beam: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = [
            (
                _jaccard(
                    dataset.support_mask(Side.LEFT, lhs),
                    dataset.support_mask(Side.RIGHT, rhs),
                ),
                lhs,
                rhs,
            )
        ]
        best = beam[0]
        improved = True
        while improved:
            improved = False
            next_beam: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = []
            for jaccard, current_lhs, current_rhs in beam:
                left_mask = dataset.support_mask(Side.LEFT, current_lhs)
                right_mask = dataset.support_mask(Side.RIGHT, current_rhs)
                for side, itemset in ((Side.LEFT, current_lhs), (Side.RIGHT, current_rhs)):
                    if len(itemset) >= self.max_side_size:
                        continue
                    view = dataset.view(side)
                    base_mask = left_mask if side is Side.LEFT else right_mask
                    other_mask = right_mask if side is Side.LEFT else left_mask
                    for item in range(dataset.n_side(side)):
                        if item in itemset:
                            continue
                        candidate_mask = base_mask & view[:, item]
                        if int((candidate_mask & other_mask).sum()) < self.min_support:
                            continue
                        candidate_jaccard = _jaccard(candidate_mask, other_mask)
                        if candidate_jaccard <= jaccard:
                            continue
                        if side is Side.LEFT:
                            entry = (
                                candidate_jaccard,
                                tuple(sorted(itemset + (item,))),
                                current_rhs,
                            )
                        else:
                            entry = (
                                candidate_jaccard,
                                current_lhs,
                                tuple(sorted(itemset + (item,))),
                            )
                        next_beam.append(entry)
            if next_beam:
                next_beam.sort(key=lambda entry: -entry[0])
                beam = next_beam[: self.beam_width]
                if beam[0][0] > best[0]:
                    best = beam[0]
                    improved = True
        jaccard, best_lhs, best_rhs = best
        left_mask = dataset.support_mask(Side.LEFT, best_lhs)
        right_mask = dataset.support_mask(Side.RIGHT, best_rhs)
        intersection = int((left_mask & right_mask).sum())
        if intersection < self.min_support:
            return None
        p_value = redescription_p_value(
            n, int(left_mask.sum()), int(right_mask.sum()), intersection
        )
        return Redescription(best_lhs, best_rhs, jaccard, intersection, p_value)
