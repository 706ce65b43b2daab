"""Post-hoc pruning of translation tables.

The paper's algorithms only ever *add* rules; once a rule is in the table
it stays, even if later additions make it redundant (its uncovered cells
get covered by other rules while its length and errors keep costing
bits).  This module adds the natural post-processing the KRIMP line of
work applies to code tables: iteratively remove the rule whose removal
decreases the total encoded length most, until no removal helps.

Removal cannot be done incrementally on a :class:`CoverState` (translated
cells are unions over rules), so every candidate removal is scored by
covering the table without that rule.  :func:`removal_lengths` scores
all of a table's removals from one growing prefix state: removal ``k``
copies the state after ``rules[:k]`` and adds ``rules[k + 1:]``, which
is the same sequence of updates as re-covering the shortened table from
scratch, so every length is bit-identical to that replay at about half
its cost (``O(|T|^2 / 2)`` rule additions per round).

This is an extension beyond the paper, evaluated by the ablation
benchmark ``bench_ablation_pruning_tables``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.data.dataset import TwoViewDataset
from repro.core.encoding import CodeLengthModel
from repro.core.rules import TranslationRule
from repro.core.search import SearchCache
from repro.core.state import CoverState
from repro.core.table import TranslationTable

__all__ = ["PruneResult", "prune_table", "removal_lengths"]


@dataclasses.dataclass
class PruneResult:
    """Outcome of pruning a translation table."""

    table: TranslationTable
    removed: list[TranslationRule]
    bits_before: float
    bits_after: float

    @property
    def improvement_bits(self) -> float:
        """Total encoded-length reduction achieved by pruning."""
        return self.bits_before - self.bits_after


def removal_lengths(
    dataset: TwoViewDataset,
    rules: Sequence[TranslationRule],
    codes: CodeLengthModel,
    cache: SearchCache | None = None,
) -> tuple[float, list[float]]:
    """Total encoded length of ``rules``, and of ``rules`` without each one.

    Returns ``(full, without)`` where ``without[k]`` is the length of the
    table with rule ``k`` removed.  Each is computed on a copy of the
    prefix state after ``rules[:k]`` extended by ``rules[k + 1:]`` —
    exactly the additions, in the same order, of covering the shortened
    table on a fresh state — and ``full`` extends the last prefix by the
    last rule.  ``cache`` shares one packing of ``dataset`` across calls.
    """
    prefix = CoverState(dataset, codes, cache)
    without: list[float] = []
    for index, rule in enumerate(rules):
        candidate = prefix.copy()
        for later in rules[index + 1 :]:
            candidate.add_rule(later)
        without.append(candidate.total_length())
        prefix.add_rule(rule)
    return prefix.total_length(), without


def prune_table(
    dataset: TwoViewDataset,
    table: TranslationTable,
    codes: CodeLengthModel | None = None,
) -> PruneResult:
    """Greedily remove rules while removal improves compression.

    Each round scores every single-rule removal and applies the best one
    when it strictly reduces the total encoded length; stops otherwise.
    The result's table preserves the surviving rules' original order.
    """
    if codes is None:
        codes = CodeLengthModel(dataset)
    cache = SearchCache(dataset)
    rules = list(table)
    current, without = removal_lengths(dataset, rules, codes, cache)
    before = current
    removed: list[TranslationRule] = []
    while rules:
        best_index = -1
        best_length = current
        for index, length in enumerate(without):
            if length < best_length - 1e-12:
                best_length = length
                best_index = index
        if best_index < 0:
            break
        removed.append(rules.pop(best_index))
        current = best_length
        __, without = removal_lengths(dataset, rules, codes, cache)
    return PruneResult(
        table=TranslationTable(rules),
        removed=removed,
        bits_before=before,
        bits_after=current,
    )
