"""Anytime rule search: node *and* wall-clock budgets, reproducibly.

A ``max_nodes`` budget is deterministic — the same budget on the same
state always stops at the same node and returns the same incumbent.  A
wall-clock budget is not: how many nodes fit in a second depends on the
machine.  Mixing the two naively would make results irreproducible.

:class:`AnytimeSearch` squares that circle by running the search as a
sequence of deterministic node-budget **slices** over the checkpoint
machinery of :class:`repro.core.search.ExactRuleSearch`: each slice
extends the node budget by ``slice_nodes`` and resumes from the
previous slice's :class:`~repro.core.search.SearchCheckpoint`, and the
clock is consulted only *between* slices.  Every decision inside a
slice is bit-reproducible; the clock merely picks how many slices run.
Two runs that complete the same number of slices are bit-identical,
and any interrupted run reports the same honest ``gap_bound`` a
directly node-budgeted search would.
"""

from __future__ import annotations

import dataclasses
import time

from repro.core.rules import TranslationRule
from repro.core.search import ExactRuleSearch, SearchCheckpoint, SearchStats
from repro.core.state import CoverState

__all__ = [
    "AnytimeResult",
    "AnytimeSearch",
]


@dataclasses.dataclass
class AnytimeResult:
    """Outcome of one anytime best-rule search.

    Attributes
    ----------
    rule:
        Best rule found (``None`` if nothing with positive gain was
        reached within budget).
    gain:
        Exact MDL gain of ``rule`` in bits (0.0 when ``rule`` is None).
    stats:
        The underlying :class:`~repro.core.search.SearchStats`;
        ``stats.gap_bound`` bounds how much better the true optimum
        could be, and ``stats.complete`` records whether the search
        finished (in which case the gap is 0.0).
    n_slices:
        Node-budget slices executed; on a time-budgeted run this is the
        only machine-dependent quantity.
    elapsed:
        Wall-clock seconds spent across all slices.
    checkpoint:
        Resume point for continuing the interrupted search later
        (``None`` when the search completed).
    """

    rule: TranslationRule | None
    gain: float
    stats: SearchStats
    n_slices: int
    elapsed: float
    checkpoint: SearchCheckpoint | None


class AnytimeSearch:
    """Budgeted exact rule search with checkpointed wall-clock slicing.

    Parameters
    ----------
    state:
        The :class:`CoverState` to search over (never mutated).
    max_nodes:
        Optional *total* node budget across all slices.
    time_budget:
        Optional wall-clock budget in seconds, enforced at slice
        granularity: the search never starts a new slice after the
        budget is spent, so it can overshoot by at most one slice.
    slice_nodes:
        Nodes per deterministic slice.  Smaller slices track a time
        budget more tightly at the cost of more checkpoint
        rebuild/capture overhead; the value never affects *which* rule
        a node-budget stop returns, only the time-budget granularity.
    max_rule_size:
        Forwarded to :class:`ExactRuleSearch`, which searches with
        the state's :class:`~repro.core.search.SearchCache`.  Slices
        always run serially (``n_jobs=1``): a node budget is
        traversal-order dependent, so sharding could change the answer.
    """

    def __init__(
        self,
        state: CoverState,
        max_nodes: int | None = None,
        time_budget: float | None = None,
        slice_nodes: int = 4096,
        max_rule_size: int | None = None,
    ) -> None:
        if slice_nodes <= 0:
            raise ValueError("slice_nodes must be positive")
        if max_nodes is not None and max_nodes <= 0:
            raise ValueError("max_nodes must be positive when given")
        if time_budget is not None and time_budget < 0:
            raise ValueError("time_budget must be non-negative when given")
        self.state = state
        self.max_nodes = max_nodes
        self.time_budget = time_budget
        self.slice_nodes = int(slice_nodes)
        self.max_rule_size = max_rule_size

    def _make_search(
        self, budget: int | None, checkpoint: SearchCheckpoint | None
    ) -> ExactRuleSearch:
        return ExactRuleSearch(
            self.state,
            max_rule_size=self.max_rule_size,
            max_nodes=budget,
            n_jobs=1,
            checkpoint=checkpoint,
        )

    def run(self) -> AnytimeResult:
        """Execute slices until completion or a budget runs out."""
        start = time.perf_counter()
        if self.time_budget is None:
            # No clock: a single (possibly node-budgeted) search is
            # already deterministic — no slicing needed.
            search = self._make_search(self.max_nodes, None)
            rule, gain, stats = search.find_best_rule()
            return AnytimeResult(
                rule=rule,
                gain=gain,
                stats=stats,
                n_slices=1,
                elapsed=time.perf_counter() - start,
                checkpoint=search.last_checkpoint,
            )

        checkpoint: SearchCheckpoint | None = None
        visited = 0
        n_slices = 0
        while True:
            budget = visited + self.slice_nodes
            if self.max_nodes is not None:
                budget = min(budget, self.max_nodes)
            search = self._make_search(budget, checkpoint)
            rule, gain, stats = search.find_best_rule()
            n_slices += 1
            checkpoint = search.last_checkpoint
            visited = stats.nodes_visited
            elapsed = time.perf_counter() - start
            node_budget_spent = (
                self.max_nodes is not None and visited >= self.max_nodes
            )
            if stats.complete or node_budget_spent or elapsed >= self.time_budget:
                return AnytimeResult(
                    rule=rule,
                    gain=gain,
                    stats=stats,
                    n_slices=n_slices,
                    elapsed=elapsed,
                    checkpoint=None if stats.complete else checkpoint,
                )
