"""The TRANSLATOR algorithms (paper, Section 5).

Three model-induction strategies over the same cover state:

* :class:`TranslatorExact` — Algorithm 2: iteratively add the *provably
  best* rule found by :class:`~repro.core.search.ExactRuleSearch`, until
  no rule improves compression.  Parameter-free.
* :class:`TranslatorSelect` — Algorithm 3: per iteration, rank all rules
  constructible from a fixed candidate set (closed frequent two-view
  itemsets) by gain, and add the top-``k`` that do not overlap in items
  and still improve compression.
* :class:`TranslatorGreedy` — single-pass KRIMP-style filtering: order the
  candidates (length desc, support desc), consider each exactly once, add
  the best-direction rule when its gain is strictly positive.

All three return a :class:`TranslatorResult` carrying the final table, the
cover state, and a per-iteration history (used by the Fig. 2 trace).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import obs as _obs
from repro.data.dataset import TwoViewDataset
from repro.core.encoding import CodeLengthModel
from repro.core.rules import TranslationRule
from repro.core.search import ExactRuleSearch, SearchCache, SearchStats
from repro.core.state import CoverState
from repro.core.table import TranslationTable
from repro.mining.twoview import (
    TwoViewCandidate,
    auto_minsup,
    joint_bits,
    two_view_candidates,
)

__all__ = [
    "IterationRecord",
    "TranslatorResult",
    "TranslatorExact",
    "TranslatorSelect",
    "TranslatorGreedy",
]


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    """State snapshot taken after one rule was added."""

    index: int
    rule: TranslationRule
    gain: float
    total_bits: float
    table_bits: float
    correction_bits_left: float
    correction_bits_right: float
    uncovered_left: int
    uncovered_right: int
    errors_left: int
    errors_right: int


@dataclasses.dataclass
class TranslatorResult:
    """Outcome of fitting a TRANSLATOR algorithm to a dataset.

    Carries the induced ``table``, the final ``state`` (cover +
    encoded lengths), a per-iteration ``history`` (the Fig. 2 trace),
    wall-clock ``runtime_seconds``, and — for the exact search —
    ``converged`` / ``search_stats``.  Derived metrics are exposed as
    properties (``n_rules``, ``compression_ratio`` = the paper's
    ``L%``, ``correction_fraction``, ``total_bits``) and as a flat
    :meth:`summary` row for tables and sweeps.

    Example::

        result = TranslatorSelect(k=1).fit(data)
        print(result.summary()["compression_ratio"])
    """

    method: str
    dataset_name: str
    table: TranslationTable
    state: CoverState
    history: list[IterationRecord]
    runtime_seconds: float
    converged: bool = True
    search_stats: list[SearchStats] = dataclasses.field(default_factory=list)

    @property
    def n_rules(self) -> int:
        """``|T|``: number of rules in the induced table."""
        return len(self.table)

    @property
    def compression_ratio(self) -> float:
        """``L% = L(D, T) / L(D, ∅)`` as a fraction in (0, 1]."""
        return self.state.compression_ratio()

    @property
    def correction_fraction(self) -> float:
        """``|C|%`` as a fraction."""
        return self.state.correction_fraction()

    @property
    def total_bits(self) -> float:
        """``L(D, T)`` in bits."""
        return self.state.total_length()

    @property
    def gap_bound(self) -> float:
        """Anytime honesty: worst per-search bound on unexplored gain.

        ``0.0`` when every best-rule search ran to completion (the model
        is the greedy algorithm's exact output).  After budgeted
        searches it is the maximum
        :attr:`~repro.core.search.SearchStats.gap_bound` over the fit's
        iterations — no *single* interrupted search left more than this
        many bits of gain unexplored.  It bounds each greedy step, not
        the end-to-end model quality (greedy choices compound), which is
        exactly what the per-iteration searches can prove.
        """
        if not self.search_stats:
            return 0.0
        return max(stats.gap_bound for stats in self.search_stats)

    def summary(self) -> dict[str, object]:
        """One row of a Table 2 / Table 3 style report."""
        return {
            "method": self.method,
            "dataset": self.dataset_name,
            "n_rules": self.n_rules,
            "compression_ratio": self.compression_ratio,
            "correction_fraction": self.correction_fraction,
            "average_rule_length": self.table.average_length,
            "runtime_seconds": self.runtime_seconds,
        }


def _record(state: CoverState, rule: TranslationRule, gain: float) -> IterationRecord:
    snapshot = state.snapshot()
    return IterationRecord(
        index=int(snapshot["n_rules"]),
        rule=rule,
        gain=gain,
        total_bits=float(snapshot["total_bits"]),
        table_bits=float(snapshot["table_bits"]),
        correction_bits_left=float(snapshot["correction_bits_left"]),
        correction_bits_right=float(snapshot["correction_bits_right"]),
        uncovered_left=int(snapshot["uncovered_left"]),
        uncovered_right=int(snapshot["uncovered_right"]),
        errors_left=int(snapshot["errors_left"]),
        errors_right=int(snapshot["errors_right"]),
    )


class TranslatorExact:
    """TRANSLATOR-EXACT (Algorithm 2): greedy with exact best-rule search.

    Each search runs on the C kernel of :mod:`repro.native` wherever it
    compiles and on numpy otherwise; the fitted model is bit-identical
    either way.

    Parameters
    ----------
    max_iterations:
        Optional cap on the number of rules (``None`` = run to convergence,
        the paper's setting).
    max_rule_size:
        Optional cap on rule size forwarded to the search; ``None``
        reproduces the paper's unbounded search.
    max_nodes_per_search:
        Optional anytime budget per best-rule search.  When hit, the best
        rule found so far is used and ``result.converged`` reports whether
        every search ran to completion.
    n_jobs:
        Worker count for the intra-search root-subtree sharding
        (``None``/``-1`` = all CPUs).  The fitted model — every rule and
        gain in the history — is bit-identical to ``n_jobs=1``; only
        pruning statistics may differ.  Ignored while an anytime
        ``max_nodes_per_search`` budget is set (budgeted searches run
        serially; see :mod:`repro.core.search`).
    time_budget_per_search:
        Optional wall-clock budget in seconds per best-rule search.
        Runs each search through
        :class:`repro.corpus.anytime.AnytimeSearch` — deterministic
        node-budget slices with the clock checked between slices — so
        the *decisions* within each slice stay bit-reproducible even
        though how many slices fit is machine-dependent.
        ``result.gap_bound`` reports how much gain the interrupted
        searches could have left unexplored.

    Example
    -------
    ::

        from repro import TranslatorExact, generate_planted, SyntheticSpec

        data, _ = generate_planted(SyntheticSpec(n_transactions=200))
        result = TranslatorExact(max_rule_size=4, n_jobs=4).fit(data)
        print(result.n_rules, f"{result.compression_ratio:.2%}")
    """

    def __init__(
        self,
        max_iterations: int | None = None,
        max_rule_size: int | None = None,
        max_nodes_per_search: int | None = None,
        n_jobs: int | None = 1,
        time_budget_per_search: float | None = None,
    ) -> None:
        self.max_iterations = max_iterations
        self.max_rule_size = max_rule_size
        self.max_nodes_per_search = max_nodes_per_search
        self.n_jobs = n_jobs
        self.time_budget_per_search = time_budget_per_search

    def fit(
        self,
        dataset: TwoViewDataset | None = None,
        codes: CodeLengthModel | None = None,
        cache: SearchCache | None = None,
        store=None,
    ) -> TranslatorResult:
        """Induce a translation table for ``dataset`` (or a column store).

        ``cache`` optionally injects a pre-built :class:`SearchCache` for
        ``dataset`` (the streaming buffer builds one from its
        incrementally maintained packed columns, skipping the repack);
        :class:`CoverState` rejects a cache built for another dataset.

        ``store`` accepts a :class:`repro.corpus.ColumnStore` instead of
        a dataset: the store's already-packed column blocks are stitched
        into the search cache directly (no repacking), and the Boolean
        views are materialised once.  This is the deliberate exit from
        out-of-core mode — a full multi-item fit needs the columns
        resident; use :func:`repro.corpus.topk_pairs` for queries that
        must stay O(block).
        """
        start = time.perf_counter()
        if store is not None:
            if dataset is not None or cache is not None:
                raise ValueError("pass either store= or dataset=/cache=, not both")
            dataset = store.to_dataset()
            cache = SearchCache(
                dataset,
                left_bits=store.left_bits(),
                right_bits=store.right_bits(),
            )
        if dataset is None:
            raise ValueError("fit needs a dataset or a store")
        # The state's cache is dataset-static: every greedy iteration's
        # search reuses it.
        state = CoverState(dataset, codes, cache)
        history: list[IterationRecord] = []
        all_stats: list[SearchStats] = []
        converged = True
        while self.max_iterations is None or len(state.table) < self.max_iterations:
            if self.time_budget_per_search is not None:
                from repro.corpus.anytime import AnytimeSearch

                outcome = AnytimeSearch(
                    state,
                    max_nodes=self.max_nodes_per_search,
                    time_budget=self.time_budget_per_search,
                    max_rule_size=self.max_rule_size,
                ).run()
                rule, gain, stats = outcome.rule, outcome.gain, outcome.stats
            else:
                search = ExactRuleSearch(
                    state,
                    max_rule_size=self.max_rule_size,
                    max_nodes=self.max_nodes_per_search,
                    n_jobs=self.n_jobs,
                )
                rule, gain, stats = search.find_best_rule()
            all_stats.append(stats)
            converged = converged and stats.complete
            if rule is None:
                break
            state.add_rule(rule)
            history.append(_record(state, rule, gain))
        result = TranslatorResult(
            method="translator-exact",
            dataset_name=dataset.name,
            table=state.table,
            state=state,
            history=history,
            runtime_seconds=time.perf_counter() - start,
            converged=converged,
            search_stats=all_stats,
        )
        inst = _obs.ACTIVE
        if inst is not None:
            inst.observe_fit(
                result.method, result.runtime_seconds, len(history)
            )
        return result


class _CandidateBased:
    """Shared candidate handling for SELECT and GREEDY.

    The default candidate budget is 10,000 — the low end of the paper's
    10K-200K range — because gain evaluation in pure Python is roughly two
    orders of magnitude slower than the paper's C++ implementation; raise
    ``max_candidates`` to match the paper's upper bound when runtime is no
    concern.
    """

    def __init__(
        self,
        minsup: int | None = None,
        candidates: list[TwoViewCandidate] | None = None,
        max_candidates: int = 10_000,
    ) -> None:
        self.minsup = minsup
        self.candidates = candidates
        self.max_candidates = max_candidates

    def _get_candidates(self, cache: SearchCache) -> list[TwoViewCandidate]:
        if self.candidates is not None:
            return self.candidates
        dataset = cache.dataset
        # The miner reads the fit's packed columns, stitched into the
        # joint matrix (bit-identical to packing ``dataset.joined()``).
        bits = joint_bits(cache.left_bits, cache.right_bits)
        if self.minsup is not None:
            # Mine with head-room above the budget, then keep the most
            # supported candidates — an explicit minsup should not abort
            # just because the dataset is denser than expected.  When even
            # the head-room overflows, raise the threshold adaptively (the
            # paper's own recipe: "fix minsup such that the number of
            # candidates remains manageable").
            minsup = self.minsup
            while True:
                try:
                    candidates = two_view_candidates(
                        dataset,
                        minsup,
                        max_candidates=20 * self.max_candidates,
                        bits=bits,
                    )
                    break
                except RuntimeError:
                    if minsup >= dataset.n_transactions:
                        raise
                    minsup = min(dataset.n_transactions, 2 * minsup)
            return candidates[: self.max_candidates]
        __, candidates = auto_minsup(
            dataset, target_candidates=self.max_candidates, bits=bits
        )
        return candidates


class TranslatorSelect(_CandidateBased):
    """TRANSLATOR-SELECT(k) (Algorithm 3).

    Parameters
    ----------
    k:
        Number of rules selected per iteration (the paper evaluates
        ``k=1`` and ``k=25``).
    minsup:
        Absolute minimum support for candidate mining; ``None`` tunes it
        automatically to the candidate budget (paper, Section 6.1).
    candidates:
        Pre-mined candidates, overriding ``minsup`` (ablation A2 passes
        all frequent itemsets instead of the closed ones mined here).
    """

    def __init__(
        self,
        k: int = 1,
        minsup: int | None = None,
        candidates: list[TwoViewCandidate] | None = None,
        max_candidates: int = 10_000,
        max_iterations: int | None = None,
    ) -> None:
        super().__init__(minsup, candidates, max_candidates)
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.max_iterations = max_iterations

    def fit(
        self,
        dataset: TwoViewDataset,
        codes: CodeLengthModel | None = None,
        cache: SearchCache | None = None,
    ) -> TranslatorResult:
        """Induce a translation table by iterative top-k candidate selection.

        Candidate gains are cached between iterations and recomputed only
        when stale.  A candidate's gain reads right-view cells in its
        consequent columns and left-view cells in its antecedent columns;
        adding a rule changes right cells only in the applied rule's
        ``rhs`` columns and left cells only in its ``lhs`` columns.  A
        cached gain is therefore exact until one of those column sets
        intersects the candidate's.  The candidates of every column are
        indexed once, so an iteration re-scores only the candidates of the
        columns the last one changed, and ranks the cached gains with one
        stable sort, without changing the algorithm's semantics.

        ``cache`` optionally injects a pre-built :class:`SearchCache` for
        ``dataset``; its columns feed the miner and the packed supports.
        """
        start = time.perf_counter()
        state = CoverState(dataset, codes, cache)
        candidates = self._get_candidates(state.cache)
        history: list[IterationRecord] = []
        # best_direction's arguments per candidate, with the packed supports
        # of each distinct antecedent and consequent (a view's itemset
        # recurs across many candidates).
        left_bits, right_bits = state.cache.left_bits, state.cache.right_bits
        left_of = {lhs: left_bits.support(lhs) for lhs in {c.lhs for c in candidates}}
        right_of = {rhs: right_bits.support(rhs) for rhs in {c.rhs for c in candidates}}
        arguments = [(c.lhs, c.rhs, left_of[c.lhs], right_of[c.rhs]) for c in candidates]
        by_left: list[list[int]] = [[] for __ in range(dataset.n_left)]
        by_right: list[list[int]] = [[] for __ in range(dataset.n_right)]
        for index, candidate in enumerate(candidates):
            for item in candidate.lhs:
                by_left[item].append(index)
            for item in candidate.rhs:
                by_right[item].append(index)
        rules: list[TranslationRule | None] = [None] * len(candidates)
        gains = np.zeros(len(candidates))
        stale: list[int] | range = range(len(candidates))

        iteration = 0
        while self.max_iterations is None or iteration < self.max_iterations:
            iteration += 1
            for index in stale:
                rules[index], gains[index] = state.best_direction(*arguments[index])
            # The k best positive gains not in the table, ties in
            # candidate order.
            top_k: list[TranslationRule] = []
            for index in np.argsort(-gains, kind="stable").tolist():
                if gains[index] <= 0 or len(top_k) == self.k:
                    break
                if rules[index] not in state.table:
                    top_k.append(rules[index])
            if not top_k:
                break
            dirty: set[int] = set()
            used: set[tuple[str, int]] = set()
            added_any = False
            for rule in top_k:
                rule_items = {("L", item) for item in rule.lhs} | {
                    ("R", item) for item in rule.rhs
                }
                if rule_items & used:
                    # Overlaps a rule added this round: its cached gain is
                    # stale, so it is discarded for this iteration (Alg. 3).
                    continue
                actual_gain = state.gain(rule)
                if actual_gain > 0 and rule not in state.table:
                    state.add_rule(rule)
                    history.append(_record(state, rule, actual_gain))
                    used |= rule_items
                    added_any = True
                    if rule.direction.applies_forward:
                        for item in rule.rhs:
                            dirty.update(by_right[item])
                    if rule.direction.applies_backward:
                        for item in rule.lhs:
                            dirty.update(by_left[item])
            if not added_any:
                break
            stale = sorted(dirty)
        return TranslatorResult(
            method=f"translator-select({self.k})",
            dataset_name=dataset.name,
            table=state.table,
            state=state,
            history=history,
            runtime_seconds=time.perf_counter() - start,
        )


class TranslatorGreedy(_CandidateBased):
    """TRANSLATOR-GREEDY: single-pass candidate filtering (Section 5.4).

    Candidates are ordered descending by length and, on equal length, by
    support; each is considered exactly once and the best-direction rule
    is added when its compression gain is strictly positive.
    """

    def fit(
        self,
        dataset: TwoViewDataset,
        codes: CodeLengthModel | None = None,
        cache: SearchCache | None = None,
    ) -> TranslatorResult:
        """Induce a translation table in one pass over the candidates.

        ``cache`` optionally injects a pre-built :class:`SearchCache`.
        """
        start = time.perf_counter()
        state = CoverState(dataset, codes, cache)
        candidates = self._get_candidates(state.cache)
        ordered = sorted(
            candidates,
            key=lambda candidate: (-candidate.size, -candidate.support, candidate.lhs, candidate.rhs),
        )
        history: list[IterationRecord] = []
        for candidate in ordered:
            # best_direction picks the direction; the exact difference of
            # totals decides, since its gain can round a zero up to +1e-16.
            rule, gain = state.best_direction(candidate.lhs, candidate.rhs)
            if gain <= 0 or rule in state.table:
                continue
            gain = state.gain(rule)
            if gain > 0:
                state.add_rule(rule)
                history.append(_record(state, rule, gain))
        return TranslatorResult(
            method="translator-greedy",
            dataset_name=dataset.name,
            table=state.table,
            state=state,
            history=history,
            runtime_seconds=time.perf_counter() - start,
        )
