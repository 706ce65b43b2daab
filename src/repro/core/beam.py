"""TRANSLATOR-BEAM: beam-search rule induction (extension).

A fourth search strategy filling the gap between the paper's EXACT and
SELECT variants:

* EXACT finds the optimal rule but explores an exponential space;
* SELECT is fast but needs a pre-mined candidate set whose ``minsup``
  caps the rules it can ever express;
* **BEAM** grows each rule directly against the cover state: it seeds a
  beam with the best single-item pairs (computed for all ``|I_L| x |I_R|``
  pairs in a few matrix products), then repeatedly extends every beam
  entry by one item on either side, keeping the ``beam_width`` best
  extensions by exact gain, until no extension improves.  No candidate
  mining, polynomial work per rule, any rule expressible.

Like the paper's algorithms, the outer loop greedily adds the best rule
found until nothing improves compression.  BEAM is *not* exact — it is
evaluated against EXACT and SELECT in the ablation benchmarks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.encoding import CodeLengthModel
from repro.core.rules import TranslationRule
from repro.core.search import SearchCache
from repro.core.state import CoverState
from repro.core.translator import IterationRecord, TranslatorResult, _record

__all__ = ["TranslatorBeam"]


class TranslatorBeam:
    """Greedy table construction with per-rule beam search.

    Parameters
    ----------
    beam_width:
        Number of itemset pairs kept per extension round.
    max_rule_size:
        Cap on total items per rule (extensions stop there).
    max_iterations:
        Optional cap on the number of rules.
    n_seeds:
        Number of top single-item pairs seeding each beam.
    n_jobs:
        Worker count for beam expansion (``None``/``-1`` = all CPUs).
        Each round's beam entries are scored on separate workers (thread
        backend; gain evaluation is numpy-bound) and merged in beam
        order with the serial path's deduplication, so the fitted model
        is identical to ``n_jobs=1``.

    Example
    -------
    ::

        from repro import TranslatorBeam, generate_planted, SyntheticSpec

        data, _ = generate_planted(SyntheticSpec(n_transactions=200))
        result = TranslatorBeam(beam_width=8, n_jobs=4).fit(data)
        print(result.table.render(data, limit=5))
    """

    def __init__(
        self,
        beam_width: int = 8,
        max_rule_size: int = 6,
        max_iterations: int | None = None,
        n_seeds: int = 16,
        n_jobs: int | None = 1,
    ) -> None:
        if beam_width < 1 or n_seeds < 1:
            raise ValueError("beam_width and n_seeds must be positive")
        if max_rule_size < 2:
            raise ValueError("max_rule_size must allow one item per side")
        self.beam_width = beam_width
        self.max_rule_size = max_rule_size
        self.max_iterations = max_iterations
        self.n_seeds = n_seeds
        self.n_jobs = n_jobs
        self._executor = None

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: TwoViewDataset,
        codes: CodeLengthModel | None = None,
        cache: SearchCache | None = None,
    ) -> TranslatorResult:
        """Induce a translation table for ``dataset``.

        ``cache`` optionally injects a pre-built :class:`SearchCache` for
        ``dataset`` (the streaming buffer builds one from its
        incrementally maintained packed columns), skipping the per-fit
        repack; incremental packing is bit-identical, so the fitted model
        is unchanged.
        """
        start = time.perf_counter()
        state = CoverState(dataset, codes, cache)
        history: list[IterationRecord] = []
        from repro.runtime.executor import ParallelExecutor, effective_n_jobs

        if effective_n_jobs(self.n_jobs) > 1:
            self._executor = ParallelExecutor(
                n_jobs=self.n_jobs, backend="thread", chunk_size=1
            )
        else:
            self._executor = None
        while self.max_iterations is None or len(state.table) < self.max_iterations:
            rule, gain = self._best_rule(state)
            if rule is None or rule in state.table:
                break
            state.add_rule(rule)
            history.append(_record(state, rule, gain))
        return TranslatorResult(
            method=f"translator-beam({self.beam_width})",
            dataset_name=dataset.name,
            table=state.table,
            state=state,
            history=history,
            runtime_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _seed_pairs(
        self, state: CoverState
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Top single-item pairs by bidirectional gain potential."""
        dataset = state.dataset
        # Per-cell net weights, transactions by items.  BLAS sums these
        # real-valued products in an order that depends on the operands'
        # memory layout, so the layouts below are fixed: C-ordered net
        # weights, and the Boolean views cast as they are.
        net_left, net_right = (
            np.ascontiguousarray(state.net_signs(side).T) * state.cover(side).weights
            for side in (Side.LEFT, Side.RIGHT)
        )
        forward = dataset.left.T.astype(float) @ net_right
        backward = net_left.T @ dataset.right.astype(float)
        length_grid = (
            state.codes.lengths_left[:, None] + state.codes.lengths_right[None, :]
        )
        score = forward + backward - length_grid
        score = np.where(state.cache.cooccur & np.isfinite(score), score, -np.inf)
        flat_order = np.argsort(score, axis=None)[::-1][: self.n_seeds]
        pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for index in flat_order:
            left_item, right_item = divmod(int(index), dataset.n_right)
            if not np.isfinite(score[left_item, right_item]):
                break
            pairs.append(((left_item,), (right_item,)))
        return pairs

    def _expand_rule(
        self,
        state: CoverState,
        rule: TranslationRule,
        seen_snapshot: set[tuple[tuple[int, ...], tuple[int, ...]]],
    ) -> list[tuple[tuple, TranslationRule | None, float]]:
        """Score all one-item extensions of one beam entry.

        Reads ``seen_snapshot`` without mutating it (workers run
        concurrently over the same set), deduplicates locally, and
        returns ``(pair, rule_or_None, gain)`` triples in generation
        order; ``None`` marks pairs that fail the co-occurrence test but
        must still enter ``seen``.  Pairs generated by *several* beam
        entries in the same round may be scored twice on different
        workers — ``best_direction`` is pure, so the merge keeps the
        first and the result is unchanged.
        """
        dataset = state.dataset
        left_bits, right_bits = state.cache.left_bits, state.cache.right_bits
        output: list[tuple[tuple, TranslationRule | None, float]] = []
        local_seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for side in (Side.LEFT, Side.RIGHT):
            current = rule.lhs if side is Side.LEFT else rule.rhs
            for item in range(dataset.n_side(side)):
                if item in current:
                    continue
                if side is Side.LEFT:
                    lhs = tuple(sorted(rule.lhs + (item,)))
                    rhs = rule.rhs
                else:
                    lhs = rule.lhs
                    rhs = tuple(sorted(rule.rhs + (item,)))
                key = (lhs, rhs)
                if key in seen_snapshot or key in local_seen:
                    continue
                local_seen.add(key)
                support_left = left_bits.support(lhs)
                support_right = right_bits.support(rhs)
                # Exact co-occurrence test on the packed supports.
                if not (support_left & support_right).any():
                    output.append((key, None, 0.0))
                    continue
                extended, gain = state.best_direction(
                    lhs, rhs, support_left=support_left, support_right=support_right
                )
                output.append((key, extended, gain))
        return output

    def _best_rule(
        self, state: CoverState
    ) -> tuple[TranslationRule | None, float]:
        """Beam search for a high-gain rule against the current state."""
        dataset = state.dataset
        beam: list[tuple[float, TranslationRule]] = []
        seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
        for lhs, rhs in self._seed_pairs(state):
            rule, gain = state.best_direction(lhs, rhs)
            beam.append((gain, rule))
            seen.add((lhs, rhs))
        if not beam:
            return None, 0.0
        beam.sort(key=lambda pair: -pair[0])
        beam = beam[: self.beam_width]
        best_gain, best_rule = beam[0]

        improved = True
        while improved:
            improved = False
            to_expand = [rule for __, rule in beam if rule.size < self.max_rule_size]
            if self._executor is not None and len(to_expand) > 1:
                # Score each beam entry's extensions on its own worker
                # against a frozen `seen` snapshot, then merge in beam
                # order with the serial dedup rule: the first generator
                # of a pair wins, so the extension list — and therefore
                # the fitted model — is identical to the serial path.
                outputs = self._executor.map(
                    lambda rule: self._expand_rule(state, rule, seen), to_expand
                )
            else:
                outputs = [
                    self._expand_rule(state, rule, seen) for rule in to_expand
                ]
            extensions: list[tuple[float, TranslationRule]] = []
            for output in outputs:
                for key, extended, gain in output:
                    if key in seen:
                        continue
                    seen.add(key)
                    if extended is not None:
                        extensions.append((gain, extended))
            if extensions:
                merged = beam + extensions
                merged.sort(key=lambda pair: -pair[0])
                beam = merged[: self.beam_width]
                if beam[0][0] > best_gain:
                    best_gain, best_rule = beam[0]
                    improved = True
        if best_gain <= 0.0:
            return None, 0.0
        return best_rule, best_gain
