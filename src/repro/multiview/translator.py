"""Pairwise multi-view TRANSLATOR.

Models a :class:`~repro.multiview.dataset.MultiViewDataset` as one
translation table per unordered view pair, each induced with a two-view
TRANSLATOR.  The total encoded length is the sum of the pairwise
bidirectional translation lengths

    L(D, {T_ij}) = sum_{i<j}  L(T_ij) + L(C_i | T_ij) + L(C_j | T_ij),

which reduces exactly to the paper's score for two views.  The pairwise
decomposition keeps the search space tractable (the paper's noted
obstacle for the multi-view generalisation) at the cost of not sharing
rules across pairs.

Shared packed bitsets
---------------------
Each view's Boolean matrix is packed into uint64 bitset columns exactly
once, and the packed columns are shared across all ``k·(k-1)/2`` pairs:
each pair fit receives them as a ``SearchCache(left_bits=, right_bits=)``
through ``fit(dataset, cache=)``, the one entry point of every two-view
TRANSLATOR, so the cover state, the exact search and the candidate miner
all read the shared columns.  Packing is deterministic, so the fitted
tables are bit-identical to fitting every pair from scratch — only the
redundant per-pair repacks disappear (measured in ``BENCH_kview.json``).

Conditional translation
-----------------------
With ``conditional=True``, pairs are scored *residually* in
:meth:`MultiViewDataset.view_pairs` order: after fitting pair ``(i, j)``,
every transaction matched by one of its accepted rules is marked covered,
and later pairs are fitted only on the still-uncovered transactions.
This answers "what does pair (i, j) explain *beyond* the earlier pairs?"
and avoids re-reporting the same cross-view structure k-1 times.
Residual subsets change the transaction universe, so those fits pack
their (smaller) matrices fresh rather than reusing the shared columns.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.bitset import BitMatrix
from repro.core.search import SearchCache
from repro.core.translator import TranslatorExact, TranslatorResult, TranslatorSelect
from repro.multiview.dataset import MultiViewDataset

__all__ = ["MultiViewResult", "MultiViewTranslator"]

_METHODS = ("select", "exact")


@dataclasses.dataclass
class MultiViewResult:
    """Outcome of fitting the pairwise multi-view translator."""

    dataset_name: str
    pair_results: dict[tuple[int, int], TranslatorResult]
    runtime_seconds: float
    method: str = "select"
    conditional: bool = False
    #: Transactions each pair was scored on (the full dataset, or the
    #: residual uncovered subset in conditional mode; fully covered pairs
    #: are recorded with their residual count but carry no fit).
    pair_rows: dict[tuple[int, int], int] = dataclasses.field(default_factory=dict)

    @property
    def n_rules(self) -> int:
        """Total number of rules over all pairwise tables."""
        return sum(result.n_rules for result in self.pair_results.values())

    @property
    def total_bits(self) -> float:
        """Total encoded length over all pairwise translations."""
        return sum(result.total_bits for result in self.pair_results.values())

    @property
    def baseline_bits(self) -> float:
        """Total encoded length under empty tables."""
        return sum(
            result.state.baseline_bits for result in self.pair_results.values()
        )

    @property
    def compression_ratio(self) -> float:
        """Aggregate ``L%`` over all pairs."""
        baseline = self.baseline_bits
        return self.total_bits / baseline if baseline else 1.0

    def summary(self) -> dict[str, object]:
        """Per-pair and aggregate statistics."""
        return {
            "dataset": self.dataset_name,
            "method": self.method,
            "conditional": self.conditional,
            "n_pairs": len(self.pair_results),
            "n_rules": self.n_rules,
            "compression_ratio": self.compression_ratio,
            "per_pair": {
                pair: {
                    "n_rules": result.n_rules,
                    "compression_ratio": result.compression_ratio,
                    "rows": self.pair_rows.get(pair, result.state.dataset.n_transactions),
                }
                for pair, result in self.pair_results.items()
            },
        }


class MultiViewTranslator:
    """Fit one two-view TRANSLATOR per view pair over shared packed bitsets.

    Parameters
    ----------
    k:
        Rules selected per iteration (``method="select"`` only).
    minsup:
        Absolute minimum support for candidate mining (``method="select"``;
        ``None`` tunes it automatically).
    max_candidates:
        Candidate budget per pair (``method="select"``).
    method:
        ``"select"`` (the default: TRANSLATOR-SELECT per pair, the
        paper's best compression/runtime trade-off) or ``"exact"``
        (TRANSLATOR-EXACT per pair).  Either is fed the shared packed
        columns.
    conditional:
        Score each pair residually given the transactions already covered
        by earlier pairs' rules (see the module docstring).  Off by
        default — the unconditional decomposition is the published score.
    max_iterations:
        Optional per-pair cap on the number of selection/search rounds.
    max_rule_size:
        Rule-size cap forwarded to the exact search (``method="exact"``).
    """

    def __init__(
        self,
        k: int = 1,
        minsup: int | None = None,
        max_candidates: int = 10_000,
        method: str = "select",
        conditional: bool = False,
        max_iterations: int | None = None,
        max_rule_size: int | None = None,
    ) -> None:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
        self.k = k
        self.minsup = minsup
        self.max_candidates = max_candidates
        self.method = method
        self.conditional = conditional
        self.max_iterations = max_iterations
        self.max_rule_size = max_rule_size

    # ------------------------------------------------------------------
    def _fit_pair(
        self, pair_data, cache: SearchCache | None = None
    ) -> TranslatorResult:
        """Fit one view pair, on pre-packed columns when ``cache`` is given."""
        if self.method == "exact":
            translator = TranslatorExact(
                max_iterations=self.max_iterations,
                max_rule_size=self.max_rule_size,
            )
        else:
            translator = TranslatorSelect(
                k=self.k,
                minsup=self.minsup,
                max_candidates=self.max_candidates,
                max_iterations=self.max_iterations,
            )
        return translator.fit(pair_data, cache=cache)

    def fit(self, dataset: MultiViewDataset) -> MultiViewResult:
        """Induce pairwise translation tables for all view pairs.

        The views are packed once up front; every unconditional pair fit
        reuses the shared columns and is bit-identical to a from-scratch
        two-view fit of that pair.
        """
        start = time.perf_counter()
        view_bits = [BitMatrix.from_bool_columns(view) for view in dataset.views]
        covered = np.zeros(dataset.n_transactions, dtype=bool)
        pair_results: dict[tuple[int, int], TranslatorResult] = {}
        pair_rows: dict[tuple[int, int], int] = {}
        for first, second in dataset.view_pairs():
            residual = None
            if self.conditional and covered.any():
                residual = np.flatnonzero(~covered)
                pair_rows[(first, second)] = int(residual.size)
                if residual.size == 0:
                    # Everything already explained by earlier pairs.
                    continue
                pair_data = dataset.pair(first, second).subset(
                    residual, name=f"{dataset.name}[{first}~{second}|residual]"
                )
                # The residual subset lives on a different transaction
                # universe; its (smaller) matrices are packed fresh.
                result = self._fit_pair(pair_data)
            else:
                pair_data = dataset.pair(first, second)
                pair_rows[(first, second)] = pair_data.n_transactions
                result = self._fit_pair(
                    pair_data,
                    SearchCache(
                        pair_data,
                        left_bits=view_bits[first],
                        right_bits=view_bits[second],
                    ),
                )
            pair_results[(first, second)] = result
            if self.conditional:
                fired = np.zeros(pair_data.n_transactions, dtype=bool)
                for rule in result.table:
                    fired |= pair_data.joint_support_mask(rule.lhs, rule.rhs)
                if residual is None:
                    covered |= fired
                else:
                    covered[residual[fired]] = True
        return MultiViewResult(
            dataset_name=dataset.name,
            pair_results=pair_results,
            runtime_seconds=time.perf_counter() - start,
            method=self.method,
            conditional=self.conditional,
            pair_rows=pair_rows,
        )
