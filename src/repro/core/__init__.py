"""The paper's contribution: translation models for Boolean two-view data.

* :mod:`~repro.core.rules` / :mod:`~repro.core.table` — translation rules
  ``X -> Y`` / ``X <- Y`` / ``X <-> Y`` and translation tables (Section 3).
* :mod:`~repro.core.translate` — the TRANSLATE scheme and correction
  tables providing lossless translation (Algorithm 1).
* :mod:`~repro.core.compiled` — :class:`CompiledPredictor`, the one
  batched implementation of TRANSLATE: a table compiled into packed
  antecedent/consequent matrices, behind ``translate_view``,
  ``predict_view`` and the prediction service.
* :mod:`~repro.core.encoding` — MDL encoded lengths: per-item Shannon
  codes, ``L(X|D)``, ``L(T)``, ``L(C|T)`` (Section 4).
* :mod:`~repro.core.state` — incremental cover state on packed rows with
  popcount rule gains Δ (Section 5.1).
* :mod:`~repro.core.bitset` — packed uint64 transaction-set kernel
  (packing, popcounts, batch primitives) shared by the search and the
  miners.
* :mod:`~repro.core.search` — exact best-rule search with the paper's
  ``tub`` / ``rub`` / ``qub`` pruning (Section 5.2) over packed bitsets,
  on the C kernel of :mod:`repro.native` wherever it compiles and on
  numpy otherwise.
* :mod:`~repro.core.translator` — TRANSLATOR-EXACT, TRANSLATOR-SELECT(k)
  and TRANSLATOR-GREEDY (Algorithms 2-3).
* :mod:`~repro.core.refined` — the "optimal" refined encoding used to
  verify the paper's Section 4.1 claim (diagnostic only).
"""

from repro.core.rules import Direction, TranslationRule
from repro.core.table import TranslationTable
from repro.core.encoding import CodeLengthModel
from repro.core.compiled import CompiledPredictor
from repro.core.translate import (
    CorrectionTables,
    corrections,
    reconstruct,
    translate_transaction,
    translate_view,
)
from repro.core.beam import TranslatorBeam
from repro.core.predict import (
    PredictionScores,
    holdout_evaluation,
    predict_view,
    prediction_scores,
)
from repro.core.pruning import PruneResult, prune_table
from repro.core.clustering import (
    ClusteringResult,
    cluster_two_view,
    select_k,
    transaction_bits,
)
from repro.core.refined import (
    RefinedEncodingReport,
    plugin_codelength,
    refined_lengths,
)
from repro.core.state import CoverState
from repro.core.bitset import BitMatrix
from repro.core.search import ExactRuleSearch, SearchCache, SearchStats
from repro.core.translator import (
    IterationRecord,
    TranslatorExact,
    TranslatorGreedy,
    TranslatorResult,
    TranslatorSelect,
)

__all__ = [
    "Direction",
    "TranslationRule",
    "TranslationTable",
    "CodeLengthModel",
    "CompiledPredictor",
    "CorrectionTables",
    "corrections",
    "reconstruct",
    "translate_transaction",
    "translate_view",
    "PredictionScores",
    "holdout_evaluation",
    "predict_view",
    "prediction_scores",
    "PruneResult",
    "prune_table",
    "ClusteringResult",
    "cluster_two_view",
    "select_k",
    "transaction_bits",
    "RefinedEncodingReport",
    "plugin_codelength",
    "refined_lengths",
    "CoverState",
    "BitMatrix",
    "ExactRuleSearch",
    "SearchCache",
    "SearchStats",
    "IterationRecord",
    "TranslatorBeam",
    "TranslatorExact",
    "TranslatorGreedy",
    "TranslatorResult",
    "TranslatorSelect",
]
