"""Compiled TRANSLATE: the one implementation of Algorithm 1 on batches.

A rule fires on a transaction iff its antecedent is a subset of the
transaction, and the translated transaction is the union of the
consequents of every firing rule (paper, Algorithm 1; prediction on
unseen rows, Section 2.3, is the same contract).  This module
*compiles* a :class:`~repro.core.table.TranslationTable` for one
direction into two packed-bitset matrices (:mod:`repro.core.bitset`):

* an **antecedent matrix** — row ``r`` is rule ``r``'s antecedent
  itemset packed over the source vocabulary — and
* a **consequent matrix** — row ``r`` is rule ``r``'s consequent
  itemset packed over the target vocabulary.

:func:`repro.core.translate.translate_view` (hence ``corrections``,
``reconstruct`` and the clustering costs),
:func:`repro.core.predict.predict_view`, the prediction service and the
``compiled.bin`` sidecar writer all run through
:class:`CompiledPredictor`.  Two paths evaluate the contract over the
same compiled matrices, with bit-identical outputs:

* **blas** — the subset test as an exact count (rule ``r`` fires iff
  ``|t & ant_r| == |ant_r|``) and the union as a count too (item ``j``
  is predicted iff some firing rule emits it): two ``float32`` products
  of 0/1 operands.  Every value is an integer bounded by the source
  vocabulary or the rule count, so the results are exact while both
  stay at or below ``2**24``; compiling checks that bound and warns
  when it fails.
* **packed** — ``row & ant == ant`` and a weighted OR of consequent
  words directly on the packed words
  (:func:`repro.core.bitset.match_union_rows`): one fused pass in the C
  kernel of :mod:`repro.native` where it loads, numpy elsewhere.

:meth:`CompiledPredictor.predict` picks the path from what the
predictor can observe: packed when the blas bound fails, or when the
kernel loads and the antecedents span at least
:data:`_PACKED_MIN_ANT_WORDS` words; blas otherwise.  The batch's row
count does not enter.  The kernel is looked up when a wide model
predicts, never when a predictor is built, so compiling a table (as
publishing does) does not load it.  ``tests/test_serve.py`` checks
every path against the literal
:func:`repro.core.translate.translate_transaction`, and
``benchmarks/bench_serve.py`` re-checks them on its selection grid.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.bitset import (
    BitMatrix,
    match_union_rows,
    popcount_rows,
    unpack_rows,
)
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import Side

__all__ = ["CompiledPredictor", "rules_towards"]

#: Largest integer a float32 represents exactly; past it the blas
#: path's counts are no longer exact.
_FLOAT32_EXACT_MAX = 2**24

#: Antecedent width, in 64-bit words, from which the packed path runs
#: where the C kernel loads.  Read off the grid of ``BENCH_serve.json``
#: (2 vCPUs, ``OPENBLAS_NUM_THREADS=1``): blas is fastest on the 1- and
#: 2-word models (48 x 40, 256 x 96 items) at every row count from 1 to
#: 4,096; the 4-word model (128 x 256) is the crossover, where packed C
#: leads from 64 rows on and blas by at most 22 us at 1-8 rows (the
#: grid's one miss); packed C leads on the 8- and 32-word models
#: (128 x 512, 512 x 2,048) from 8 rows on.
_PACKED_MIN_ANT_WORDS = 4


def rules_towards(
    rules: Iterable[TranslationRule], target: Side
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(antecedent, consequent)`` of every rule firing towards ``target``.

    Rules with an empty antecedent are skipped with a warning: an empty
    itemset is contained in every transaction, so such a rule would
    fire on every row and silence real signal.
    """
    for rule in rules:
        if not rule.applies_towards(target):
            continue
        antecedent = tuple(rule.antecedent(target))
        if not antecedent:
            warnings.warn(
                f"skipping rule {rule!r}: empty antecedent towards "
                f"{target} would fire on every transaction",
                stacklevel=3,
            )
            continue
        yield antecedent, tuple(rule.consequent(target))


class CompiledPredictor:
    """A translation table compiled for batched one-way translation.

    Instances are immutable and safe to share across asyncio tasks and
    threads (all state is read-only numpy arrays), which is what the
    prediction server's micro-batcher relies on.  Build one with
    :meth:`from_table` (compile rules) or :meth:`from_mapped` (views
    into a ``compiled.bin`` sidecar); both end in the one initializer,
    which takes the packed matrices.

    Args:
        target: The view being predicted.
        antecedents: Packed antecedent itemsets, one row per rule, over
            the source vocabulary (``n_bits`` is its width).
        consequents: Packed consequent itemsets, one row per rule, over
            the target vocabulary.

    Example::

        >>> from repro import Side, TranslationRule, TranslationTable
        >>> from repro.core import CompiledPredictor
        >>> table = TranslationTable([TranslationRule((0,), (1,), "->")])
        >>> compiled = CompiledPredictor.from_table(table, Side.RIGHT, 2, 2)
        >>> compiled.predict([[True, False]]).tolist()
        [[False, True]]
    """

    __slots__ = (
        "target",
        "n_source_items",
        "n_target_items",
        "n_rules",
        "antecedents",
        "consequents",
        "blas_exact",
        "_ant_operand",
        "_ant_sizes",
        "_cons_operand",
    )

    def __init__(
        self, target: Side, antecedents: BitMatrix, consequents: BitMatrix
    ) -> None:
        if antecedents.n_items != consequents.n_items:
            raise ValueError("antecedents and consequents disagree on rule count")
        self.target = target
        self.n_source_items = antecedents.n_bits
        self.n_target_items = consequents.n_bits
        self.n_rules = antecedents.n_items
        #: Packed antecedent itemsets, one row per compiled rule.
        self.antecedents = antecedents
        #: Packed consequent itemsets, one row per compiled rule.
        self.consequents = consequents
        # The blas operands (0/1 float32 forms of the packed matrices)
        # are derived on first blas use — see _blas_operands — so a
        # predictor, in particular a zero-copy mapped one, never pays
        # for a path it may not run.
        self._ant_operand = None
        self._ant_sizes = None
        self._cons_operand = None
        # Every count blas compares is bounded by the source vocabulary
        # (match counts) or the rule count (emission counts).
        self.blas_exact = (
            self.n_source_items <= _FLOAT32_EXACT_MAX
            and self.n_rules <= _FLOAT32_EXACT_MAX
        )
        if not self.blas_exact:
            warnings.warn(
                f"compiled predictor has n_source_items={self.n_source_items}, "
                f"n_rules={self.n_rules}; counts past {_FLOAT32_EXACT_MAX} "
                f"(2**24) are not exact in float32, so it predicts on the "
                f"packed path",
                stacklevel=3,
            )

    @classmethod
    def from_table(
        cls,
        table: TranslationTable | Iterable[TranslationRule],
        target: Side,
        n_source_items: int,
        n_target_items: int,
    ) -> "CompiledPredictor":
        """Compile ``table`` for translating towards ``target``.

        Rules that do not fire towards ``target`` are dropped, and rules
        with an empty antecedent are skipped with a warning.
        """
        pairs = list(rules_towards(table, target))
        ant = np.zeros((len(pairs), int(n_source_items)), dtype=bool)
        cons = np.zeros((len(pairs), int(n_target_items)), dtype=bool)
        for index, (antecedent, consequent) in enumerate(pairs):
            ant[index, list(antecedent)] = True
            cons[index, list(consequent)] = True
        return cls(
            target, BitMatrix.from_bool_rows(ant), BitMatrix.from_bool_rows(cons)
        )

    @classmethod
    def from_mapped(cls, mapped, target: Side) -> "CompiledPredictor":
        """A predictor over a mapped binary artifact, zero-copy.

        ``mapped`` is a ``compiled.bin`` sidecar opened with
        ``map_artifact`` (a ``MappedArtifact``); the antecedent and
        consequent matrices become numpy views straight into its
        ``mmap`` buffer (``BitMatrix`` leaves an already-contiguous
        uint64 array untouched), so N server processes mapping the same
        sidecar share one page-cache copy of the compiled tables.  The
        sidecar stores exactly the matrices :meth:`from_table` produces
        (enforced by ``tests/test_binfmt.py``).
        """
        ant_words, cons_words = mapped.direction_sections(target)
        n_source, n_target = (
            (mapped.n_left, mapped.n_right)
            if target is Side.RIGHT
            else (mapped.n_right, mapped.n_left)
        )
        return cls(
            target, BitMatrix(ant_words, n_source), BitMatrix(cons_words, n_target)
        )

    # ------------------------------------------------------------------
    def predict(self, source_matrix: np.ndarray) -> np.ndarray:
        """Translate a batch of source-view rows.

        Returns a ``(n_rows, n_target_items)`` Boolean matrix: per row,
        the union of the consequents of every rule whose antecedent the
        row contains.
        """
        source_matrix = np.asarray(source_matrix, dtype=bool)
        if source_matrix.ndim != 2 or source_matrix.shape[1] != self.n_source_items:
            raise ValueError(
                f"source matrix must be (n, {self.n_source_items}), "
                f"got shape {source_matrix.shape}"
            )
        if self._runs_packed():
            return self._predict_packed(source_matrix)
        return self._predict_blas(source_matrix)

    def _runs_packed(self) -> bool:
        """The path selection: observables of the predictor, not the batch."""
        if not self.blas_exact:
            return True
        if self.antecedents.n_words < _PACKED_MIN_ANT_WORDS:
            return False
        from repro import native

        return native.available()

    def _predict_blas(self, source_matrix: np.ndarray) -> np.ndarray:
        ant_operand, ant_sizes, cons_operand = self._blas_operands()
        fired = (source_matrix.astype(np.float32) @ ant_operand) == ant_sizes
        return (fired.astype(np.float32) @ cons_operand) > 0

    def _predict_packed(self, source_matrix: np.ndarray) -> np.ndarray:
        rows = BitMatrix.from_bool_rows(source_matrix).words
        out = match_union_rows(rows, self.antecedents.words, self.consequents.words)
        return unpack_rows(out, self.n_target_items)

    def _blas_operands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise (once) the float32 blas operands from the packed matrices.

        Safe under the micro-batcher's worker threads: the computation
        is idempotent and the attribute stores are atomic, so a rare
        double materialisation costs time, not correctness.
        """
        if self._ant_operand is None:
            ant = unpack_rows(self.antecedents.words, self.n_source_items)
            cons = unpack_rows(self.consequents.words, self.n_target_items)
            self._cons_operand = np.ascontiguousarray(cons, dtype=np.float32)
            self._ant_sizes = popcount_rows(self.antecedents.words).astype(np.float32)
            self._ant_operand = np.ascontiguousarray(ant.T, dtype=np.float32)
        return self._ant_operand, self._ant_sizes, self._cons_operand

    def __repr__(self) -> str:
        return (
            f"CompiledPredictor(target={self.target}, rules={self.n_rules}, "
            f"{self.n_source_items}->{self.n_target_items} items)"
        )
