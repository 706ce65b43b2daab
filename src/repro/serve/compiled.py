"""Compiled translation-table predictor.

The reference :func:`repro.core.predict.predict_view` walks the table
rule by rule in Python — fine for a handful of held-out evaluations,
hopeless for a prediction service that must answer batches of requests.
This module *compiles* a :class:`~repro.core.table.TranslationTable`
for one prediction direction into two packed-bitset matrices (reusing
:mod:`repro.core.bitset`):

* an **antecedent matrix** — row ``r`` is rule ``r``'s antecedent
  itemset packed over the source vocabulary — and
* a **consequent matrix** — row ``r`` is rule ``r``'s consequent
  itemset packed over the target vocabulary.

Prediction is then a handful of matrix ops instead of a per-rule loop:
rule ``r`` fires on transaction ``t`` iff the antecedent is a subset of
the transaction, and ``t``'s predicted target view is the union of the
consequents of its firing rules.  Two execution strategies implement
that contract over the same compiled matrices:

``"blas"`` (default)
    Express the subset test as an exact integer count — rule ``r``
    fires iff ``|t & ant_r| == |ant_r|`` — and the union as a count as
    well — item ``j`` is predicted iff some firing rule emits it.  Both
    are ``float32`` matrix products of 0/1 operands derived from the
    packed matrices at compile time; every value involved is a small
    integer (bounded by the vocabulary/rule count, far below the 2**24
    float32 integer limit), so the results are **exact**, not
    approximate.  This rides BLAS and dominates the micro-batch serving
    regime (1..512 rows per call, see ``BENCH_serve.json``).

``"packed"``
    Evaluate the same subset test directly on the packed words
    (``row & ant == ant``) and the union as a weighted OR of consequent
    words.  Touches 64x less memory per item than the dense paths — the
    right tool when vocabularies are wide and batches enormous — and
    doubles as the strategy-independent reference.  Where the C kernel
    of :mod:`repro.native` compiles, the whole bulk path is one fused
    subset-test + consequent-union pass
    (:func:`repro.core.bitset.match_union_rows`) that never materialises
    the fired matrix; elsewhere it runs on numpy.

The ``"blas"`` exactness contract holds while every count involved stays
at or below ``2**24`` (the largest integer float32 represents exactly).
Compilation guards this: a predictor whose source vocabulary or rule
count could exceed the bound warns once and routes ``"auto"`` to
``"packed"``; requesting ``"blas"`` explicitly on such a predictor
raises instead of silently returning approximate results.

``"auto"`` otherwise picks BLAS — except where the C kernel loads and
the fused packed path is the measured winner: wide compiled models
(``n_rules x n_ant_words`` past a threshold, 8-19x faster at every
batch size) and bulk-sized batches on any model.  The kernel is looked
up when a call dispatches, never when a predictor is built, so
compiling a table (as publishing does) does not load it.  The dispatch
is purely a throughput decision; all strategies are bit-identical.

Outputs of both strategies are **bit-identical** to the per-rule loop:
all three compute the same subset test and the same consequent union,
only the evaluation order and arithmetic carrier differ.  The
equivalence is enforced by ``tests/test_serve.py`` on synthetic and
``car``-derived tables and re-checked by ``benchmarks/bench_serve.py``
on every benchmark run.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable

import numpy as np

from repro.core.bitset import (
    BitMatrix,
    match_union_rows,
    popcount_rows,
    subset_match_rows,
    unpack_mask,
)
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import Side

__all__ = ["CompiledPredictor"]

#: Largest integer a float32 represents exactly; past it the blas
#: strategy's "exact float32" contract silently breaks.
_FLOAT32_EXACT_MAX = 2**24

#: ``strategy="auto"`` dispatch heuristic where the C kernel loads:
#: the fused packed path beats BLAS whenever the compiled model is wide
#: (``n_rules * n_ant_words`` at or above this — measured 8-19x there at
#: every batch size) ...
_NATIVE_PACKED_MIN_RULE_WORDS = 2048
#: ... or the batch is bulk-sized (measured parity-or-better from here
#: up even on narrow models).
_NATIVE_PACKED_MIN_ROWS = 256


def _unpack_rows(matrix: BitMatrix) -> np.ndarray:
    """Boolean ``(n_items, n_bits)`` form of a packed matrix's rows."""
    if matrix.n_items == 0 or matrix.n_bits == 0:
        return np.zeros((matrix.n_items, matrix.n_bits), dtype=bool)
    bits = np.unpackbits(
        np.ascontiguousarray(matrix.words).view(np.uint8),
        axis=1,
        bitorder="little",
    )
    return bits[:, : matrix.n_bits].astype(bool)


class CompiledPredictor:
    """A translation table compiled for fast batched one-way prediction.

    Instances are immutable and safe to share across asyncio tasks and
    threads (all state is read-only numpy arrays), which is what the
    prediction server's micro-batcher relies on.

    Args:
        target: The view being predicted (rules firing the other way
            are excluded at compile time).
        n_source_items: Width of incoming source-view matrices.
        n_target_items: Width of the predicted target-view matrices.
        rules: The rules to compile; only those firing towards
            ``target`` are kept, and rules with an empty antecedent are
            skipped with a warning (they would fire on every row).

    Example::

        >>> from repro import Side, TranslationRule, TranslationTable
        >>> from repro.serve import CompiledPredictor
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
        self,
        target: Side,
        n_source_items: int,
        n_target_items: int,
        rules: Iterable[TranslationRule],
    ) -> None:
        self.target = target
        self.n_source_items = int(n_source_items)
        self.n_target_items = int(n_target_items)
        ant_masks = []
        cons_masks = []
        for rule in rules:
            if not rule.applies_towards(target):
                continue
            antecedent = tuple(rule.antecedent(target))
            if not antecedent:
                warnings.warn(
                    f"skipping rule {rule!r}: empty antecedent towards "
                    f"{target} would fire on every transaction",
                    stacklevel=2,
                )
                continue
            ant_mask = np.zeros(self.n_source_items, dtype=bool)
            ant_mask[list(antecedent)] = True
            cons_mask = np.zeros(self.n_target_items, dtype=bool)
            cons_mask[list(rule.consequent(target))] = True
            ant_masks.append(ant_mask)
            cons_masks.append(cons_mask)
        self.n_rules = len(ant_masks)
        if self.n_rules:
            ant_bool = np.array(ant_masks)
            cons_bool = np.array(cons_masks)
        else:
            ant_bool = np.zeros((0, self.n_source_items), dtype=bool)
            cons_bool = np.zeros((0, self.n_target_items), dtype=bool)
        #: Packed antecedent itemsets, one row per compiled rule.
        self.antecedents = BitMatrix.from_bool_rows(ant_bool)
        #: Packed consequent itemsets, one row per compiled rule.
        self.consequents = BitMatrix.from_bool_rows(cons_bool)
        # BLAS operands (0/1 float32 forms of the packed matrices) are
        # derived lazily on first blas use — see _blas_operands — so
        # building a predictor, in particular a zero-copy mapped one,
        # never pays for a strategy it may not run.
        self._ant_operand = None
        self._ant_sizes = None
        self._cons_operand = None
        self._check_blas_exact()

    def _check_blas_exact(self) -> None:
        # Compile-time guard on the blas strategy's exactness contract:
        # every count it compares is bounded by the source vocabulary
        # (match counts) or the rule count (emission counts), so both
        # must stay within float32's exact-integer range.
        self.blas_exact = (
            self.n_source_items <= _FLOAT32_EXACT_MAX
            and self.n_rules <= _FLOAT32_EXACT_MAX
        )
        if not self.blas_exact:
            warnings.warn(
                f"compiled predictor has n_source_items={self.n_source_items}, "
                f"n_rules={self.n_rules}; counts past {_FLOAT32_EXACT_MAX} "
                f"(2**24) are not exact in float32, so strategy='auto' will "
                f"dispatch to 'packed' instead of 'blas'",
                stacklevel=3,
            )

    def _blas_operands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise (once) the float32 BLAS operands from the packed matrices.

        Unpacking reverses the exact byte layout the packing produced, so
        the operands are identical to the ones the eager constructor used
        to build.  Safe under the micro-batcher's worker threads: the
        computation is idempotent and the final attribute stores are
        atomic, so a rare double-materialisation costs time, not
        correctness.
        """
        if self._ant_operand is None:
            ant_bool = _unpack_rows(self.antecedents)
            cons_bool = _unpack_rows(self.consequents)
            sizes = popcount_rows(self.antecedents.words).astype(np.float32)
            self._cons_operand = np.ascontiguousarray(cons_bool, dtype=np.float32)
            self._ant_sizes = sizes
            self._ant_operand = np.ascontiguousarray(ant_bool.T, dtype=np.float32)
        return self._ant_operand, self._ant_sizes, self._cons_operand

    # ------------------------------------------------------------------
    @classmethod
    def from_mapped(
        cls,
        mapped,
        target: Side,
    ) -> "CompiledPredictor":
        """Construct a predictor over a mapped binary artifact, zero-copy.

        ``mapped`` is a :class:`repro.serve.binfmt.MappedArtifact`; the
        antecedent/consequent matrices become numpy views straight into
        its ``mmap`` buffer — no unpacking, no repacking, no allocation
        proportional to the model — so N server processes mapping the
        same published sidecar share one page-cache copy of the compiled
        tables.  The packed strategy runs directly on the views; the
        blas operands, if that strategy is ever selected, materialise
        lazily (a private copy, as they are a different carrier).

        Bit-identical to compiling the JSON artifact's table with
        :meth:`from_table`: the sidecar stores exactly the matrices that
        compilation produces (enforced by ``tests/test_binfmt.py``).
        """
        sections = mapped.direction_sections(target)
        obj = cls.__new__(cls)
        obj.target = target
        if target is Side.RIGHT:
            obj.n_source_items = mapped.n_left
            obj.n_target_items = mapped.n_right
        else:
            obj.n_source_items = mapped.n_right
            obj.n_target_items = mapped.n_left
        ant_words, cons_words = sections
        obj.n_rules = int(ant_words.shape[0])
        # BitMatrix leaves an already-contiguous uint64 array untouched,
        # so these wrap the mmap views without copying.
        obj.antecedents = BitMatrix(ant_words, obj.n_source_items)
        obj.consequents = BitMatrix(cons_words, obj.n_target_items)
        obj._ant_operand = None
        obj._ant_sizes = None
        obj._cons_operand = None
        obj._check_blas_exact()
        return obj

    @classmethod
    def from_table(
        cls,
        table: TranslationTable | Iterable[TranslationRule],
        target: Side,
        n_source_items: int,
        n_target_items: int,
    ) -> "CompiledPredictor":
        """Compile ``table`` for predicting ``target`` from the other view."""
        return cls(target, n_source_items, n_target_items, table)

    # ------------------------------------------------------------------
    def _resolve_strategy(self, strategy: str, n_rows: int = 0) -> str:
        """Normalise a strategy spec, enforcing the blas exactness guard.

        ``"auto"`` picks BLAS while its exactness guard holds — except
        where the C kernel loads and the fused packed path is the
        measured winner: wide compiled models (many rules x many
        antecedent words) at any batch size, and bulk batches on any
        model.  Every strategy returns bit-identical predictions, so the
        dispatch is purely a throughput decision.
        """
        if strategy == "auto":
            if not self.blas_exact:
                return "packed"
            if (
                self.n_rules * self.antecedents.n_words
                >= _NATIVE_PACKED_MIN_RULE_WORDS
                or n_rows >= _NATIVE_PACKED_MIN_ROWS
            ):
                from repro import native

                if native.available():
                    return "packed"
            return "blas"
        if strategy == "blas" and not self.blas_exact:
            raise ValueError(
                f"strategy 'blas' is not exact for this predictor "
                f"(n_source_items={self.n_source_items}, "
                f"n_rules={self.n_rules} exceed the float32 exact-integer "
                f"bound {_FLOAT32_EXACT_MAX}); use 'packed' or 'auto'"
            )
        if strategy not in ("blas", "packed"):
            raise ValueError(f"unknown strategy {strategy!r}")
        return strategy

    def _validated(self, source_matrix: np.ndarray) -> np.ndarray:
        source_matrix = np.asarray(source_matrix, dtype=bool)
        if source_matrix.ndim != 2 or source_matrix.shape[1] != self.n_source_items:
            raise ValueError(
                f"source matrix must be (n, {self.n_source_items}), "
                f"got shape {source_matrix.shape}"
            )
        return source_matrix

    def matches(
        self, source_matrix: np.ndarray, strategy: str = "auto"
    ) -> np.ndarray:
        """``(n_rows, n_rules)`` Boolean matrix of which rules fire where.

        Rule ``r`` fires on row ``t`` iff its antecedent is a subset of
        the transaction — computed either as an exact float32 count
        (``"blas"``) or as ``row & ant == ant`` on the packed words
        (``"packed"``); see :meth:`_resolve_strategy` for how ``"auto"``
        dispatches.
        """
        source_matrix = self._validated(source_matrix)
        strategy = self._resolve_strategy(strategy, source_matrix.shape[0])
        if strategy == "blas":
            ant_operand, ant_sizes, __ = self._blas_operands()
            counts = source_matrix.astype(np.float32) @ ant_operand
            return counts == ant_sizes
        rows = BitMatrix.from_bool_rows(source_matrix).words
        return subset_match_rows(rows, self.antecedents.words)

    def predict(
        self, source_matrix: np.ndarray, strategy: str = "auto"
    ) -> np.ndarray:
        """Predict the target view for a batch of source-view rows.

        Returns a ``(n_rows, n_target_items)`` Boolean matrix: the union
        of the consequents of every firing rule, exactly as the per-rule
        loop in :func:`repro.core.predict.predict_view` produces.
        """
        source_matrix = self._validated(source_matrix)
        strategy = self._resolve_strategy(strategy, source_matrix.shape[0])
        if strategy == "blas":
            fired = self.matches(source_matrix, strategy="blas")
            __, __, cons_operand = self._blas_operands()
            emitted = fired.astype(np.float32) @ cons_operand
            return emitted > 0
        n_rows = source_matrix.shape[0]
        rows = BitMatrix.from_bool_rows(source_matrix).words
        out_words = match_union_rows(
            rows, self.antecedents.words, self.consequents.words
        )
        if self.n_target_items == 0:
            return np.zeros((n_rows, 0), dtype=bool)
        bits = np.unpackbits(
            np.ascontiguousarray(out_words).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        return bits[:, : self.n_target_items].astype(bool)

    def predict_row(
        self, source_row: np.ndarray, strategy: str = "auto"
    ) -> np.ndarray:
        """Predict one source-view row; returns a 1-D Boolean array."""
        row = np.asarray(source_row, dtype=bool)
        return self.predict(row[None, :], strategy=strategy)[0]

    # ------------------------------------------------------------------
    def rule_masks(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Unpacked (antecedent, consequent) Boolean masks of one rule."""
        return (
            unpack_mask(self.antecedents.row(index), self.n_source_items),
            unpack_mask(self.consequents.row(index), self.n_target_items),
        )

    def __repr__(self) -> str:
        return (
            f"CompiledPredictor(target={self.target}, rules={self.n_rules}, "
            f"{self.n_source_items}->{self.n_target_items} items)"
        )
