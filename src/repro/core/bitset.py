"""Packed-bitset kernel for transaction-set algebra.

Every miner and the exact rule search spend most of their time intersecting
*transaction sets* (which transactions contain an item / itemset) and
measuring the result — plain counts for supports, weighted sums for the
paper's ``tub``/``rub`` bounds.  The seed implementation stored those sets
as ``n_transactions``-length Boolean numpy arrays; this module packs them
into 64-bit words so a set intersection touches 64x less memory and a
support count is a handful of ``popcount`` instructions.

Word layout
-----------
A transaction set over ``n`` transactions is stored as ``ceil(n / 64)``
``uint64`` words.  Packing runs through ``np.packbits(..,
bitorder="little")`` on the *byte view* of the word array, and unpacking
reverses the identical byte view, so transaction ``t`` always lives at byte
``t // 8``, bit ``t % 8`` of the buffer regardless of platform endianness;
bitwise AND/OR/ANDNOT and popcount are bit-position agnostic, which makes
every operation in this module endian-safe.  Padding bits (positions ``n ..
64 * n_words``) are guaranteed zero by the packing helpers and preserved
zero by AND; OR/ANDNOT of two packed masks also keep the padding zero
because both operands have zero padding.

Popcount strategy
-----------------
``np.bitwise_count`` (numpy >= 2.0) is used when available; otherwise an
8-bit lookup table applied to the byte view of the words (one gather + sum
per 8 transactions).

The exact search (:mod:`repro.core.search`) needs bit-identical results
on both engines, which floating-point reductions cannot promise, so it
quantizes its weights to fixed-point integers (laid out by
:func:`fixed_weight_table` for both traversals) and relies on this module
only for the (exact) packing, bitwise and counting primitives; its numpy
traversal counts every word batch with :func:`popcount_rows`.

Engines
-------
Two batch primitives run on the fused C kernel of :mod:`repro.native`
wherever it compiles, and on the vectorised numpy paths of this module
otherwise: :func:`and_popcount_rows` (column-store scans) and
:func:`match_union_rows` (the packed TRANSLATE path of
:mod:`repro.core.compiled`).  The platform alone picks the engine, per
call: the kernel is compiled on demand with the system ``cc`` and
loaded via ctypes, and a machine without a compiler (or a process with
``REPRO_NATIVE_DISABLE=1``) silently takes the numpy path.
:func:`and_reduce_rows` and :func:`and_reduce_many_rows` are numpy
only.

Both engines are **bit-identical**: every primitive is exact integer
arithmetic (counts, word ops) whose result does not depend on the
evaluation order, enforced by the property tests in
``tests/test_native.py``.

Concurrency
-----------
Packed masks and :class:`BitMatrix` instances are immutable once built
(:meth:`BitMatrix.row` returns read-only views by convention), so they
are safe to share across the worker threads of the sharded search and
beam expansion (``n_jobs > 1``): every operation here allocates its
result instead of writing into an operand.  Build them once per fit —
the fit's :class:`repro.core.search.SearchCache`, owned by its
:class:`repro.core.state.CoverState`, holds them — and hand the same
instance to every shard.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro import obs as _obs

__all__ = [
    "WORD_BITS",
    "BitMatrix",
    "and_popcount_rows",
    "and_reduce_many_rows",
    "and_reduce_rows",
    "fixed_weight_table",
    "match_union_rows",
    "n_words_for",
    "pack_mask",
    "pack_rows_at",
    "shift_rows",
    "unpack_mask",
    "unpack_rows",
    "popcount",
    "popcount_rows",
]

WORD_BITS = 64
_WORD_BYTES = WORD_BITS // 8

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
# Fallback: population count of every byte value (applied to the byte view).
_POPCOUNT8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint64)


def n_words_for(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bit positions."""
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """Pack a 1-D Boolean mask into a ``uint64`` word array (padding zero)."""
    mask = np.ascontiguousarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError("mask must be 1-dimensional")
    words = n_words_for(mask.size)
    buffer = np.zeros(words * _WORD_BYTES, dtype=np.uint8)
    packed = np.packbits(mask, bitorder="little")
    buffer[: packed.size] = packed
    return buffer.view(np.uint64)


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack each row of a 2-D Boolean matrix into words (padding zero)."""
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    n_rows, n_bits = matrix.shape
    words = n_words_for(n_bits)
    buffer = np.zeros((n_rows, words * _WORD_BYTES), dtype=np.uint8)
    if n_bits:
        packed = np.packbits(matrix, axis=1, bitorder="little")
        buffer[:, : packed.shape[1]] = packed
    return buffer.view(np.uint64)


def pack_rows_at(matrix: np.ndarray, offset: int) -> np.ndarray:
    """Pack a ``(k, n_items)`` Boolean chunk at a bit ``offset`` of word 0.

    The streaming append primitive: transaction ``i`` of the chunk lands
    at bit position ``offset + i`` of item row ``j`` in the returned
    ``(n_items, n_words_for(offset + k))`` word array, and the first
    ``offset`` bit positions are zero.  ORing the first returned word
    into an existing buffer whose bits at and above ``offset`` are still
    zero — the tail word of an append-only buffer — therefore splices
    the chunk in exactly, touching only the tail words.

    Args:
        matrix: ``(k, n_items)`` Boolean chunk, one row per new
            transaction (the same orientation the dataset views use).
        offset: Bit position inside the first word where transaction 0
            goes; must be in ``[0, 64)``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if not 0 <= offset < WORD_BITS:
        raise ValueError(f"offset must be in [0, {WORD_BITS}), got {offset}")
    k, n_items = matrix.shape
    padded = np.zeros((n_items, offset + k), dtype=bool)
    padded[:, offset:] = matrix.T
    return _pack_rows(padded)


def shift_rows(words: np.ndarray, shift: int) -> np.ndarray:
    """Shift every row of a 2-D word array down by ``shift`` bit positions.

    Bit ``i + shift`` of the input becomes bit ``i`` of the output (the
    top ``shift`` bits of the last word fill with zeros).  This is the
    window-rotation primitive of the streaming buffer: extracting a
    window whose first live transaction sits mid-word is one
    ``shift_rows`` over the live words instead of a full repack.

    Args:
        words: ``(n_rows, n_words)`` word array.
        shift: Bit distance, in ``[0, 64)``.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("words must be 2-dimensional")
    if not 0 <= shift < WORD_BITS:
        raise ValueError(f"shift must be in [0, {WORD_BITS}), got {shift}")
    if shift == 0 or words.shape[1] == 0:
        return words.copy()
    out = words >> np.uint64(shift)
    out[:, :-1] |= words[:, 1:] << np.uint64(WORD_BITS - shift)
    return out


def unpack_mask(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_mask`: words back to a Boolean mask."""
    return unpack_rows(np.asarray(words)[None, :], n_bits)[0]


def unpack_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :meth:`BitMatrix.from_bool_rows`: a ``(n_rows, n_bits)`` Boolean matrix."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=n_bits, bitorder="little")
    return bits.view(bool)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a word array."""
    if words.size == 0:
        return 0
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT8[np.ascontiguousarray(words).view(np.uint8)].sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set-bit counts of a 2-D to 4-D word array, reduced over its last axis."""
    if words.size == 0:
        return np.zeros(words.shape[:-1], dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    byte_view = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT8[byte_view].sum(axis=-1, dtype=np.int64)


# ----------------------------------------------------------------------
# Batch primitives (the C kernel where it builds, numpy otherwise)
# ----------------------------------------------------------------------

# Rows per chunk for the numpy (batch, sets, words) broadcasts; bounds
# peak memory at ~chunk * n_sets * n_words * 8 B.
_CHUNK_ROWS = 1024


def _kernel():
    """The loaded C kernel, or ``None`` where it cannot be built."""
    from repro import native

    try:
        return native.load_kernel()
    except native.NativeBuildError:
        return None


def fixed_weight_table(weights: np.ndarray) -> np.ndarray:
    """Lay integer-valued weights out as a flat padded ``int64`` table.

    Entry ``64 * w + b`` weighs bit ``b`` of word ``w``, and the padding
    tail is zero.  The weights may arrive as integer-valued ``float64``
    (how the search carries its quantized code lengths); they are
    converted exactly.
    """
    weights = np.asarray(weights)
    if weights.ndim != 1:
        raise ValueError("weights must be 1-dimensional")
    table = np.zeros(n_words_for(weights.size) * WORD_BITS, dtype=np.int64)
    table[: weights.size] = weights.astype(np.int64)
    return table


def and_popcount_rows(rows: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Fused per-row ``popcount(rows[i] & mask)`` (``mask=None``: plain)."""
    kernel = _kernel()
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "and_popcount_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.and_popcount(rows, mask)
    return popcount_rows(rows if mask is None else rows & mask)


def match_union_rows(rows: np.ndarray, ant: np.ndarray, cons: np.ndarray) -> np.ndarray:
    """Fused subset test + consequent union (the packed TRANSLATE path).

    Row ``i`` of the result is the OR of ``cons[r]`` over every rule
    ``r`` whose packed antecedent ``ant[r]`` is a subset of ``rows[i]``
    (``rows[i] & ant[r] == ant[r]``) — one pass over the packed words in
    the C kernel, never materialising the intermediate fired matrix;
    the numpy path evaluates the subset test and the OR as chunked
    broadcasts.
    """
    kernel = _kernel()
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "match_union_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.match_union(rows, ant, cons)
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    ant = np.ascontiguousarray(ant, dtype=np.uint64)
    cons = np.ascontiguousarray(cons, dtype=np.uint64)
    out = np.zeros((rows.shape[0], cons.shape[1]), dtype=np.uint64)
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        conjunction = chunk[:, None, :] & ant[None, :, :]
        fired = (conjunction == ant[None, :, :]).all(axis=2)
        if fired.any():
            selected = np.where(fired[:, :, None], cons[None, :, :], np.uint64(0))
            out[start : start + _CHUNK_ROWS] = np.bitwise_or.reduce(selected, axis=1)
    return out


def and_reduce_many_rows(
    rows: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped AND-reduce + popcount over consecutive row groups.

    ``offsets`` is a monotonically increasing index array with
    ``offsets[0] == 0`` and ``offsets[-1] == n_rows``; group ``g``
    covers ``rows[offsets[g]:offsets[g + 1]]`` and must be non-empty.
    Returns ``(regions, counts)``: the per-group AND-reduced words and
    their populations.  One call updates every tracked itemset of a
    :class:`repro.stream.StreamBuffer` side, amortising the per-call
    overhead that per-itemset calls would pay on tiny word regions.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != rows.shape[0]:
        raise ValueError("offsets must run from 0 to n_rows")
    if offsets.size > 1 and (np.diff(offsets) < 1).any():
        raise ValueError("every offset group must be non-empty")
    if offsets.size == 1:
        return np.zeros((0, rows.shape[1]), dtype=np.uint64), np.zeros(
            0, dtype=np.int64
        )
    if rows.shape[1] == 0:
        regions = np.zeros((offsets.size - 1, 0), dtype=np.uint64)
    else:
        regions = np.bitwise_and.reduceat(rows, offsets[:-1], axis=0)
    return regions, popcount_rows(regions)


def and_reduce_rows(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """AND-reduce packed rows; returns ``(region, popcount(region))``.

    The streaming buffer's tracked-support primitive: the region is the
    packed support of an itemset over the word range covered by
    ``rows`` and the count is its population.  ``rows`` must have at
    least one row.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.shape[0] == 0:
        raise ValueError("and_reduce_rows needs at least one row")
    region = np.bitwise_and.reduce(rows, axis=0)
    return region, popcount(region)


class BitMatrix:
    """Transaction sets of many items as an ``(n_items, n_words)`` word array.

    Row ``i`` is the packed transaction set of item ``i``.  Built from the
    library's transaction-by-item Boolean matrices with
    :meth:`from_bool_columns` (one row per *column* of the input, matching
    how miners index items).
    """

    __slots__ = ("words", "n_bits")

    def __init__(self, words: np.ndarray, n_bits: int) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError("words must be 2-dimensional")
        if words.shape[1] != n_words_for(n_bits):
            raise ValueError("word count does not match n_bits")
        self.words = words
        self.n_bits = n_bits

    # ------------------------------------------------------------------
    @classmethod
    def from_bool_columns(cls, matrix: np.ndarray) -> "BitMatrix":
        """Pack each *column* of a ``(n_transactions, n_items)`` matrix."""
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        return cls(_pack_rows(matrix.T), matrix.shape[0])

    @classmethod
    def from_bool_rows(cls, matrix: np.ndarray) -> "BitMatrix":
        """Pack each *row* of a ``(n_items, n_transactions)`` matrix."""
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        return cls(_pack_rows(matrix), matrix.shape[1])

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return self.words.shape[0]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def row(self, item: int) -> np.ndarray:
        """Packed transaction set of one item (a view, do not mutate)."""
        return self.words[item]

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate over the packed per-item rows."""
        return iter(self.words)

    def __len__(self) -> int:
        return self.n_items

    def to_bool_columns(self) -> np.ndarray:
        """Unpack back to a ``(n_transactions, n_items)`` Boolean matrix."""
        return np.ascontiguousarray(unpack_rows(self.words, self.n_bits).T)

    # ------------------------------------------------------------------
    def support(self, items: Iterable[int]) -> np.ndarray:
        """Packed transaction set of an itemset (AND over its rows).

        An empty itemset returns the full universe, mirroring
        :meth:`repro.data.dataset.TwoViewDataset.support_mask`.
        """
        columns = list(items)
        if not columns:
            return pack_mask(np.ones(self.n_bits, dtype=bool))
        if len(columns) == 1:
            return self.words[columns[0]].copy()
        return np.bitwise_and.reduce(self.words[columns], axis=0)

    def counts(self) -> np.ndarray:
        """Per-item support counts."""
        return popcount_rows(self.words)
