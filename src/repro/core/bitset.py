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
per 8 transactions).  Weighted popcounts — ``sum(weights[t] for set bits
t)``, the generic primitive for ``tub @ supp`` style bounds — use
word-blocked accumulation: only the non-zero words are unpacked, and their
bits are folded against a ``(n_words, 64)`` padded weight table, so the
cost scales with the population rather than the universe.

Note that the exact search (:mod:`repro.core.search`) does *not* compute
its bounds through :func:`weighted_popcount`: it needs bit-identical
results across backends, which floating-point reductions cannot promise,
so it quantizes its weights to fixed-point integers (laid out by
:func:`fixed_weight_table` for its C traversal) and relies on this module
only for the (exact) packing, bitwise and counting primitives.  The
float-weighted helpers and the ``and/or/andnot`` row algebra are the
module's general-purpose surface for other consumers (and are exercised
directly by the property tests).

Backends
--------
The batch primitives that dominate the large-``n`` regimes —
:func:`and_popcount_rows`, :func:`subset_match_rows`,
:func:`or_union_rows`, :func:`match_union_rows`, :func:`and_reduce_rows`
— run on one of two interchangeable backends, selected per call (or per
consumer) with ``backend="numpy"|"native"|"auto"``:

* ``"numpy"`` — the reference vectorised paths in this module; always
  available.
* ``"native"`` — the fused C kernel of :mod:`repro.native`, compiled on
  demand with the system ``cc`` and loaded via ctypes; raises when no
  toolchain is available.
* ``"auto"`` — ``"native"`` when a kernel could be built, ``"numpy"``
  otherwise (the fallback is silent and automatic; set
  ``REPRO_BACKEND=numpy`` to pin the default, or
  ``REPRO_NATIVE_DISABLE=1`` to simulate a machine without a compiler).

Both backends are **bit-identical**: every primitive is exact integer
arithmetic (counts, fixed-point weighted sums, word ops) whose result
does not depend on the evaluation order, enforced by the property tests
in ``tests/test_native.py``.

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
    "BACKENDS",
    "WORD_BITS",
    "BitMatrix",
    "and_popcount_rows",
    "and_reduce_many_rows",
    "and_reduce_rows",
    "fixed_weight_table",
    "match_union_rows",
    "n_words_for",
    "native_kernel",
    "or_union_rows",
    "pack_mask",
    "pack_rows_at",
    "resolve_backend",
    "shift_rows",
    "subset_match_rows",
    "unpack_mask",
    "unpack_rows",
    "popcount",
    "popcount_rows",
    "weight_table",
    "weighted_popcount",
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
    """Per-row set-bit counts of a 2-D word array."""
    if words.size == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1).astype(np.int64)
    byte_view = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT8[byte_view].sum(axis=1).astype(np.int64)


def weight_table(weights: np.ndarray) -> np.ndarray:
    """Lay per-transaction weights out as a ``(n_words, 64)`` padded table.

    The table is the companion of a packed mask: word ``w`` of the mask
    selects within row ``w`` of the table, and the padding tail is zero so
    padded bit positions can never contribute.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise ValueError("weights must be 1-dimensional")
    words = n_words_for(weights.size)
    table = np.zeros((words, WORD_BITS), dtype=np.float64)
    table.reshape(-1)[: weights.size] = weights
    return table


def weighted_popcount(words: np.ndarray, table: np.ndarray) -> float:
    """``sum(weights[t] for set bits t)`` via word-blocked accumulation.

    ``table`` must come from :func:`weight_table` for the same universe
    size.  Only the non-zero words are unpacked and folded against their
    table rows, so sparse sets cost proportionally less.
    """
    if words.size != table.shape[0]:
        raise ValueError("words and weight table disagree on universe size")
    active = np.flatnonzero(words)
    if active.size == 0:
        return 0.0
    bits = np.unpackbits(
        np.ascontiguousarray(words[active]).view(np.uint8), bitorder="little"
    )
    return float(np.dot(bits.astype(np.float64), table[active].reshape(-1)))


# ----------------------------------------------------------------------
# Backend dispatch (numpy reference paths vs the native C kernel)
# ----------------------------------------------------------------------

BACKENDS = ("auto", "numpy", "native")

# Rows per chunk for the numpy (batch, sets, words) broadcasts; bounds
# peak memory at ~chunk * n_sets * n_words * 8 B.
_CHUNK_ROWS = 1024


def _native_available() -> bool:
    from repro import native

    return native.available()


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend spec to ``"numpy"`` or ``"native"``.

    ``"auto"`` resolves to ``"native"`` when the C kernel is (or can be)
    built for this process and to ``"numpy"`` otherwise — a missing
    toolchain never raises, which is the module's fallback contract.
    The ``REPRO_BACKEND`` environment variable pins what ``"auto"``
    prefers: ``numpy`` forces the reference paths, ``native`` insists on
    preferring the kernel (still falling back silently when it cannot be
    built), and any other value raises ``ValueError`` so a typo is never
    silently ignored.  An explicit ``backend="native"`` argument with no
    working toolchain raises ``RuntimeError`` carrying the build error.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        import os

        preferred = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if preferred and preferred not in ("auto", "numpy", "native"):
            raise ValueError(
                f"REPRO_BACKEND must be 'numpy', 'native' or 'auto', "
                f"got {os.environ['REPRO_BACKEND']!r}"
            )
        if preferred == "numpy":
            return "numpy"
        return "native" if _native_available() else "numpy"
    if backend == "native" and not _native_available():
        from repro import native

        raise RuntimeError(
            f"native backend requested but unavailable: {native.native_error()}"
        )
    return backend


def native_kernel(backend: str = "auto"):
    """Resolve ``backend`` to a loaded native kernel, or ``None`` for numpy."""
    if resolve_backend(backend) == "numpy":
        return None
    from repro import native

    return native.load_kernel()


def fixed_weight_table(weights: np.ndarray) -> np.ndarray:
    """Lay integer-valued weights out as a flat padded ``int64`` table.

    The fixed-point companion of :func:`weight_table`: entry ``64 * w + b``
    weighs bit ``b`` of word ``w``, and the padding tail is zero.  The
    weights may arrive as integer-valued ``float64`` (how the search
    carries its quantized code lengths); they are converted exactly.
    """
    weights = np.asarray(weights)
    if weights.ndim != 1:
        raise ValueError("weights must be 1-dimensional")
    table = np.zeros(n_words_for(weights.size) * WORD_BITS, dtype=np.int64)
    table[: weights.size] = weights.astype(np.int64)
    return table


def and_popcount_rows(
    rows: np.ndarray, mask: np.ndarray | None = None, backend: str = "auto"
) -> np.ndarray:
    """Fused per-row ``popcount(rows[i] & mask)`` (``mask=None``: plain)."""
    kernel = native_kernel(backend)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "and_popcount_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.and_popcount(rows, mask)
    return popcount_rows(rows if mask is None else rows & mask)


def subset_match_rows(
    rows: np.ndarray, sets: np.ndarray, backend: str = "auto"
) -> np.ndarray:
    """``(n_rows, n_sets)`` Boolean packed subset test.

    Entry ``(i, r)`` is true iff ``sets[r]`` is a subset of ``rows[i]``
    (``rows[i] & sets[r] == sets[r]``).  The native path early-exits per
    pair on the first disagreeing word; the numpy path evaluates the
    same test as a chunked broadcast.
    """
    kernel = native_kernel(backend)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "subset_match_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.subset_match(rows, sets)
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    sets = np.ascontiguousarray(sets, dtype=np.uint64)
    out = np.empty((rows.shape[0], sets.shape[0]), dtype=bool)
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        conjunction = chunk[:, None, :] & sets[None, :, :]
        out[start : start + _CHUNK_ROWS] = (
            conjunction == sets[None, :, :]
        ).all(axis=2)
    return out


def or_union_rows(
    fired: np.ndarray, cons: np.ndarray, backend: str = "auto"
) -> np.ndarray:
    """Weighted OR: per row, the union of the selected consequent rows.

    ``fired`` is a ``(n_rows, n_sets)`` Boolean selector and ``cons`` a
    ``(n_sets, n_words)`` packed matrix; row ``i`` of the result is the
    OR of the ``cons`` rows whose flag is set (zero words when none is).
    """
    kernel = native_kernel(backend)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "or_union_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.or_union(fired, cons)
    fired = np.asarray(fired, dtype=bool)
    cons = np.ascontiguousarray(cons, dtype=np.uint64)
    out = np.zeros((fired.shape[0], cons.shape[1]), dtype=np.uint64)
    for start in range(0, fired.shape[0], _CHUNK_ROWS):
        chunk = fired[start : start + _CHUNK_ROWS]
        if not chunk.any():
            continue
        selected = np.where(chunk[:, :, None], cons[None, :, :], np.uint64(0))
        out[start : start + _CHUNK_ROWS] = np.bitwise_or.reduce(selected, axis=1)
    return out


def match_union_rows(
    rows: np.ndarray,
    ant: np.ndarray,
    cons: np.ndarray,
    backend: str = "auto",
) -> np.ndarray:
    """Fused subset test + consequent union (the bulk predict primitive).

    Row ``i`` of the result is the OR of ``cons[r]`` over every rule
    ``r`` whose packed antecedent ``ant[r]`` is a subset of ``rows[i]``
    — one pass over the packed words on the native backend, never
    materialising the intermediate fired matrix.
    """
    kernel = native_kernel(backend)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "match_union_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.match_union(rows, ant, cons)
    return or_union_rows(
        subset_match_rows(rows, ant, backend="numpy"), cons, backend="numpy"
    )


def and_reduce_many_rows(
    rows: np.ndarray, offsets: np.ndarray, backend: str = "auto"
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped AND-reduce + popcount over consecutive row groups.

    ``offsets`` is a monotonically increasing index array with
    ``offsets[0] == 0`` and ``offsets[-1] == n_rows``; group ``g``
    covers ``rows[offsets[g]:offsets[g + 1]]`` and must be non-empty.
    Returns ``(regions, counts)``: the per-group AND-reduced words and
    their populations.  One call updates every tracked itemset of a
    :class:`repro.stream.StreamBuffer` side, amortising the dispatch
    overhead that per-itemset calls would pay on tiny word regions.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != rows.shape[0]:
        raise ValueError("offsets must run from 0 to n_rows")
    if offsets.size > 1 and (np.diff(offsets) < 1).any():
        raise ValueError("every offset group must be non-empty")
    kernel = native_kernel(backend)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "and_reduce_many_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.and_reduce_many(rows, offsets)
    if offsets.size == 1:
        return np.zeros((0, rows.shape[1]), dtype=np.uint64), np.zeros(
            0, dtype=np.int64
        )
    if rows.shape[1] == 0:
        regions = np.zeros((offsets.size - 1, 0), dtype=np.uint64)
    else:
        regions = np.bitwise_and.reduceat(rows, offsets[:-1], axis=0)
    return regions, popcount_rows(regions)


def and_reduce_rows(
    rows: np.ndarray, backend: str = "auto"
) -> tuple[np.ndarray, int]:
    """AND-reduce packed rows; returns ``(region, popcount(region))``.

    The streaming buffer's fused tracked-support update: the region is
    the packed support of an itemset over the word range covered by
    ``rows`` and the count is its population, computed in one pass on
    the native backend.  ``rows`` must have at least one row.
    """
    kernel = native_kernel(backend)
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.count_bitset(
            "and_reduce_rows", "native" if kernel is not None else "numpy"
        )
    if kernel is not None:
        return kernel.and_reduce(rows)
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
    # Vectorized set algebra
    # ------------------------------------------------------------------
    def and_mask(self, mask_words: np.ndarray) -> np.ndarray:
        """All rows intersected with one packed mask: ``rows & mask``."""
        return self.words & mask_words

    def or_mask(self, mask_words: np.ndarray) -> np.ndarray:
        """All rows united with one packed mask: ``rows | mask``."""
        return self.words | mask_words

    def andnot_mask(self, mask_words: np.ndarray) -> np.ndarray:
        """All rows minus one packed mask: ``rows & ~mask``.

        The complement is taken on the mask's words only, so the (zero)
        padding of the rows keeps the result's padding zero.
        """
        return self.words & ~mask_words

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
