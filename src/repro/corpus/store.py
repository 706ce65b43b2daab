"""Out-of-core packed column store (``RPROCOL1``).

The exact engine packs each item column into 64-bit transaction words
and runs fused AND+popcount over them — but it holds every word in RAM,
which caps it at benchmark scale.  This module moves the packed columns
to disk in a binary column file that is written once by an *ingest*
step and then streamed **word-block by word-block** through the same
numpy / native popcount kernels, so a discovery query's peak RSS is
O(block), not O(rows).

The file is the ``RPROCOL1`` schema (:data:`STORE`) of the one verified
container in :mod:`repro.resilience.container` (shared with the
``RPROBIN1`` serving sidecar and the window checkpoint), which owns the
prelude, the JSON header, the exact size, the section table and the
durable write.  What is particular to the store: the prelude digest
signs only the header, and every offset in the header counts from the
payload start ``P`` — because the payload is verified piecewise.

The payload is **block-major**: block ``b`` covers transactions
``[b*64*block_words, (b+1)*64*block_words)`` and stores the left view's
``(n_left, block_words)`` uint64 words followed by the right view's
``(n_right, block_words)`` words, contiguously, each block start
64-byte aligned; the sketch sections follow the last block.  A scan
touches one block at a time; a block is the unit of IO, of kernel
dispatch and of integrity checking — the header carries a SHA-256
digest *per block* (and per sketch section), so verification cost is
also O(block) and a truncated or bit-flipped file raises
:class:`~repro.resilience.container.ArtifactCorruptError` before a
single damaged word reaches a kernel.

The header additionally stores the **exact** per-column supports and
the engine's fixed-point scale (``quant_bits``, from the exact search's
own :func:`~repro.core.search.quantization_bits`), which
is what lets :mod:`repro.corpus.discover` compute MDL gains over the
store that are bit-identical to the in-RAM exact engine.  Ingest is
two-phase for exactly this reason: blocks are streamed to a temporary
payload first while supports and sketches accumulate, then — once the
final counts fix the code lengths — the temporary payload is re-read
block by block to compute the per-transaction bound maxima the scale
depends on, and the finished file is streamed through
:func:`~repro.resilience.container.durable_write`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro import obs as _obs

from repro.core.bitset import BitMatrix, and_popcount_rows, n_words_for
from repro.core.search import MAX_FRACTION_BITS, quantization_bits
from repro.data.dataset import TwoViewDataset
from repro.resilience.container import (
    MAX_DIM,
    Schema,
    align64,
    durable_write,
    frame,
    lay_out,
    open_container,
)
from repro.resilience.faults import fault_point

from .sketch import ColumnSketches, SketchBuilder

__all__ = [
    "STORE",
    "STORE_MAGIC",
    "STORE_VERSION",
    "ColumnStore",
    "ingest_chunks",
    "ingest_dataset",
]

#: Magic bytes identifying a packed column store file.
STORE_MAGIC = b"RPROCOL1"
#: Current store format version.
STORE_VERSION = 1

#: The store's container schema.
STORE = Schema(
    "column store", STORE_MAGIC, STORE_VERSION, ("uint64", "int64"),
    signs_payload=False, payload_offsets=True,
)

_WORD_BYTES = 8


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_list(value, length: int, check) -> bool:
    """Whether ``value`` is a JSON list of ``length`` items passing ``check``."""
    return isinstance(value, list) and len(value) == length and all(map(check, value))


def _weights_from_counts(counts: np.ndarray, n_transactions: int) -> np.ndarray:
    """Per-item code lengths from exact supports, zero for empty columns.

    Bit-for-bit the engine's empty-state weights: the same
    ``-log2(count / n)`` :class:`repro.core.encoding.CodeLengthModel`
    computes, with the infinite lengths of zero-support columns zeroed
    the way :class:`repro.core.state.CoverState` zeroes them.
    """
    counts = np.asarray(counts, dtype=np.int64).astype(float)
    with np.errstate(divide="ignore"):
        lengths = -np.log2(counts / float(n_transactions))
    return np.where(np.isfinite(lengths), lengths, 0.0)


class _BlockAccumulator:
    """Packs buffered Boolean rows into aligned word blocks on a temp file."""

    def __init__(self, stream, n_left: int, n_right: int, block_words: int) -> None:
        self.stream = stream
        self.n_left = n_left
        self.n_right = n_right
        self.block_words = block_words
        self.rows_per_block = 64 * block_words
        self.block_nbytes = (n_left + n_right) * block_words * _WORD_BYTES
        self.blocks: list[dict] = []
        self.offset = 0  # relative payload offset of the next byte

    def add_block(self, left_rows: np.ndarray, right_rows: np.ndarray) -> None:
        rows = left_rows.shape[0]
        words = np.zeros(
            (self.n_left + self.n_right, self.block_words), dtype=np.uint64
        )
        packed_width = n_words_for(rows)
        words[: self.n_left, :packed_width] = BitMatrix.from_bool_columns(
            left_rows
        ).words
        words[self.n_left :, :packed_width] = BitMatrix.from_bool_columns(
            right_rows
        ).words
        raw = words.tobytes()
        start = align64(self.offset)
        self.stream.write(bytes(start - self.offset) + raw)
        self.offset = start + len(raw)
        digest = hashlib.sha256(raw).hexdigest()
        self.blocks.append({"offset": start, "nbytes": len(raw), "digest": digest})


def ingest_chunks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    path: str | Path,
    *,
    n_transactions: int,
    n_left: int,
    n_right: int,
    left_names: list[str] | None = None,
    right_names: list[str] | None = None,
    name: str = "corpus",
    block_words: int = 128,
    sample_size: int = 2048,
    n_hashes: int = 8,
    seed: int = 0,
) -> str:
    """Stream ``(left, right)`` Boolean row chunks into a column store.

    ``chunks`` yields aligned pairs of ``(rows, n_left)`` / ``(rows,
    n_right)`` Boolean arrays covering the corpus top to bottom; the
    full corpus is never materialised — peak memory is O(chunk +
    block).  Two phases: chunks are packed into 64-byte-aligned word
    blocks on a temporary payload file while exact supports, the row
    sample and minhash signatures accumulate; the temporary payload is
    then re-read block by block to compute the per-transaction bound
    maxima that fix ``quant_bits`` (the engine-identical fixed-point
    scale), and the final file is written atomically.  Returns the
    header's SHA-256 hex digest.

    Example::

        >>> import numpy as np, tempfile, os
        >>> from repro.corpus import ColumnStore, ingest_chunks
        >>> rng = np.random.default_rng(0)
        >>> def chunks():
        ...     for _ in range(4):
        ...         yield rng.random((25, 3)) < 0.4, rng.random((25, 2)) < 0.4
        >>> path = os.path.join(tempfile.mkdtemp(), "corpus.col")
        >>> _ = ingest_chunks(chunks(), path, n_transactions=100,
        ...                   n_left=3, n_right=2, block_words=1)
        >>> ColumnStore(path).n_blocks
        2
    """
    path = Path(path)
    if n_transactions <= 0 or n_left <= 0 or n_right <= 0:
        raise ValueError("n_transactions, n_left and n_right must be positive")
    if max(n_transactions, n_left, n_right) > MAX_DIM:
        raise ValueError("corpus dimensions exceed the format limit")
    if block_words <= 0:
        raise ValueError("block_words must be positive")
    if n_transactions >= 2**31:
        raise ValueError("minhash sketches require n_transactions < 2**31")

    left_names = list(left_names or (f"L{i}" for i in range(n_left)))
    right_names = list(right_names or (f"R{i}" for i in range(n_right)))
    if len(left_names) != n_left or len(right_names) != n_right:
        raise ValueError("item name lists do not match the view widths")

    rows_per_block = 64 * block_words
    builder = SketchBuilder(
        n_transactions=n_transactions,
        n_left=n_left,
        n_right=n_right,
        sample_size=sample_size,
        n_hashes=n_hashes,
        seed=seed,
        rows_per_block=rows_per_block,
    )
    counts_left = np.zeros(n_left, dtype=np.int64)
    counts_right = np.zeros(n_right, dtype=np.int64)

    path.parent.mkdir(parents=True, exist_ok=True)
    payload_fd, payload_tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".ingest-", suffix=".payload"
    )
    try:
        with os.fdopen(payload_fd, "wb") as payload_stream:
            acc = _BlockAccumulator(payload_stream, n_left, n_right, block_words)
            pending_left: list[np.ndarray] = []
            pending_right: list[np.ndarray] = []
            pending_rows = 0
            seen_rows = 0

            def flush(final: bool) -> None:
                nonlocal pending_left, pending_right, pending_rows
                while pending_rows >= rows_per_block or (final and pending_rows):
                    left = (
                        pending_left[0]
                        if len(pending_left) == 1
                        else np.concatenate(pending_left)
                    )
                    right = (
                        pending_right[0]
                        if len(pending_right) == 1
                        else np.concatenate(pending_right)
                    )
                    take = min(rows_per_block, pending_rows)
                    acc.add_block(left[:take], right[:take])
                    pending_left = [left[take:]] if take < pending_rows else []
                    pending_right = [right[take:]] if take < pending_rows else []
                    pending_rows -= take

            for left_chunk, right_chunk in chunks:
                left_chunk = np.ascontiguousarray(left_chunk, dtype=bool)
                right_chunk = np.ascontiguousarray(right_chunk, dtype=bool)
                if (
                    left_chunk.ndim != 2
                    or right_chunk.ndim != 2
                    or left_chunk.shape[0] != right_chunk.shape[0]
                    or left_chunk.shape[1] != n_left
                    or right_chunk.shape[1] != n_right
                ):
                    raise ValueError(
                        "chunk shapes must be (rows, n_left) / (rows, n_right) "
                        "with matching row counts"
                    )
                rows = left_chunk.shape[0]
                if seen_rows + rows > n_transactions:
                    raise ValueError("chunks supply more rows than n_transactions")
                counts_left += left_chunk.sum(axis=0)
                counts_right += right_chunk.sum(axis=0)
                builder.update(seen_rows, left_chunk, right_chunk)
                seen_rows += rows
                pending_left.append(left_chunk)
                pending_right.append(right_chunk)
                pending_rows += rows
                flush(final=False)
            flush(final=True)
            if seen_rows != n_transactions:
                raise ValueError(
                    f"chunks supplied {seen_rows} rows, expected {n_transactions}"
                )
            payload_stream.flush()

        # Phase 2: the counts are final, so the code lengths are final —
        # re-read the packed blocks to compute the per-transaction bound
        # maxima the engine's fixed-point scale depends on.
        weights_left = _weights_from_counts(counts_left, n_transactions)
        weights_right = _weights_from_counts(counts_right, n_transactions)
        tub_max_left = 0.0
        tub_max_right = 0.0
        block_nbytes = acc.block_nbytes
        with open(payload_tmp, "rb") as payload_stream:
            for index, entry in enumerate(acc.blocks):
                payload_stream.seek(entry["offset"])
                raw = payload_stream.read(block_nbytes)
                words = np.frombuffer(raw, dtype=np.uint64).reshape(
                    n_left + n_right, block_words
                )
                lo = index * rows_per_block
                rows = min(rows_per_block, n_transactions - lo)
                left_bool = BitMatrix(
                    np.ascontiguousarray(words[:n_left, : n_words_for(rows)]), rows
                ).to_bool_columns()
                right_bool = BitMatrix(
                    np.ascontiguousarray(words[n_left:, : n_words_for(rows)]), rows
                ).to_bool_columns()
                tub_left = left_bool @ weights_left
                tub_right = right_bool @ weights_right
                if tub_left.size:
                    tub_max_left = max(tub_max_left, float(tub_left.max()))
                    tub_max_right = max(tub_max_right, float(tub_right.max()))
        tub_max = tub_max_left + tub_max_right
        bits = quantization_bits(tub_max, weights_left, weights_right, n_transactions)

        sketches = builder.finish()
        sections, section_pieces, payload_nbytes = lay_out(
            sketches.sections(), acc.offset, digests=True
        )

        header = {
            "format": STORE_MAGIC.decode("ascii"),
            "format_version": STORE_VERSION,
            "name": name,
            "n_transactions": n_transactions,
            "n_left": n_left,
            "n_right": n_right,
            "left_names": left_names,
            "right_names": right_names,
            "block_words": block_words,
            "rows_per_block": rows_per_block,
            "n_blocks": len(acc.blocks),
            "block_nbytes": block_nbytes,
            "payload_nbytes": payload_nbytes,
            "counts_left": [int(c) for c in counts_left],
            "counts_right": [int(c) for c in counts_right],
            "tub_max_left": tub_max_left,
            "tub_max_right": tub_max_right,
            "quant_bits": bits,
            "sketch": sketches.params(),
            "blocks": acc.blocks,
            "sections": sections,
        }
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")

        def payload() -> Iterator[bytes]:
            with open(payload_tmp, "rb") as payload_stream:
                while piece := payload_stream.read(1 << 20):
                    yield piece
            yield from section_pieces

        head = frame(STORE, encoded)
        durable_write(path, itertools.chain([head], payload()), site="corpus.store")
        return hashlib.sha256(encoded).hexdigest()
    finally:
        os.unlink(payload_tmp)


def ingest_dataset(
    dataset: TwoViewDataset,
    path: str | Path,
    *,
    chunk_rows: int = 8192,
    **kwargs,
) -> str:
    """Ingest an in-memory :class:`TwoViewDataset` into a column store.

    Convenience wrapper over :func:`ingest_chunks` — slices the dataset
    into ``chunk_rows``-row chunks so the write path is identical to a
    true streaming ingest.  Keyword arguments are forwarded (block
    size, sketch parameters, ...).  Returns the header digest.
    """

    def slices() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for lo in range(0, dataset.n_transactions, chunk_rows):
            hi = min(lo + chunk_rows, dataset.n_transactions)
            yield dataset.left[lo:hi], dataset.right[lo:hi]

    kwargs.setdefault("name", getattr(dataset, "name", "corpus") or "corpus")
    kwargs.setdefault("left_names", list(dataset.left_names))
    kwargs.setdefault("right_names", list(dataset.right_names))
    return ingest_chunks(
        slices(),
        path,
        n_transactions=dataset.n_transactions,
        n_left=dataset.n_left,
        n_right=dataset.n_right,
        **kwargs,
    )


class ColumnStore:
    """Read side of an ``RPROCOL1`` packed column file.

    Opening runs the container checks (prelude, the header's SHA-256,
    the exact file length, the section table) and the store's own header
    checks, so truncation or a forged header is caught before any scan.
    Block reads (:meth:`read_block`, :meth:`iter_blocks`) verify each
    block's own digest, so a bit-flip anywhere in the payload raises
    :class:`~repro.resilience.container.ArtifactCorruptError` rather than
    mis-decoding — and the check costs O(block), like the read itself.

    The store is the out-of-core counterpart of
    :class:`repro.core.search.SearchCache`: :meth:`pair_overlaps`
    streams exact co-occurrence counts through the fused popcount
    kernels one block at a time, and :meth:`left_bits` /
    :meth:`right_bits` can materialise the packed columns for an
    in-RAM :meth:`repro.core.TranslatorExact.fit` when the corpus fits.

    Example::

        >>> from repro import SyntheticSpec, generate_planted
        >>> from repro.corpus import ColumnStore, ingest_dataset
        >>> import tempfile, os
        >>> data, _ = generate_planted(SyntheticSpec(n_transactions=200))
        >>> path = os.path.join(tempfile.mkdtemp(), "demo.col")
        >>> _ = ingest_dataset(data, path, block_words=1)
        >>> store = ColumnStore(path)
        >>> (store.n_transactions, store.n_blocks)
        (200, 4)
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        fault_point("corpus.store.open")
        self._container = open_container(self.path, STORE)
        try:
            self._parse_header()
        except BaseException:
            self._container.close()
            raise
        self._sketches: ColumnSketches | None = None

    # -- header ---------------------------------------------------------
    def _parse_header(self) -> None:
        """The store's own header fields and block table."""
        container = self._container
        meta, corrupt = container.meta, container.corrupt
        header_int = container.header_int
        if meta.get("format") != STORE_MAGIC.decode("ascii"):
            raise corrupt("header format field mismatch")
        self.name = meta.get("name", "corpus")
        if not isinstance(self.name, str):
            raise corrupt(f"header field 'name' is {self.name!r}, not a string")
        self.n_transactions = header_int("n_transactions", minimum=1)
        self.n_left = header_int("n_left", minimum=1)
        self.n_right = header_int("n_right", minimum=1)
        self.block_words = header_int("block_words", minimum=1)
        self.quant_bits = header_int("quant_bits", maximum=MAX_FRACTION_BITS)
        self.rows_per_block = 64 * self.block_words
        self.n_blocks = -(-self.n_transactions // self.rows_per_block)
        n_items = self.n_left + self.n_right
        self.block_nbytes = n_items * self.block_words * _WORD_BYTES
        geometry = ("rows_per_block", "n_blocks", "block_nbytes")
        if list(map(meta.get, geometry)) != [getattr(self, key) for key in geometry]:
            raise corrupt("block geometry does not match n_transactions and the views")
        tub_max = [meta.get("tub_max_left"), meta.get("tub_max_right")]
        if not all(_is_number(value) and math.isfinite(value) for value in tub_max):
            raise corrupt(f"tub_max_left/tub_max_right are {tub_max}, not finite")
        self.tub_max_left, self.tub_max_right = map(float, tub_max)
        self._sketch_params = sketch = meta.get("sketch")
        if not isinstance(sketch, dict):
            raise corrupt(f"sketch parameters are {sketch!r}, not an object")
        header_int("seed", maximum=None, meta=sketch)
        header_int("sample_size", meta=sketch)
        header_int("n_hashes", meta=sketch)

        def is_count(value) -> bool:
            return _is_number(value, int) and 0 <= value <= self.n_transactions

        for side, width in (("left", self.n_left), ("right", self.n_right)):
            names, counts = meta.get(f"{side}_names"), meta.get(f"counts_{side}")
            if not _is_list(names, width, lambda name: isinstance(name, str)):
                raise corrupt("item name lists do not match the view widths")
            if not _is_list(counts, width, is_count):
                raise corrupt("support count tables do not match the views")
        self.left_names, self.right_names = meta["left_names"], meta["right_names"]
        self.counts_left = np.asarray(meta["counts_left"], dtype=np.int64)
        self.counts_right = np.asarray(meta["counts_right"], dtype=np.int64)

        blocks = meta.get("blocks")
        if not isinstance(blocks, list) or len(blocks) != self.n_blocks:
            raise corrupt("block table does not match n_blocks")
        self._payload_start = container.payload_start
        self._blocks = []
        for entry in blocks:
            if (
                not isinstance(entry, dict)
                or entry.get("nbytes") != self.block_nbytes
                or not isinstance(entry.get("digest"), str)
                or len(entry["digest"]) != 64
            ):
                raise corrupt("malformed block table entry")
            offset = header_int("offset", maximum=None, meta=entry)
            end = self._payload_start + offset + self.block_nbytes
            if offset % 64 or end > container.size:
                raise corrupt("block extends past the payload")
            self._blocks.append((offset, entry["digest"]))

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close the underlying file handle."""
        self._container.close()

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- block access ---------------------------------------------------
    def read_block(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """One verified block as ``(left_words, right_words)`` uint64 arrays.

        Shapes are ``(n_left, block_words)`` / ``(n_right, block_words)``;
        bit ``t`` of word ``w`` of row ``i`` is transaction
        ``block_lo + 64*w + t`` of item ``i``.  Raises
        :class:`~repro.resilience.container.ArtifactCorruptError` if the bytes
        on disk do not match the block's recorded SHA-256.
        """
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block {index} out of range (n_blocks={self.n_blocks})")
        offset, digest_hex = self._blocks[index]
        raw = self._container.pread(self._payload_start + offset, self.block_nbytes)
        raw = fault_point("corpus.store.block.bytes", data=raw)
        self._container.checked(raw, self.block_nbytes, digest_hex, f"block {index}")
        words = np.frombuffer(raw, dtype=np.uint64).reshape(
            self.n_left + self.n_right, self.block_words
        )
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.corpus_blocks(1, self.block_nbytes)
        return words[: self.n_left], words[self.n_left :]

    def iter_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield every verified block in transaction order (O(block) RSS)."""
        for index in range(self.n_blocks):
            yield self.read_block(index)

    def block_rows(self, index: int) -> int:
        """Number of live transactions in block ``index`` (last may be short)."""
        lo = index * self.rows_per_block
        return min(self.rows_per_block, self.n_transactions - lo)

    # -- scans ----------------------------------------------------------
    def pair_overlaps(self, left_items: np.ndarray, right_items: np.ndarray) -> np.ndarray:
        """Exact co-occurrence counts for item pairs, streamed block-wise.

        ``left_items`` / ``right_items`` are parallel index arrays; the
        result is the int64 count of transactions containing both items
        of each pair.  Each block is read, verified and popcounted
        through :func:`repro.core.bitset.and_popcount_rows` (the fused C
        kernel where it compiles, numpy otherwise), then dropped — peak
        memory is O(len(pairs) + block).
        """
        fault_point("corpus.store.scan")
        left_items = np.asarray(left_items, dtype=np.intp)
        right_items = np.asarray(right_items, dtype=np.intp)
        totals = np.zeros(len(left_items), dtype=np.int64)
        for left_words, right_words in self.iter_blocks():
            both = left_words[left_items] & right_words[right_items]
            totals += and_popcount_rows(both).astype(np.int64)
        return totals

    def column_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-column supports ``(counts_left, counts_right)``.

        These are stored in the header at ingest time (and are therefore
        free to read); :meth:`verify` recomputes them from the payload.
        """
        return self.counts_left.copy(), self.counts_right.copy()

    def verify(self) -> None:
        """Full integrity pass: layout, every block and section digest, supports.

        Checks that the blocks and sections tile the payload with only
        zero padding between them (the prelude digest signs only the
        header), then streams the whole payload once (still O(block)
        memory), checks each block and section digest, and recomputes
        the per-column supports, raising
        :class:`~repro.resilience.container.ArtifactCorruptError` on any
        disagreement with the header.
        """
        sections = self._container.sections
        start, nbytes = self._payload_start, self.block_nbytes
        self._container.check_layout(
            [(start + offset, nbytes) for offset, __ in self._blocks]
            + [(section.offset, section.nbytes) for section in sections.values()]
        )
        counts_left = np.zeros(self.n_left, dtype=np.int64)
        counts_right = np.zeros(self.n_right, dtype=np.int64)
        for left_words, right_words in self.iter_blocks():
            counts_left += and_popcount_rows(left_words).astype(np.int64)
            counts_right += and_popcount_rows(right_words).astype(np.int64)
        if not np.array_equal(counts_left, self.counts_left) or not np.array_equal(
            counts_right, self.counts_right
        ):
            raise self._container.corrupt("payload supports disagree with the header")
        for name in sections:
            self.section(name)

    # -- sketches -------------------------------------------------------
    def section(self, name: str) -> np.ndarray:
        """A verified sketch section as a numpy array (fresh copy)."""
        return self._container.read(name)

    def sketches(self) -> ColumnSketches:
        """The per-column sketches (cached after the first read)."""
        if self._sketches is None:
            self._sketches = ColumnSketches.from_store_sections(
                params=self._sketch_params,
                n_transactions=self.n_transactions,
                counts_left=self.counts_left,
                counts_right=self.counts_right,
                sample_rows=self.section("sample.rows"),
                sample_left=self.section("sample.left"),
                sample_right=self.section("sample.right"),
                minhash_left=self.section("minhash.left"),
                minhash_right=self.section("minhash.right"),
                block_counts_left=self.section("blockcounts.left"),
                block_counts_right=self.section("blockcounts.right"),
            )
        return self._sketches

    # -- materialisation ------------------------------------------------
    def _side_bits(self, left: bool) -> BitMatrix:
        n_items = self.n_left if left else self.n_right
        total_words = n_words_for(self.n_transactions)
        words = np.zeros((n_items, total_words), dtype=np.uint64)
        for index in range(self.n_blocks):
            left_words, right_words = self.read_block(index)
            source = left_words if left else right_words
            lo_word = index * self.block_words
            width = min(self.block_words, total_words - lo_word)
            words[:, lo_word : lo_word + width] = source[:, :width]
        return BitMatrix(words, self.n_transactions)

    def left_bits(self) -> BitMatrix:
        """All left-view packed columns as one in-RAM :class:`BitMatrix`.

        This is the deliberate exit from out-of-core mode — use it (via
        ``TranslatorExact.fit(store=...)``) when the corpus fits in RAM
        and a full multi-item search is wanted.
        """
        return self._side_bits(left=True)

    def right_bits(self) -> BitMatrix:
        """All right-view packed columns as one in-RAM :class:`BitMatrix`."""
        return self._side_bits(left=False)

    def to_dataset(self) -> TwoViewDataset:
        """Materialise the full corpus as an in-RAM :class:`TwoViewDataset`.

        Peak memory is O(rows x items) — the whole point of the store is
        to avoid this during discovery queries; it exists for the
        ``fit(store=...)`` path and for tests.
        """
        left = self.left_bits().to_bool_columns()
        right = self.right_bits().to_bool_columns()
        return TwoViewDataset(
            left=left,
            right=right,
            left_names=list(self.left_names),
            right_names=list(self.right_names),
            name=self.name,
        )
