"""Row sources feeding the maintenance loop.

Every source is an async iterable of ``(left_items, right_items)``
pairs — sparse item-index lists over the stream's two vocabularies.
Three transports cover the deployment shapes:

* :class:`FeedSource` — an in-process ``asyncio`` queue; tests and
  embedded producers push rows directly.
* :class:`JsonlSource` — a JSON-lines file or pipe, one transaction per
  line, either ``{"left": [...], "right": [...]}`` or a bare
  ``[[...], [...]]`` pair.  With ``follow=True`` the source tails the
  file (``tail -f`` style) instead of stopping at EOF.
* :class:`PackedSource` — a file of concatenated two-view binary frames
  (:mod:`repro.stream.codec`), for producers that already hold packed
  matrices; each frame may carry many rows.

Sources validate item indices against their vocabulary bounds so a
malformed producer fails loudly at the ingestion edge, not deep inside
a refit.
"""

from __future__ import annotations

import asyncio
import json
import operator
import os
from pathlib import Path

import numpy as np

__all__ = ["FeedSource", "JsonlSource", "PackedSource", "rows_to_matrix"]


def _item_index(item, where: str) -> int:
    """``item`` if it is a Python or numpy integer (the rule of every ingestion path)."""
    try:
        if isinstance(item, bool):
            raise TypeError
        return operator.index(item)
    except TypeError:
        raise ValueError(f"{where}: item {item!r} is not an integer item index") from None


def rows_to_matrix(rows, n_items: int) -> np.ndarray:
    """Sparse item-index lists to a dense ``(len(rows), n_items)`` matrix.

    Raises ``ValueError`` naming the row on an item that is not a
    Python or numpy integer (``bool``, ``float``, ``str``, ``None`` and
    containers are all rejected, never coerced) or that lies outside
    the vocabulary — the shared validation of every ingestion path.
    """
    matrix = np.zeros((len(rows), n_items), dtype=bool)
    for index, row in enumerate(rows):
        for item in row:
            item = _item_index(item, f"row {index}")
            if not 0 <= item < n_items:
                raise ValueError(
                    f"row {index}: item index {item} outside the vocabulary "
                    f"(0..{n_items - 1})"
                )
            matrix[index, item] = True
    return matrix


def _parse_jsonl_line(line: str) -> tuple[list[int], list[int]]:
    record = json.loads(line)
    if isinstance(record, dict):
        left, right = record.get("left"), record.get("right")
    elif isinstance(record, (list, tuple)) and len(record) == 2:
        left, right = record
    else:
        raise ValueError(
            'each JSONL line must be {"left": [...], "right": [...]} or a '
            "[left, right] pair"
        )
    if not isinstance(left, list) or not isinstance(right, list):
        raise ValueError("both views of a JSONL row must be item-index lists")
    return (
        [_item_index(item, "JSONL left view") for item in left],
        [_item_index(item, "JSONL right view") for item in right],
    )


class FeedSource:
    """In-process row feed backed by an ``asyncio.Queue``.

    Producers :meth:`put` rows (and finally :meth:`close`); the
    maintenance loop consumes the source until it drains.

    Example::

        source = FeedSource()
        await source.put([0, 2], [1])
        source.close()
    """

    _SENTINEL = object()

    def __init__(self, maxsize: int = 0) -> None:
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self._closed = False

    async def put(self, left_items, right_items) -> None:
        """Enqueue one transaction (two item-index lists)."""
        if self._closed:
            raise RuntimeError("cannot put rows into a closed FeedSource")
        await self._queue.put((list(left_items), list(right_items)))

    def put_nowait(self, left_items, right_items) -> None:
        """Synchronous :meth:`put` for non-async producers."""
        if self._closed:
            raise RuntimeError("cannot put rows into a closed FeedSource")
        self._queue.put_nowait((list(left_items), list(right_items)))

    def close(self) -> None:
        """Signal end of stream; pending rows still drain."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(self._SENTINEL)

    def __aiter__(self):
        return self

    async def __anext__(self):
        item = await self._queue.get()
        if item is self._SENTINEL:
            raise StopAsyncIteration
        return item


class JsonlSource:
    """Rows from a JSON-lines file, optionally tailing it forever.

    Args:
        path: The file to read (a growing log file works with
            ``follow=True``).
        follow: Keep polling for new lines at EOF instead of stopping;
            stop conditions are ``max_rows`` or :meth:`stop`.
        poll_interval: Seconds between EOF polls while following.
        max_rows: Optional hard row cap (applies with or without
            ``follow``).
        strict: With the default ``False``, a malformed line is skipped
            and counted in :attr:`malformed_rows` instead of killing the
            whole stream — one producer hiccup should not take down a
            maintenance loop mid-run.  Set ``True`` to fail loudly on
            the first bad line (the right mode for validating a file).

    Attributes
    ----------
    malformed_rows:
        Lines skipped so far in lenient mode (monotone across
        iterations; surfaced by the maintenance loop's stats).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        follow: bool = False,
        poll_interval: float = 0.05,
        max_rows: int | None = None,
        strict: bool = False,
    ) -> None:
        self.path = Path(path)
        self.follow = follow
        self.poll_interval = poll_interval
        self.max_rows = max_rows
        self.strict = strict
        self.malformed_rows = 0
        self._stopped = False

    def stop(self) -> None:
        """Make a following source finish after its current poll."""
        self._stopped = True

    async def __aiter__(self):
        emitted = 0
        pending = ""
        with self.path.open("r", encoding="utf-8") as stream:
            while True:
                chunk = stream.readline()
                if not chunk:
                    if not self.follow or self._stopped:
                        break
                    await asyncio.sleep(self.poll_interval)
                    continue
                pending += chunk
                if self.follow and not pending.endswith("\n"):
                    # The producer is mid-write: readline returned a
                    # partial line.  Buffer until the newline lands.
                    # (If stop() arrives first, the incomplete line is
                    # discarded — it was never fully produced.)
                    continue
                line, pending = pending, ""
                if not line.strip():
                    continue
                try:
                    row = _parse_jsonl_line(line)
                except (ValueError, TypeError):
                    if self.strict:
                        raise
                    self.malformed_rows += 1
                    continue
                yield row
                emitted += 1
                if self.max_rows is not None and emitted >= self.max_rows:
                    return


class PackedSource:
    """Rows from a file of concatenated two-view packed frames.

    Each frame (:func:`repro.stream.codec.encode_packed_rows` with a
    ``right=`` view) may carry many rows; the source flattens them back
    into per-transaction index pairs.
    """

    def __init__(self, path: str | os.PathLike, max_rows: int | None = None) -> None:
        self.path = Path(path)
        self.max_rows = max_rows

    async def __aiter__(self):
        from repro.stream.codec import read_frame

        emitted = 0
        # Frames are read one at a time, so only the current frame's
        # bytes (and matrices) are ever resident — a multi-GB stream
        # file costs one frame of memory, not its full size.
        with self.path.open("rb") as stream:
            while True:
                frame = read_frame(stream)
                if frame is None:
                    return
                __, left, right = frame
                if right is None:
                    raise ValueError(
                        "stream frames must carry both views "
                        "(encode with right=... / n_items_right)"
                    )
                for row in range(left.shape[0]):
                    yield (
                        np.flatnonzero(left[row]).tolist(),
                        np.flatnonzero(right[row]).tolist(),
                    )
                    emitted += 1
                    if self.max_rows is not None and emitted >= self.max_rows:
                        return
