"""Streaming ingestion and incremental model maintenance.

The ROADMAP's live-traffic story needs more than a fast server: data
arrives as a stream, and a translation table fitted on a static batch
goes stale as the cross-view association shifts.  This package closes
the loop from serving back to search, in four layers:

* :mod:`~repro.stream.buffer` — :class:`StreamBuffer`, a sliding/
  tumbling window that maintains the Boolean views **and** the packed
  uint64 bitset columns of :mod:`repro.core.bitset` incrementally
  (append packs only the word-tail, eviction rotates dead words out),
  plus tracked per-rule support counts in ``O(new words)``;
* :mod:`~repro.stream.drift` — :class:`DriftMonitor`, MDL scoring of
  the published table against the incoming window with a
  randomization-based significance test
  (:mod:`repro.eval.randomization`) and a refit-candidate staleness
  trigger;
* :mod:`~repro.stream.source` / :mod:`~repro.stream.codec` — row
  sources (in-process feed, JSONL tail, packed binary frames; the
  binary codec is shared with the server's ``/predict`` ingestion);
* :mod:`~repro.stream.maintenance` — :class:`MaintenanceLoop` +
  :class:`RefitPolicy`, the asyncio driver that refits through a
  translator's ``fit(dataset, cache=)`` (no repack — the buffer's
  packed columns are injected) and publishes into the PR 3
  :class:`~repro.serve.registry.ModelRegistry`, hot-swapping a running
  :class:`~repro.serve.server.PredictionServer` via the atomic
  ``latest`` pointer.

CLI: ``repro-translator stream``.  See ``docs/streaming.md`` for the
architecture and window semantics, and ``benchmarks/bench_stream.py``
(``BENCH_stream.json``) for the incremental-vs-repack numbers.
"""

from repro.stream.buffer import StreamBuffer, TrackedItemset
from repro.stream.codec import (
    PACKED_MAGIC,
    PACKED_VERSION,
    decode_packed_rows,
    encode_packed_rows,
    iter_packed_frames,
)
from repro.stream.drift import DriftMonitor, DriftReport, score_table
from repro.stream.maintenance import (
    MaintenanceEvent,
    MaintenanceLoop,
    RefitPolicy,
    fit_window,
)
from repro.stream.source import FeedSource, JsonlSource, PackedSource, rows_to_matrix

__all__ = [
    "PACKED_MAGIC",
    "PACKED_VERSION",
    "DriftMonitor",
    "DriftReport",
    "FeedSource",
    "JsonlSource",
    "MaintenanceEvent",
    "MaintenanceLoop",
    "PackedSource",
    "RefitPolicy",
    "StreamBuffer",
    "TrackedItemset",
    "decode_packed_rows",
    "encode_packed_rows",
    "fit_window",
    "iter_packed_frames",
    "rows_to_matrix",
    "score_table",
]
