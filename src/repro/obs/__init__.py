"""Unified observability layer: metrics, tracing, engine profiling hooks.

Three pieces:

* :mod:`repro.obs.metrics` — dependency-free Counter/Gauge/Histogram
  registry with Prometheus text exposition (served at ``GET /metrics``
  by both :class:`~repro.serve.server.PredictionServer` and
  :class:`~repro.serve.router.ReplicaRouter`).
* :mod:`repro.obs.trace` — span contexts with ``X-Repro-Trace`` header
  propagation (router → replica → micro-batcher) and a JSONL exporter
  with size-capped rotation.
* the **instrument seam** in this module — :func:`instrument` installs
  an :class:`EngineInstruments` bundle as the module global
  :data:`ACTIVE`; engine hot paths (search, bitset kernels, stream
  buffer, maintenance loop, column store, supervisor) guard every hook
  with a single ``if obs.ACTIVE is not None`` attribute check, so the
  disabled cost is one load + comparison (``benchmarks/bench_obs.py``
  keeps that honest).

This module imports only the standard library — it sits below every
other ``repro`` subpackage and must never create an import cycle.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    METRICS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    REGISTRY,
    inject_label,
    merge_expositions,
    parse_exposition,
    render_registries,
    valid_metric_name,
)
from repro.obs.trace import (
    TRACE_HEADER,
    JsonlSpanExporter,
    Span,
    TraceContext,
    Tracer,
    format_trace_header,
    parse_trace_header,
)

# NOTE: the module global ``ACTIVE`` is deliberately not in __all__ —
# it is None whenever instrumentation is off; use ``active()`` to read
# it through a documented accessor.
__all__ = [
    "Counter",
    "EngineInstruments",
    "Gauge",
    "Histogram",
    "JsonlSpanExporter",
    "LATENCY_BUCKETS",
    "METRICS_CONTENT_TYPE",
    "MetricError",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "TRACE_HEADER",
    "TraceContext",
    "Tracer",
    "active",
    "format_trace_header",
    "inject_label",
    "instrument",
    "merge_expositions",
    "parse_exposition",
    "parse_trace_header",
    "render_registries",
    "scrape_registries",
    "valid_metric_name",
]


class EngineInstruments:
    """The engine-side metric bundle installed by :func:`instrument`.

    Creates every engine metric family on one registry up front, then
    exposes cheap recording helpers the hot paths call.  All helpers
    are safe to call from worker threads — the underlying metrics lock
    per-cell.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.tracer = tracer
        r = self.registry
        # core/search + translator
        self._search_runs = r.counter(
            "repro_search_runs_total",
            "Completed find_best_rule invocations.",
            labelnames=("backend",),
        )
        self._search_nodes = r.counter(
            "repro_search_nodes_total",
            "Search tree nodes by outcome (visited vs pruned by the rule upper bound).",
            labelnames=("outcome",),
        )
        self._search_evals = r.counter(
            "repro_search_evaluations_total",
            "Candidate evaluations by outcome (evaluated vs skipped by the quality upper bound).",
            labelnames=("outcome",),
        )
        self._search_seconds = r.histogram(
            "repro_search_seconds",
            "Wall-clock seconds per find_best_rule invocation.",
        )
        self._fit_seconds = r.histogram(
            "repro_fit_seconds",
            "Wall-clock seconds per translator fit.",
            labelnames=("method",),
        )
        self._fit_iterations = r.counter(
            "repro_fit_iterations_total",
            "Greedy cover iterations performed across translator fits.",
            labelnames=("method",),
        )
        # core/bitset
        self._bitset_dispatch = r.counter(
            "repro_bitset_dispatch_total",
            "Bitset batch-primitive dispatches by operation and backend.",
            labelnames=("op", "backend"),
        )
        # stream
        self._stream_rows = r.counter(
            "repro_stream_rows_total",
            "Stream buffer rows by operation (appended vs evicted).",
            labelnames=("op",),
        )
        self._stream_window = r.gauge(
            "repro_stream_window_rows",
            "Rows currently held in the stream buffer window.",
        )
        self._maintenance_events = r.counter(
            "repro_maintenance_events_total",
            "Maintenance loop events (check, drift, refit, publish).",
            labelnames=("event",),
        )
        self._maintenance_rows_seen = r.gauge(
            "repro_maintenance_rows_seen",
            "Rows consumed from the stream by the maintenance loop.",
        )
        # corpus
        self._corpus_blocks = r.counter(
            "repro_corpus_blocks_read_total",
            "Column-store blocks decoded from disk.",
        )
        self._corpus_bytes = r.counter(
            "repro_corpus_block_bytes_total",
            "Bytes of column-store block payload decoded from disk.",
        )
        self._corpus_pairs = r.counter(
            "repro_corpus_pair_candidates_total",
            "Pair candidates by outcome (scanned vs pruned by sketches).",
            labelnames=("outcome",),
        )
        # resilience
        self._supervisor_restarts = r.counter(
            "repro_supervisor_restarts_total",
            "Supervised task restarts.",
        )
        self._breaker_transitions = r.counter(
            "repro_breaker_transitions_total",
            "Circuit breaker state transitions (opened vs closed).",
            labelnames=("event",),
        )

    # -- recording helpers (one call each on instrumented hot paths) ----
    def observe_search(self, stats, seconds: float) -> None:
        """Record one completed search run from its ``SearchStats``."""
        backend = str(getattr(stats, "backend", "unknown"))
        self._search_runs.labels(backend=backend).inc()
        self._search_seconds.observe(seconds)
        visited = getattr(stats, "nodes_visited", 0)
        pruned = getattr(stats, "nodes_pruned_rub", 0)
        evaluated = getattr(stats, "evaluations", 0)
        skipped = getattr(stats, "evaluations_skipped_qub", 0)
        if visited:
            self._search_nodes.labels(outcome="visited").inc(visited)
        if pruned:
            self._search_nodes.labels(outcome="pruned_rub").inc(pruned)
        if evaluated:
            self._search_evals.labels(outcome="evaluated").inc(evaluated)
        if skipped:
            self._search_evals.labels(outcome="skipped_qub").inc(skipped)

    def observe_fit(self, method: str, seconds: float, iterations: int) -> None:
        """Record one translator fit: duration plus greedy iterations."""
        self._fit_seconds.labels(method=method).observe(seconds)
        if iterations:
            self._fit_iterations.labels(method=method).inc(iterations)

    def count_bitset(self, op: str, engine: str) -> None:
        """Count one bitset batch-primitive dispatch to ``engine``."""
        self._bitset_dispatch.labels(op=op, backend=engine).inc()

    def stream_append(self, rows: int, window: int) -> None:
        """Record rows appended to the stream buffer and the new window size."""
        if rows:
            self._stream_rows.labels(op="appended").inc(rows)
        self._stream_window.set(window)

    def stream_evict(self, rows: int, window: int) -> None:
        """Record rows evicted from the stream buffer and the new window size."""
        if rows:
            self._stream_rows.labels(op="evicted").inc(rows)
        self._stream_window.set(window)

    def maintenance_event(self, event: str, rows_seen: int | None = None) -> None:
        """Count one maintenance loop event (check/drift/refit/publish)."""
        self._maintenance_events.labels(event=event).inc()
        if rows_seen is not None:
            self._maintenance_rows_seen.set(rows_seen)

    def corpus_blocks(self, blocks: int, nbytes: int) -> None:
        """Count column-store blocks (and payload bytes) decoded."""
        if blocks:
            self._corpus_blocks.inc(blocks)
        if nbytes:
            self._corpus_bytes.inc(nbytes)

    def corpus_scan(self, scanned: int, pruned: int) -> None:
        """Count pair candidates scanned vs pruned by sketches."""
        if scanned:
            self._corpus_pairs.labels(outcome="scanned").inc(scanned)
        if pruned:
            self._corpus_pairs.labels(outcome="pruned").inc(pruned)

    def supervisor_restart(self) -> None:
        """Count one supervised-task restart."""
        self._supervisor_restarts.inc()

    def breaker_event(self, event: str) -> None:
        """Count one circuit breaker transition (``opened`` or ``closed``)."""
        self._breaker_transitions.labels(event=event).inc()


#: The installed instrument bundle, or ``None`` when observability is
#: off.  Hot paths read this once per call — the entire disabled-mode
#: cost of the layer.
ACTIVE: EngineInstruments | None = None

_INSTRUMENT_LOCK = threading.Lock()


def instrument(
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    enabled: bool = True,
) -> EngineInstruments | None:
    """Install (or clear) the process-wide engine instrumentation.

    With ``enabled=True`` builds an :class:`EngineInstruments` on
    ``registry`` (default: the process registry) and publishes it as
    :data:`ACTIVE`; with ``enabled=False`` clears :data:`ACTIVE` so the
    hooks cost a single attribute check again.  Returns the installed
    bundle (or ``None`` when disabling).
    """
    global ACTIVE
    with _INSTRUMENT_LOCK:
        if not enabled:
            ACTIVE = None
            return None
        ACTIVE = EngineInstruments(registry=registry, tracer=tracer)
        return ACTIVE


def active() -> EngineInstruments | None:
    """The currently installed instrument bundle (``None`` when disabled)."""
    return ACTIVE


def scrape_registries(registries: Iterable[MetricsRegistry]) -> str:
    """Render several registries as one scrape document (first name wins).

    Thin alias of :func:`repro.obs.metrics.render_registries` so serving
    code can build a ``/metrics`` body from its private registry plus
    the process default without importing the metrics module directly.
    """
    return render_registries(registries)
