"""Async micro-batching prediction server.

The serving story of the ROADMAP ("heavy traffic from millions of
users") needs more than a fast predictor: concurrent requests must be
*coalesced* so the compiled kernel sees large batches, identical
requests must be answered from memory, and operators need per-model
stats.  This module provides that as three composable layers, all on
the standard library only (``asyncio`` + a minimal HTTP/1.1 codec):

* :class:`LRUCache` — a bounded response cache keyed on
  ``(model, version, request hash)``;
* :class:`MicroBatcher` — per-``(model, version, target)`` lanes that
  collect concurrently arriving rows for up to ``max_delay_ms`` (or
  until ``max_batch`` rows) and run **one** predictor call for the
  whole batch, scattering the slices back to each waiter;
* :class:`PredictionService` — the transport-free application layer
  (request validation, model/predictor caches, stats) — this is what
  tests drive directly — wrapped by :class:`PredictionServer`, the
  socket layer, for real deployments and the
  ``repro-translator serve`` CLI.  The socket layer itself is
  :class:`HttpFront`, which the replica router
  (:mod:`repro.serve.router`) shares.

Endpoints::

    GET  /healthz   liveness + uptime
    GET  /readyz    readiness: ready / degraded / draining (503)
    POST /predict   {"model": .., "version": "latest"|int,
                     "target": "L"|"R", "rows": [[item index, ..], ..]}
    GET  /models    registry contents + per-model serving stats

``rows`` are sparse item-index lists over the source view's vocabulary;
responses mirror that shape for the predicted target view.  ``/predict``
alternatively accepts a **binary packed-bitset frame**
(:mod:`repro.stream.codec`, detected by its magic bytes) whose header
carries the request fields — the payload becomes the source matrix via
one vectorised unpack, skipping JSON entirely.

Fault tolerance (:mod:`repro.resilience`): client reads run under a
per-connection deadline (a stalled slow-loris sender gets 408, never a
pinned handler task); :meth:`PredictionServer.stop` *drains* — the
listener closes, in-flight requests finish within ``drain_timeout``,
late arrivals get 503 and ``/readyz`` reports the drain; registry
artifact loads sit behind a per-model
:class:`~repro.resilience.policy.CircuitBreaker` with **last-good
degradation** — when the registry turns up corrupt mid-serve, requests
keep being answered from the already-loaded model version, flagged
``stale``, instead of turning into 500s.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import time
from collections import OrderedDict
from collections.abc import Callable

import numpy as np

from repro import obs as _obs
from repro.core.compiled import CompiledPredictor
from repro.data.dataset import Side
from repro.resilience.faults import CrashPoint, fault_point
from repro.resilience.policy import CircuitBreaker, CircuitOpenError, Deadline
from repro.runtime.cache import content_key
from repro.serve.artifact import ArtifactError, ModelArtifact
from repro.serve.registry import ModelRegistry

__all__ = [
    "LRUCache",
    "MicroBatcher",
    "ModelStats",
    "PredictionServer",
    "PredictionService",
]

logger = logging.getLogger(__name__)


class LRUCache:
    """A bounded mapping evicting the least recently used entry.

    Args:
        capacity: Maximum number of entries; ``0`` disables caching.

    Example::

        >>> from repro.serve import LRUCache
        >>> cache = LRUCache(2)
        >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
        >>> cache.get("a") is None  # evicted
        True
        >>> cache.get("c")
        3
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[object, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: object) -> object | None:
        """Return the cached value or ``None``, refreshing recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: object, value: object) -> None:
        """Insert ``key``, evicting the oldest entry beyond capacity."""
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        """Membership test without touching recency or hit counters."""
        return key in self._entries

    def __setitem__(self, key: object, value: object) -> None:
        """Dict-style alias of :meth:`put`."""
        self.put(key, value)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()


class ModelStats:
    """Serving counters of one model (reported under ``/models``).

    The counters live in a :class:`repro.obs.MetricsRegistry` (one
    family per field, labelled by model) so the same numbers feed both
    the JSON payloads and the ``/metrics`` scrape — while the attribute
    API (``stats.requests += 1``, plain ``int`` reads, :meth:`as_dict`)
    stays exactly what the pre-registry dataclass exposed.
    """

    #: Field names in their (stable) JSON order; ``stale`` counts
    #: responses served from the last-good model version because the
    #: registry's current version could not be resolved or loaded.
    FIELDS = ("requests", "rows", "batches", "cache_hits", "errors", "stale")

    _HELP = {
        "requests": "Prediction requests received per model.",
        "rows": "Prediction rows received per model.",
        "batches": "Physical predictor batches run per model.",
        "cache_hits": "Responses answered from the response cache per model.",
        "errors": "Failed prediction requests per model.",
        "stale": "Responses served from a last-good (stale) model version.",
    }

    def __init__(
        self,
        model: str = "",
        registry: "_obs.MetricsRegistry | None" = None,
    ) -> None:
        if registry is None:
            registry = _obs.MetricsRegistry()
        self._cells = {
            field: registry.counter(
                f"repro_serve_model_{field}_total",
                self._HELP[field],
                labelnames=("model",),
            ).labels(model=model)
            for field in self.FIELDS
        }

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for JSON responses (stable field order)."""
        return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)}" for f in self.FIELDS)
        return f"ModelStats({fields})"


def _stats_field(field: str):
    """Property backing one :class:`ModelStats` field with its counter cell."""

    def _get(self) -> int:
        return int(self._cells[field].value)

    def _set(self, value) -> None:
        self._cells[field]._set_total(int(value))

    return property(_get, _set, doc=ModelStats._HELP[field])


for _field in ModelStats.FIELDS:
    setattr(ModelStats, _field, _stats_field(_field))
del _field


class _Lane:
    """Pending work of one ``(model, version, target)`` batching lane."""

    __slots__ = ("pending", "n_rows", "kick", "spans")

    def __init__(self) -> None:
        self.pending: list[tuple[np.ndarray, asyncio.Future]] = []
        self.n_rows = 0
        self.kick = asyncio.Event()
        #: Trace contexts of the traced requests riding this lane; the
        #: flush span links to the first one as its parent and records
        #: the rest, so one client request yields a connected span tree
        #: even when its rows execute inside a shared batch.
        self.spans: list[_obs.TraceContext] = []


class MicroBatcher:
    """Coalesce concurrent per-lane prediction requests into one call.

    The first request of a lane starts a flush task that waits up to
    ``max_delay_ms`` for company; requests arriving meanwhile append to
    the lane, and a lane reaching ``max_batch`` rows flushes right
    away.  The flush concatenates every pending row matrix, invokes the
    lane's runner **once**, and scatters the result slices back to the
    waiting futures — so ``n`` concurrent clients cost one compiled
    predictor call instead of ``n``.

    Args:
        max_batch: Row count that triggers an immediate flush.
        max_delay_ms: Longest time a request waits for batch company.
        tracer: Optional :class:`repro.obs.Tracer`; when set, each flush
            of a lane carrying traced requests emits a ``serve.flush``
            span parented to the first traced request.
    """

    def __init__(
        self,
        max_batch: int = 256,
        max_delay_ms: float = 2.0,
        tracer: "_obs.Tracer | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        self.max_delay_ms = max_delay_ms
        self.tracer = tracer
        self._lanes: dict[object, _Lane] = {}
        self._flush_tasks: set[asyncio.Task] = set()
        self.batches = 0
        self.batched_rows = 0

    async def submit(
        self,
        key: object,
        rows: np.ndarray,
        run: Callable[[np.ndarray], np.ndarray],
        trace: "_obs.TraceContext | None" = None,
    ) -> np.ndarray:
        """Queue ``rows`` on lane ``key``; resolves to their predictions.

        ``run`` maps a concatenated ``(n, n_source)`` matrix to the
        ``(n, n_target)`` prediction matrix; all submissions of one lane
        must pass an equivalent runner.  ``trace`` links this request's
        span into the flush's span tree.
        """
        loop = asyncio.get_running_loop()
        lane = self._lanes.get(key)
        future: asyncio.Future = loop.create_future()
        if lane is None:
            lane = _Lane()
            self._lanes[key] = lane
            lane.pending.append((rows, future))
            lane.n_rows += rows.shape[0]
            task = asyncio.ensure_future(self._flush_after_delay(key, lane, run))
            self._flush_tasks.add(task)
            task.add_done_callback(self._flush_tasks.discard)
        else:
            lane.pending.append((rows, future))
            lane.n_rows += rows.shape[0]
        if trace is not None:
            lane.spans.append(trace)
        if lane.n_rows >= self.max_batch:
            lane.kick.set()
        return await future

    def _detach(self, key: object, lane: _Lane) -> None:
        """Remove the lane mapping so late arrivals start a fresh batch."""
        if self._lanes.get(key) is lane:
            del self._lanes[key]

    async def _flush_after_delay(self, key: object, lane: _Lane, run) -> None:
        try:
            try:
                await asyncio.wait_for(
                    lane.kick.wait(), timeout=self.max_delay_ms / 1000.0
                )
            except asyncio.TimeoutError:
                pass
            self._detach(key, lane)
            pending = lane.pending
            if not pending:
                return
            batch = np.concatenate([rows for rows, __ in pending], axis=0)
            flush_span = None
            if self.tracer is not None and lane.spans:
                flush_span = self.tracer.span(
                    "serve.flush",
                    parent=lane.spans[0],
                    attributes={
                        "rows": int(batch.shape[0]),
                        "requests": len(pending),
                        "linked_spans": [
                            ctx.span_id for ctx in lane.spans[1:]
                        ],
                    },
                )
            try:
                predictions = await asyncio.to_thread(run, batch)
            finally:
                if flush_span is not None:
                    flush_span.finish()
        except asyncio.CancelledError:
            # Server shutdown: never swallow or re-wrap the cancellation
            # — detach the lane, hand every still-pending waiter a clean
            # CancelledError instead of a hang, and let it propagate so
            # the flush task really ends cancelled (asyncio's
            # bookkeeping depends on it).
            self._detach(key, lane)
            for __, future in lane.pending:
                if not future.done():
                    future.cancel()
            raise
        except Exception as error:
            # Runner/model failure: deliver the real error to every
            # waiter and end the flush normally.
            self._detach(key, lane)
            for __, future in lane.pending:
                if not future.done():
                    future.set_exception(error)
            return
        except BaseException as error:
            # KeyboardInterrupt/SystemExit: deliver it to the waiters so
            # none hangs, then propagate — it must not be swallowed into
            # a normal task completion.
            self._detach(key, lane)
            for __, future in lane.pending:
                if not future.done():
                    future.set_exception(error)
            raise
        self.batches += 1
        self.batched_rows += batch.shape[0]
        offset = 0
        for rows, future in pending:
            size = rows.shape[0]
            if not future.done():
                future.set_result(predictions[offset : offset + size])
            offset += size

    async def shutdown(self) -> None:
        """Cancel outstanding flush tasks; their waiters get a clean
        ``CancelledError`` rather than hanging on a dead event loop.

        The gather collects the children's cancellations/errors without
        raising, while a cancellation aimed at the *caller* (say a
        timeout around server teardown) still propagates out of the
        ``await`` — shutdown never swallows its own cancellation.
        """
        tasks = [task for task in self._flush_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


class PredictionService:
    """Transport-independent serving core: models, batching, caching, stats.

    Wraps a :class:`~repro.serve.registry.ModelRegistry` with lazily
    loaded artifacts, per-direction compiled predictors, a
    :class:`MicroBatcher` and an :class:`LRUCache` of responses keyed on
    ``(model, version, request hash)``.  :class:`PredictionServer` puts
    it on a socket; tests and benchmarks drive it directly via
    :meth:`predict` / :meth:`handle`.  Each compiled predictor picks its
    path from its own shape (:mod:`repro.core.compiled`): the narrow
    models it typically serves run blas, and models whose antecedents
    span many words run the packed path on the C kernel where it loads;
    the answers are bit-identical either way.

    Args:
        registry: Where models come from.
        max_batch, max_delay_ms: Micro-batcher knobs.
        cache_size: Response-cache capacity (``0`` disables it).
        max_predictors: How many compiled predictors (and, at twice
            this, loaded artifacts) stay resident, evicted LRU.  A
            long-running server behind a streaming maintenance loop
            sees an unbounded parade of published versions; without the
            bound, every one of them would stay compiled in memory.
        latest_ttl_seconds: How long a ``latest`` resolution may be
            served from memory before the registry directory is
            consulted again; bounds the hot-swap staleness window after
            a publish without putting O(versions) directory scans on
            every request (cache hits included).
        breaker_factory: Builds the per-model
            :class:`~repro.resilience.policy.CircuitBreaker` guarding
            registry artifact loads — after repeated load failures the
            registry directory is left alone for a cooldown and
            requests are answered from the last-good model (flagged
            ``stale``) instead of hammering a corrupt disk.
        metrics: The :class:`repro.obs.MetricsRegistry` backing this
            service's counters and the ``GET /metrics`` scrape.  Each
            service defaults to a private registry so replicas (and test
            fixtures) never share series.
        tracer: Optional :class:`repro.obs.Tracer`; when set, requests
            carrying an ``X-Repro-Trace`` header produce linked
            ``serve.predict`` / ``serve.flush`` spans.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 256,
        max_delay_ms: float = 2.0,
        cache_size: int = 1024,
        max_predictors: int = 32,
        latest_ttl_seconds: float = 1.0,
        breaker_factory: Callable[[], CircuitBreaker] | None = None,
        metrics: "_obs.MetricsRegistry | None" = None,
        tracer: "_obs.Tracer | None" = None,
    ) -> None:
        if max_predictors < 1:
            raise ValueError("max_predictors must be positive")
        self.registry = registry
        self.metrics = metrics if metrics is not None else _obs.MetricsRegistry()
        self.tracer = tracer
        self.batcher = MicroBatcher(
            max_batch=max_batch, max_delay_ms=max_delay_ms, tracer=tracer
        )
        self.response_cache = LRUCache(cache_size)
        self.stats: dict[str, ModelStats] = {}
        self.started_unix = time.time()
        self._request_seconds = self.metrics.histogram(
            "repro_serve_request_seconds",
            "Wall-clock seconds per HTTP request, by endpoint.",
            labelnames=("endpoint",),
        )
        self.metrics.gauge(
            "repro_serve_uptime_seconds", "Seconds since service start."
        ).set_function(lambda: time.time() - self.started_unix)
        self.metrics.gauge(
            "repro_serve_response_cache_entries",
            "Entries currently held in the response cache.",
        ).set_function(lambda: len(self.response_cache))
        self.latest_ttl_seconds = latest_ttl_seconds
        self._artifacts: LRUCache = LRUCache(2 * max_predictors)
        self._predictors: LRUCache = LRUCache(max_predictors)
        self._latest: dict[str, tuple[float, int]] = {}
        #: Set by the server when a graceful drain starts; /readyz then
        #: reports 503 so load balancers stop routing here.
        self.draining = False
        self._breaker_factory = breaker_factory or (
            lambda: CircuitBreaker(failure_threshold=3, reset_timeout=5.0)
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Last version of each model that loaded successfully — the
        #: degradation target when the registry turns up damaged.
        self._last_good: dict[str, int] = {}
        #: Models currently being served stale (cleared on recovery).
        self._degraded: set[str] = set()

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def artifact(self, name: str, version: int) -> ModelArtifact:
        """Load (and memoise, LRU-bounded) one published model version.

        Disk loads run behind the model's circuit breaker: repeated
        :class:`~repro.serve.artifact.ArtifactError` failures open it,
        and while it is open un-cached loads are refused with
        :class:`~repro.resilience.policy.CircuitOpenError` instead of
        re-reading a known-bad registry on every request.  Cached
        artifacts are always served — a broken disk never takes away a
        model that is already in memory.
        """
        key = (name, version)
        cached = self._artifacts.get(key)
        if cached is None:
            breaker = self._breaker(name)
            breaker.guard(f"artifact loads of model {name!r}")
            try:
                cached = self.registry.load(name, version)
            except ArtifactError:
                breaker.record_failure()
                raise
            except Exception:
                # Unknown version (KeyError) etc.: not a registry-health
                # signal, so it neither trips nor resets the breaker.
                raise
            breaker.record_success()
            self._artifacts.put(key, cached)
            self._last_good[name] = version
        return cached  # type: ignore[return-value]

    def _breaker(self, name: str) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers[name] = self._breaker_factory()
        return breaker

    def _serving_artifact(
        self, name: str, version: int
    ) -> tuple[ModelArtifact, int, bool]:
        """Resolve the artifact to answer with, degrading to last-good.

        Returns ``(artifact, version, stale)``.  When the requested
        version cannot be loaded (corrupt bytes, open breaker) but an
        earlier version of the model loaded fine before, that version
        answers instead and ``stale`` is ``True`` — the service keeps
        serving through registry damage rather than turning every
        request into a 500.
        """
        try:
            return self.artifact(name, version), version, False
        except (ArtifactError, CircuitOpenError):
            fallback = self._last_good.get(name)
            if fallback is None or fallback == version:
                raise
            artifact = self.artifact(name, fallback)
            return artifact, fallback, True

    def _note_degraded(self, name: str, stale: bool, stats: ModelStats) -> None:
        if stale:
            stats.stale += 1
            self._degraded.add(name)
        else:
            self._degraded.discard(name)

    def predictor(
        self, name: str, version: int, target: Side
    ) -> CompiledPredictor:
        """Compile (and memoise, LRU-bounded) one model version/direction.

        At most ``max_predictors`` compiled models stay resident; the
        least recently served version is dropped first, so a registry
        that accretes streaming refits doesn't grow the server's memory
        without bound (an evicted version recompiles on next use).
        """
        key = (name, version, target.value)
        cached = self._predictors.get(key)
        if cached is None:
            artifact = self.artifact(name, version)
            cached = self._mapped_predictor(artifact, name, version, target)
            if cached is None:
                n_source = (
                    artifact.n_left if target is Side.RIGHT else artifact.n_right
                )
                n_target = (
                    artifact.n_right if target is Side.RIGHT else artifact.n_left
                )
                cached = CompiledPredictor.from_table(
                    artifact.table, target, n_source, n_target
                )
            self._predictors.put(key, cached)
        return cached  # type: ignore[return-value]

    def _mapped_predictor(
        self, artifact: ModelArtifact, name: str, version: int, target: Side
    ) -> CompiledPredictor | None:
        """Try the zero-copy mmap path; ``None`` means fall back to JSON.

        A predictor mapped from the version's ``compiled.bin`` sidecar
        (:mod:`repro.serve.binfmt`) skips re-packing the JSON table, and
        every worker process on the machine shares one page-cache copy
        of the model.  The sidecar must verify (hash over every payload
        byte) *and* name the exact JSON artifact being served — a
        sidecar from a different publish can never answer for this
        version.  A missing or damaged sidecar falls back silently; the
        answers are bit-identical either way.
        """
        from repro.serve.binfmt import map_artifact

        path = self.registry.sidecar_path(name, version)
        try:
            mapped = map_artifact(path)
        except (ArtifactError, OSError):
            return None
        if mapped.artifact_hash != artifact.content_hash:
            mapped.close()
            return None
        # The numpy views keep the mapping referenced; the predictor is
        # valid for as long as the LRU holds it.
        return CompiledPredictor.from_mapped(mapped, target)

    def _stats_for(self, name: str) -> ModelStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = ModelStats(name, registry=self.metrics)
        return stats

    def _resolve_version(self, name: str, version) -> tuple[int, bool]:
        """Registry version resolution, memoised for the request hot path.

        Explicit versions already loaded are trusted (versions are
        immutable); ``latest`` is re-read from disk at most once per
        :attr:`latest_ttl_seconds` per model.  Returns ``(version,
        stale)`` — when a damaged ``LATEST`` pointer makes resolution
        raise :class:`~repro.serve.artifact.ArtifactError` but a
        last-good version is known, that version is returned with
        ``stale=True`` instead of failing the request.
        """
        if version is None or version == "latest":
            now = time.monotonic()
            cached = self._latest.get(name)
            if cached is not None and now - cached[0] < self.latest_ttl_seconds:
                return cached[1], False
            try:
                number = self.registry.latest_version(name)
            except ArtifactError:
                fallback = self._last_good.get(name)
                if fallback is None:
                    raise
                return fallback, True
            self._latest[name] = (now, number)
            return number, False
        number = int(version)
        if (name, number) in self._artifacts:
            return number, False
        return self.registry.resolve(name, number), False

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    async def predict(
        self, request: dict, trace: "_obs.TraceContext | None" = None
    ) -> dict:
        """Answer one ``/predict`` request body (already parsed).

        Raises ``ValueError`` for malformed requests and ``KeyError``
        for unknown models/versions; the HTTP layer maps those to 400
        and 404.  ``trace`` (parsed from ``X-Repro-Trace``) links the
        request's spans under the caller's trace.
        """
        if not isinstance(request, dict):
            raise ValueError("request body must be a JSON object")
        name, target, render = self._request_fields(request)
        rows = request.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows
        ):
            raise ValueError("'rows' must be a list of item-index lists")

        def matrix(n_source: int) -> np.ndarray:
            # Lazy import: repro.stream's package init reaches back into
            # repro.serve, so a module-level import here would cycle.
            from repro.stream.source import rows_to_matrix

            return rows_to_matrix(rows, n_source)

        key = (content_key({"target": target.value, "rows": rows}),)
        return await self._answer(
            name, request.get("version"), target, render, len(rows), key,
            matrix, trace,
        )

    async def predict_packed(
        self, body: bytes, trace: "_obs.TraceContext | None" = None
    ) -> dict:
        """Answer one binary packed-frame ``/predict`` request body.

        The body is a single-view frame from
        :func:`repro.stream.codec.encode_packed_rows` whose header
        carries the request fields (``model``, optional ``version``,
        ``target`` and ``render``, validated exactly like a JSON body);
        the payload bytes become the source matrix without any per-row
        Python work.  Responses are the same JSON documents the JSON
        path produces.
        """
        from repro.stream.codec import decode_packed_rows, frame_payload

        meta, packed, right = decode_packed_rows(body)
        if right is not None:
            raise ValueError("/predict expects a single-view packed frame")
        name, target, render = self._request_fields(meta)

        def matrix(n_source: int) -> np.ndarray:
            if packed.shape[1] != n_source:
                raise ValueError(
                    f"packed frame carries {packed.shape[1]} items, the "
                    f"source vocabulary has {n_source}"
                )
            return packed

        # Hash the wire payload (canonical packed words, 8x fewer bytes
        # than the unpacked matrix); the shape disambiguates frames whose
        # payloads happen to coincide.
        key = (
            "packed",
            target.value,
            packed.shape,
            hashlib.sha256(frame_payload(body)).hexdigest(),
        )
        return await self._answer(
            name, meta.get("version"), target, render, int(packed.shape[0]),
            key, matrix, trace,
        )

    @staticmethod
    def _request_fields(fields: dict) -> tuple[str, Side, bool]:
        """``(model, target, render)`` of a JSON body or packed-frame header."""
        name = fields.get("model")
        if not isinstance(name, str) or not name:
            raise ValueError("request must name a 'model'")
        render = fields.get("render", False)
        if not isinstance(render, bool):
            raise ValueError("'render' must be a boolean")
        return name, Side(str(fields.get("target", "R")).upper()), render

    async def _answer(
        self,
        name: str,
        version: object,
        target: Side,
        render: bool,
        n_rows: int,
        key: tuple,
        matrix: Callable[[int], np.ndarray],
        trace: "_obs.TraceContext | None",
    ) -> dict:
        """The ``/predict`` steps shared by JSON bodies and packed frames.

        ``key`` completes the response-cache key after ``(name,
        version)``; ``matrix(n_source)`` builds and validates the source
        matrix, and runs only on a cache miss.
        """
        version, stale = self._resolve_version(name, version)
        stats = self._stats_for(name)
        stats.requests += 1
        stats.rows += n_rows
        span = None
        if self.tracer is not None and trace is not None:
            span = self.tracer.span(
                "serve.predict",
                parent=trace,
                attributes={"model": name, "rows": n_rows},
            )
        try:
            artifact, version, load_stale = self._serving_artifact(name, version)
            stale = stale or load_stale
            self._note_degraded(name, stale, stats)
            cache_key = (name, version, *key)
            cached = self.response_cache.get(cache_key)
            if cached is not None:
                stats.cache_hits += 1
                response = {**cached, "cached": True}  # type: ignore[dict-item]
            else:
                n_source = (
                    artifact.n_left if target is Side.RIGHT else artifact.n_right
                )
                response = await self._predict_matrix(
                    name,
                    version,
                    target,
                    matrix(n_source),
                    stats,
                    cache_key,
                    trace=span.context if span is not None else None,
                )
            if stale:
                response["stale"] = True
            if render:
                self._attach_rendered(response, artifact, target)
            return response
        except asyncio.CancelledError:
            # Shutdown, not a model failure: propagate untouched and
            # uncounted (re-wrapping it would break task cancellation).
            raise
        except BaseException:
            stats.errors += 1
            raise
        finally:
            if span is not None:
                span.finish()

    @staticmethod
    def _attach_rendered(response: dict, artifact, target: Side) -> None:
        """Add ``"rendered"`` labels for the predicted target items.

        Uses the artifact's target-side :class:`~repro.data.schema.ViewSchema`
        to express predictions in original units (``age ∈ [30, 45)``),
        falling back to the bare vocabulary names for schema-less
        artifacts.  Rendering is a pure function of the predictions, so
        it is applied after the response cache: the cache key (and the
        cached document) are identical with or without ``render``.
        """
        schema = (
            artifact.right_schema if target is Side.RIGHT else artifact.left_schema
        )
        names = (
            artifact.right_names if target is Side.RIGHT else artifact.left_names
        )
        response["rendered"] = [
            [
                schema.label(item) if schema is not None else names[item]
                for item in row
            ]
            for row in response["predictions"]
        ]

    async def _predict_matrix(
        self,
        name: str,
        version: int,
        target: Side,
        matrix: np.ndarray,
        stats: ModelStats,
        cache_key: object,
        trace: "_obs.TraceContext | None" = None,
    ) -> dict:
        if matrix.shape[0]:
            run = self.predictor(name, version, target).predict

            def counted_run(batch: np.ndarray) -> np.ndarray:
                # Runs once per physical flush of this model's lane, so
                # per-model batch counts stay exact under concurrency.
                stats.batches += 1
                return run(batch)

            predictions = await self.batcher.submit(
                (name, version, target.value), matrix, counted_run, trace=trace
            )
        else:
            predictions = np.zeros((0, 0), dtype=bool)

        response = {
            "model": name,
            "version": version,
            "target": target.value,
            "predictions": [
                np.flatnonzero(prediction).tolist() for prediction in predictions
            ],
            "cached": False,
        }
        self.response_cache.put(cache_key, dict(response))
        return response

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def healthz_payload(self) -> dict:
        """Liveness document for ``GET /healthz``."""
        return {
            "status": "ok",
            "models": len(self.registry.models()),
            "uptime_seconds": round(time.time() - self.started_unix, 3),
        }

    def readyz_payload(self) -> dict:
        """Readiness document for ``GET /readyz``.

        Distinct from liveness: a *live* process may still be the wrong
        place to route traffic.  ``draining`` means a graceful stop is
        in progress (the endpoint returns 503 so load balancers eject
        this replica while in-flight requests finish); ``degraded``
        means requests are being answered from last-good model versions
        because the registry is damaged — still serving, but an
        operator should look.
        """
        degraded = sorted(self._degraded)
        if self.draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ready"
        return {
            "status": status,
            "draining": self.draining,
            "degraded_models": degraded,
            "breakers": {
                name: breaker.state for name, breaker in self._breakers.items()
            },
            "stale_responses": {
                name: stats.stale
                for name, stats in self.stats.items()
                if stats.stale
            },
        }

    def models_payload(self) -> dict:
        """Registry contents + serving stats for ``GET /models``."""
        rows = self.registry.describe()
        for row in rows:
            row["stats"] = self._stats_for(str(row["name"])).as_dict()
        return {
            "models": rows,
            "cache": {
                "size": len(self.response_cache),
                "capacity": self.response_cache.capacity,
                "hits": self.response_cache.hits,
                "misses": self.response_cache.misses,
            },
            "batcher": {
                "batches": self.batcher.batches,
                "batched_rows": self.batcher.batched_rows,
                "max_batch": self.batcher.max_batch,
                "max_delay_ms": self.batcher.max_delay_ms,
            },
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` exposition document.

        The service registry first (model counters, request latency),
        then the engine instrumentation registry (when installed) and
        the process default — deduplicated by family name, first wins.
        """
        registries = [self.metrics]
        inst = _obs.ACTIVE
        if inst is not None and all(inst.registry is not r for r in registries):
            registries.append(inst.registry)
        if all(_obs.REGISTRY is not r for r in registries):
            registries.append(_obs.REGISTRY)
        return _obs.render_registries(registries)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict | str]:
        """Route one request; returns ``(status, response payload)``.

        The payload is a JSON-able dict for every route except
        ``GET /metrics``, whose payload is the Prometheus text document
        (a ``str`` — the transport picks the content type off that).
        Every exception maps to a status here, so a client always gets
        a reply.
        """
        try:
            if method == "GET" and path == "/healthz":
                return 200, self.healthz_payload()
            if method == "GET" and path == "/readyz":
                payload = self.readyz_payload()
                return (503 if self.draining else 200), payload
            if method == "GET" and path == "/models":
                return 200, self.models_payload()
            if method == "GET" and path == "/metrics":
                return 200, self.metrics_text()
            if method == "POST" and path == "/predict":
                from repro.stream.codec import PACKED_MAGIC

                trace = None
                if headers:
                    trace = _obs.parse_trace_header(
                        headers.get(_obs.TRACE_HEADER.lower())
                    )
                if (body or b"").startswith(PACKED_MAGIC):
                    return 200, await self.predict_packed(body, trace=trace)
                try:
                    request = json.loads((body or b"").decode("utf-8") or "null")
                except ValueError:
                    return 400, {"error": "request body is not valid JSON"}
                # Untraced requests call predict(request) with one
                # argument: callers may replace predict with a
                # single-argument callable.
                if trace is not None:
                    return 200, await self.predict(request, trace=trace)
                return 200, await self.predict(request)
            return 404, {"error": f"no route {method} {path}"}
        except KeyError as error:
            return 404, {"error": str(error.args[0] if error.args else error)}
        except CircuitOpenError as error:
            # The registry is known-bad and no last-good fallback exists
            # for this model: tell the client to back off rather than
            # pretending the request itself was wrong.
            return 503, {"error": str(error)}
        except ArtifactError as error:
            # Before ValueError: ArtifactError subclasses it, and a corrupt
            # published model is a server-side problem, not a bad request.
            return 500, {"error": str(error)}
        except ValueError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # never leave a client without a reply
            return 500, {"error": f"{type(error).__name__}: {error}"}


class _RequestError(Exception):
    """A request failed before dispatch; carries the HTTP response."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(str(payload.get("error", "")))
        self.status = status
        self.payload = payload


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

#: Paths that get their own request-latency series; anything else is
#: bucketed under ``other`` so hostile path spam cannot mint series.
ENDPOINTS = ("/healthz", "/readyz", "/models", "/metrics", "/predict", "/statz")


def http_response_bytes(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    """One complete ``Connection: close`` response as raw bytes."""
    reason = _REASONS.get(status, "Internal Server Error")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode("ascii")
        + body
    )


class HttpFront:
    """The asyncio HTTP/1.1 socket layer of the server and the router.

    Each connection carries one request (``Connection: close``).  The
    front reads it under ``read_timeout``, hands it to
    :meth:`_handle_routed`, times that dispatch (not the socket I/O
    around it) into ``request_seconds`` by endpoint, and writes the
    reply: a ``dict`` as JSON, a ``str`` as the Prometheus text
    exposition, ``bytes`` (a replica's JSON body) unchanged.  Malformed
    requests get 400, oversized bodies 413, stalled senders 408 and
    requests arriving during a drain 503 before the application sees
    them.  :class:`PredictionServer` and
    :class:`~repro.serve.router.ReplicaRouter` are its applications.

    Args:
        request_seconds: Histogram labelled by ``endpoint``.
        host, port: Bind address; ``port=0`` picks a free port (read it
            back from :attr:`port` after :meth:`start`).
        read_timeout: Per-connection budget (seconds) for receiving the
            request line, headers and body.  A stalled (slow-loris)
            client gets a 408 and its connection back — it can never
            pin a handler task forever.
        drain_timeout: Default grace period :meth:`stop` gives
            in-flight requests before cancelling the stragglers.
        name: Identity in logs and the drain answer; chaos tests aim
            fault plans at ``serve.<name>.request``.
    """

    #: Largest accepted request body; protects the front from a client
    #: declaring an absurd Content-Length and streaming it.
    MAX_BODY_BYTES = 16 * 1024 * 1024

    def __init__(
        self,
        request_seconds: "_obs.Histogram",
        host: str,
        port: int,
        read_timeout: float,
        drain_timeout: float,
        name: str,
    ) -> None:
        if read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be non-negative")
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.name = name
        self._request_seconds = request_seconds
        self._server: asyncio.AbstractServer | None = None
        self._inflight: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._crashed = False

    async def _handle_routed(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str],
    ) -> tuple[int, dict | str | bytes]:
        """Answer one parsed request: ``(status, payload)``."""
        raise NotImplementedError

    def _set_draining(self, draining: bool) -> None:
        self._draining = draining

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._set_draining(False)
        self._crashed = False
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "%s listening on %s:%d",
            self.name,
            self.host,
            self.port,
            extra={"replica": self.name, "host": self.host, "port": self.port},
        )

    @property
    def inflight(self) -> int:
        """Connections currently being handled."""
        return len(self._inflight)

    @property
    def crashed(self) -> bool:
        """Whether an injected :class:`CrashPoint` killed this front."""
        return self._crashed

    async def stop(self, drain_timeout: float | None = None) -> dict:
        """Gracefully drain and close the listener.

        The listener closes first (no new connections), then every
        in-flight request gets up to ``drain_timeout`` seconds (default:
        the constructor's) to finish normally — their responses are
        written and their connections closed cleanly, never reset.
        Only stragglers still running at the deadline are cancelled.

        Returns a summary: ``{"inflight_at_stop", "completed",
        "cancelled"}``.
        """
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Flag the drain only after the listener is fully closed: every
        # task in _inflight was accepted before the drain and is owed a
        # real response; anything arriving later sees 503.
        self._set_draining(True)
        inflight_at_stop = len(self._inflight)
        deadline = Deadline(timeout)
        while self._inflight and not deadline.expired():
            await asyncio.wait(
                set(self._inflight),
                timeout=deadline.remaining() or 0.001,
                return_when=asyncio.ALL_COMPLETED,
            )
        stragglers = set(self._inflight)
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
        summary = {
            "inflight_at_stop": inflight_at_stop,
            "completed": inflight_at_stop - len(stragglers),
            "cancelled": len(stragglers),
        }
        logger.info(
            "%s drained: %d in flight, %d completed, %d cancelled",
            self.name,
            inflight_at_stop,
            summary["completed"],
            summary["cancelled"],
            extra={"replica": self.name, **summary},
        )
        return summary

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def _serve_until_signalled(self) -> None:
        """Serve until SIGINT/SIGTERM, then drain gracefully."""
        import signal

        if self._server is None:
            await self.start()
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        registered = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
                registered.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # pragma: no cover - platform without signal support
        try:
            if registered:
                await stop_requested.wait()
                await self.stop()
            else:  # pragma: no cover - platform without signal support
                await self.serve_forever()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)

    def run(self) -> None:
        """Blocking entry point used by ``repro-translator serve``.

        SIGINT/SIGTERM trigger a graceful :meth:`stop` — in-flight
        requests finish (up to ``drain_timeout``) before the process
        exits, so a rolling restart never resets client connections.
        """
        try:
            asyncio.run(self._serve_until_signalled())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
        self._writers.add(writer)
        try:
            try:
                status, payload = await self._handle_one(reader)
            except CrashPoint:
                # An injected crash models kill -9 at replica scope: no
                # response, no goodbye — every open connection is reset
                # and the listener vanishes.  The exception stops here
                # (the "process" that died is this front, not the test
                # harness hosting it).
                self._die()
                return
            if isinstance(payload, bytes):
                # A replica's JSON body, relayed by the router unchanged.
                body, content_type = payload, "application/json"
            elif isinstance(payload, str):
                # /metrics: the payload already is the wire document.
                body = payload.encode("utf-8")
                content_type = _obs.METRICS_CONTENT_TYPE
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
            writer.write(http_response_bytes(status, body, content_type))
            try:
                await writer.drain()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:  # pragma: no cover - client went away
                    pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._inflight.discard(task)

    def _die(self) -> None:
        """Simulate a hard replica death (chaos testing only).

        Mirrors what ``kill -9`` does to a worker process: the listener
        disappears mid-accept and every established connection — the
        one that hit the crash *and* any concurrent in-flight neighbour
        — is reset without a response.  The router above must observe
        connection resets/refusals, never a torn HTTP payload.
        """
        self._crashed = True
        if self._server is not None:
            self._server.close()
            self._server = None
        current = asyncio.current_task()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()
        for task in list(self._inflight):
            if task is not current:
                task.cancel()

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict | str | bytes]:
        if self._draining:
            # Connections are normally all accepted before stop() closes
            # the listener; this guard covers the pathological handler
            # task that first runs after the drain flag went up.
            return 503, {"error": f"{self.name} is draining"}
        # Chaos hook: fault plans target one front by name, e.g.
        # plan("serve.w2.request", kind="crash") kills w2 mid-batch.
        fault_point(f"serve.{self.name}.request")
        try:
            method, path, body, headers = await asyncio.wait_for(
                read_http_request(reader, self.MAX_BODY_BYTES), self.read_timeout
            )
        except asyncio.TimeoutError:
            return 408, {
                "error": (
                    f"request not received within {self.read_timeout:g}s"
                )
            }
        except _RequestError as error:
            return error.status, error.payload
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            return 400, {"error": "malformed HTTP request"}
        endpoint = path if path in ENDPOINTS else "other"
        started = time.perf_counter()
        try:
            return await self._handle_routed(method, path, body, headers)
        finally:
            self._request_seconds.labels(endpoint=endpoint).observe(
                time.perf_counter() - started
            )


class PredictionServer(HttpFront):
    """Socket layer: the :class:`HttpFront` of a :class:`PredictionService`.

    Args:
        service: The :class:`PredictionService` to expose; its
            ``repro_serve_request_seconds`` histogram times the requests.
        host, port, read_timeout, drain_timeout, name: As for
            :class:`HttpFront`; the router names its workers ``w1..wN``.

    Example::

        server = PredictionServer(PredictionService(registry), port=8100)
        server.run()   # blocks; SIGINT/SIGTERM drain gracefully
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 8100,
        read_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        name: str = "server",
    ) -> None:
        super().__init__(
            service._request_seconds, host, port, read_timeout, drain_timeout, name
        )
        self.service = service

    def _set_draining(self, draining: bool) -> None:
        # /readyz reports the drain with a 503, so load balancers stop
        # routing here while in-flight requests finish.
        self._draining = self.service.draining = draining

    async def stop(self, drain_timeout: float | None = None) -> dict:
        """Drain as :meth:`HttpFront.stop` does, then shut down the
        micro-batcher's outstanding flushes so no waiter hangs on a dead
        event loop."""
        summary = await super().stop(drain_timeout)
        await self.service.batcher.shutdown()
        return summary

    async def _handle_routed(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str],
    ) -> tuple[int, dict | str]:
        return await self.service.handle(method, path, body, headers)


async def read_http_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> tuple[str, str, bytes, dict[str, str]]:
    """Parse one HTTP/1.1 request: ``(method, path, body, headers)``.

    Header names come back lower-cased (last value wins).  Raises
    :class:`_RequestError` carrying the HTTP response for protocol
    violations; :class:`HttpFront` bounds the read time.
    """
    request_line = (await reader.readline()).decode("ascii", "replace").strip()
    parts = request_line.split()
    if len(parts) < 2:
        raise _RequestError(
            400, {"error": f"malformed request line {request_line!r}"}
        )
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    headers: dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("ascii", "replace")
        if line in ("\r\n", "\n", ""):
            break
        header, _, value = line.partition(":")
        header = header.strip().lower()
        headers[header] = value.strip()
        if header == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise _RequestError(400, {"error": "invalid Content-Length"})
    if content_length > max_body_bytes:
        raise _RequestError(
            413,
            {"error": f"request body exceeds {max_body_bytes} bytes"},
        )
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body, headers
