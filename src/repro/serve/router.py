"""Replica router: the horizontal front tier over N prediction workers.

One :class:`~repro.serve.server.PredictionServer` is a single asyncio
process; the ROADMAP's "heavy traffic" story needs N of them behind one
address.  :class:`ReplicaRouter` is that address — the same
:class:`~repro.serve.server.HttpFront` as a worker (so malformed, slow
and oversized requests and the drain are answered exactly alike) over
a pool of :class:`Replica` workers (in-process servers for tests,
spawned OS processes for deployments; both just ``host:port`` to the
router), giving them the collective behaviours a single worker cannot
have:

* **Least-loaded fan-out** — ``POST /predict`` (JSON *and* packed
  bodies: the body is forwarded verbatim, the router never parses it)
  goes to the admitted replica with the fewest in-flight requests.
* **Ejection and re-admission** — each replica sits behind its own
  :class:`~repro.resilience.policy.CircuitBreaker`: connection
  failures eject it (breaker opens), the breaker's reset timeout is
  the capped backoff, and a successful half-open probe (from the
  background health loop or a live request) re-admits it.
* **Rerouting** — a request that hits a dead or draining replica is
  transparently retried on another; the client sees one clean
  response or an honest 503, never a torn payload (responses with a
  body shorter than their ``Content-Length`` are treated as transport
  failures and rerouted).
* **Drain-and-swap rollout** — :meth:`ReplicaRouter.rolling_swap`
  replaces the pool one replica at a time: spawn successor, probe it
  healthy, admit it, stop routing to the predecessor, wait out its
  in-flight work, stop it.  Combined with the registry's atomic
  ``latest`` pointer (workers resolve it per request, bounded by
  their ``latest_ttl_seconds``) this rolls a new model or a new
  binary out with zero dropped requests;
  :meth:`ReplicaRouter.check_rollout` triggers the swap automatically
  when the registry's ``latest`` pointers move.

Endpoints::

    GET  /healthz   router liveness + pool size
    GET  /readyz    ready / degraded (someone ejected) / 503 (nobody)
    GET  /statz     per-model ModelStats summed across replicas,
                    plus per-replica health and router counters
    GET  /metrics   Prometheus text: router series + every admitted
                    replica's scrape relabelled with replica="wN"
    GET  /models    forwarded to one admitted replica
    POST /predict   forwarded least-loaded, rerouted on failure

Chaos coverage lives in ``tests/test_router.py``: a replica killed
mid-batch (via :mod:`repro.resilience.faults`) loses its in-flight
connections, the router reroutes them and ``/readyz`` walks through
``degraded`` and back as the breaker re-admits the restarted worker.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from collections.abc import Awaitable, Callable

from repro import obs as _obs
from repro.resilience.policy import CircuitBreaker, Deadline
from repro.serve.registry import ModelRegistry
from repro.serve.server import HttpFront, PredictionServer, PredictionService

__all__ = [
    "Replica",
    "ReplicaRouter",
    "local_replica_factory",
    "process_replica_factory",
]

logger = logging.getLogger(__name__)

#: Transport-level failures that mean "this replica did not answer" —
#: rerouted to another replica, never surfaced to the client.
_TRANSPORT_ERRORS = (
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    OSError,
)


class Replica:
    """One prediction worker as the router sees it.

    The router does not care how the worker runs — in-process asyncio
    server, forked process, remote box — only that it answers HTTP on
    ``host:port`` and can be stopped via the optional async ``stop``
    callback (used by drain-and-swap).  Health is tracked by a
    dedicated :class:`~repro.resilience.policy.CircuitBreaker` that
    ejects after 2 consecutive failures and begins probing for
    re-admission 0.5s later; a factory may replace :attr:`breaker`:

    ========== =====================================================
    state      meaning
    ========== =====================================================
    healthy    breaker closed; takes traffic
    ejected    breaker open; skipped until the reset timeout passes
    probation  breaker half-open; one probe request may re-admit it
    draining   being swapped out; finishes in-flight work only
    ========== =====================================================
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        stop: Callable[[], Awaitable[object]] | None = None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.stop = stop
        self.breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.5)
        self.inflight = 0
        self.requests = 0
        self.errors = 0
        self.draining = False

    @property
    def state(self) -> str:
        """``healthy`` / ``ejected`` / ``probation`` / ``draining``."""
        if self.draining:
            return "draining"
        return {
            CircuitBreaker.CLOSED: "healthy",
            CircuitBreaker.OPEN: "ejected",
            CircuitBreaker.HALF_OPEN: "probation",
        }[self.breaker.state]

    def describe(self) -> dict:
        """One ``/statz`` row for this replica."""
        return {
            "name": self.name,
            "address": f"{self.host}:{self.port}",
            "state": self.state,
            "inflight": self.inflight,
            "requests": self.requests,
            "errors": self.errors,
        }

    def __repr__(self) -> str:
        return f"Replica({self.name!r}, {self.host}:{self.port}, {self.state})"


#: Builds (and starts) one worker; the router passes the replica name.
ReplicaFactory = Callable[[str], Awaitable[Replica]]


class ReplicaRouter(HttpFront):
    """Fan ``/predict`` traffic across a pool of worker replicas.

    Args:
        factory: Async callable building one started worker per name —
            :func:`local_replica_factory` (same process; tests) or
            :func:`process_replica_factory` (spawned processes; the
            ``serve --workers N`` CLI).
        workers: Pool size to spawn on :meth:`start`.
        registry: Registry the workers serve from; needed only for
            :meth:`check_rollout` (watching ``latest`` pointers).
        host, port: Router bind address (``port=0`` picks freely).
        probe_interval: Seconds between background health sweeps
            (``0`` disables the loop; probes can be driven manually).
        request_timeout: Per-attempt budget for one replica to answer
            a forwarded request.
        read_timeout: Client-side budget for receiving a request.
        metrics: The :class:`repro.obs.MetricsRegistry` backing the
            router's counters; ``GET /metrics`` serves it merged with
            every admitted replica's own scrape (each replica's series
            relabelled with ``replica="wN"``).
        tracer: Optional :class:`repro.obs.Tracer`; forwarded
            ``/predict`` requests then open a ``router.predict`` root
            span (or continue the client's ``X-Repro-Trace``) and
            propagate the header to the worker.

    The router's front is named ``router``: its chaos hook is
    ``serve.router.request`` and :meth:`stop` drains it for 5 seconds
    by default.
    """

    def __init__(
        self,
        factory: ReplicaFactory,
        workers: int = 2,
        registry: ModelRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval: float = 0.5,
        request_timeout: float = 30.0,
        read_timeout: float = 30.0,
        metrics: "_obs.MetricsRegistry | None" = None,
        tracer: "_obs.Tracer | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.factory = factory
        self.workers = workers
        self.registry = registry
        self.probe_interval = probe_interval
        self.request_timeout = request_timeout
        self.replicas: list[Replica] = []
        self.started_unix = time.time()
        self.metrics = metrics if metrics is not None else _obs.MetricsRegistry()
        self.tracer = tracer
        # Router-level counters surfaced via /statz; registry-backed so
        # the same numbers appear on /metrics (exposed to code and tests
        # as plain int attributes via the properties below).
        self._rerouted = self.metrics.counter(
            "repro_router_rerouted_total",
            "Requests retried on another replica after a failed attempt.",
        )
        self._rejected = self.metrics.counter(
            "repro_router_rejected_total",
            "Requests answered 503 because no replica was available.",
        )
        self._swaps = self.metrics.counter(
            "repro_router_swaps_total",
            "Completed rolling swaps of the replica pool.",
        )
        self.metrics.gauge(
            "repro_router_replicas", "Replicas currently in the pool."
        ).set_function(lambda: len(self.replicas))
        self.metrics.gauge(
            "repro_router_admitted",
            "Replicas currently eligible for traffic.",
        ).set_function(lambda: len(self.admitted()))
        super().__init__(
            self.metrics.histogram(
                "repro_router_request_seconds",
                "Wall-clock seconds per routed request, by endpoint.",
                labelnames=("endpoint",),
            ),
            host,
            port,
            read_timeout,
            drain_timeout=5.0,
            name="router",
        )
        self._probe_task: asyncio.Task | None = None
        self._spawned = 0
        self._seen_latest: dict[str, int] = {}
        self._swap_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # Registry-backed counters (attribute API preserved)
    # ------------------------------------------------------------------
    @property
    def rerouted(self) -> int:
        """Requests retried on another replica after a failed attempt."""
        return int(self._rerouted.value)

    @rerouted.setter
    def rerouted(self, value: int) -> None:
        self._rerouted._set_total(int(value))

    @property
    def rejected(self) -> int:
        """Requests answered 503 because no replica was available."""
        return int(self._rejected.value)

    @rejected.setter
    def rejected(self, value: int) -> None:
        self._rejected._set_total(int(value))

    @property
    def swaps(self) -> int:
        """Completed rolling swaps of the replica pool."""
        return int(self._swaps.value)

    @swaps.setter
    def swaps(self, value: int) -> None:
        self._swaps._set_total(int(value))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _next_name(self) -> str:
        self._spawned += 1
        return f"w{self._spawned}"

    async def spawn_replica(self) -> Replica:
        """Build, admit and return one new worker via the factory."""
        replica = await self.factory(self._next_name())
        self.replicas.append(replica)
        logger.info(
            "spawned replica %s at %s:%d",
            replica.name,
            replica.host,
            replica.port,
            extra={"replica": replica.name, "port": replica.port},
        )
        return replica

    async def start(self) -> None:
        """Spawn the worker pool, bind the router's own listener and
        start the probe loop."""
        while len(self.replicas) < self.workers:
            await self.spawn_replica()
        if self.registry is not None:
            self._seen_latest = self._registry_latest()
        await super().start()
        if self.probe_interval > 0:
            self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def stop(self, drain_timeout: float | None = None) -> dict:
        """Drain the router's front, then stop every worker it owns.

        Returns the front's drain summary (:meth:`HttpFront.stop`) plus
        ``stopped`` (workers stopped) and ``rerouted``.
        """
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        summary = await super().stop(drain_timeout)
        stopped = 0
        for replica in list(self.replicas):
            if replica.stop is not None:
                try:
                    await replica.stop()
                except Exception:  # a dead worker is already "stopped"
                    pass
            stopped += 1
        self.replicas.clear()
        return {**summary, "stopped": stopped, "rerouted": self.rerouted}

    # ------------------------------------------------------------------
    # Replica selection + forwarding
    # ------------------------------------------------------------------
    def pick(self, exclude: set[Replica] | None = None) -> Replica | None:
        """Choose the replica for one request attempt, or ``None``.

        Healthy (breaker-closed) replicas win by least in-flight load;
        failing that, the first replica whose half-open breaker grants
        its probe slot gets the request as a live re-admission test.
        Draining and ejected replicas are never picked.
        """
        exclude = exclude or set()
        candidates = [
            r for r in self.replicas if r not in exclude and not r.draining
        ]
        healthy = [
            r for r in candidates if r.breaker.state == CircuitBreaker.CLOSED
        ]
        if healthy:
            return min(healthy, key=lambda r: r.inflight)
        for replica in candidates:
            if replica.breaker.allow():
                return replica
        return None

    async def forward(
        self,
        method: str,
        path: str,
        body: bytes,
        trace: "_obs.TraceContext | None" = None,
    ) -> tuple[int, dict | bytes]:
        """Send one request to the pool; reroute until someone answers.

        Returns ``(status, payload)``: the answering replica's response
        body bytes, or the router's own 503 document.  Transport failures
        (refused/reset connections, timeouts, short reads) and 503s
        from draining workers count against the replica's breaker and
        move the request to the next candidate; every replica
        exhausted yields an honest router-level 503.  With a tracer
        configured a ``router.predict`` span roots (or continues, when
        the client sent ``X-Repro-Trace``) the request's span tree and
        its context travels to the worker.
        """
        span = None
        if self.tracer is not None:
            span = self.tracer.span(
                f"router{path.replace('/', '.')}", parent=trace
            )
        try:
            return await self._forward_attempts(method, path, body, span)
        finally:
            if span is not None:
                span.finish()

    async def _forward_attempts(
        self, method: str, path: str, body: bytes, span
    ) -> tuple[int, dict | bytes]:
        trace = span.context if span is not None else None
        tried: set[Replica] = set()
        first = True
        reroutes = 0
        while True:
            replica = self.pick(tried)
            if replica is None:
                self.rejected += 1
                if span is not None:
                    span.set_attribute("rejected", True)
                logger.warning(
                    "no replica available for %s %s after %d attempt(s)",
                    method,
                    path,
                    len(tried),
                    extra={"path": path, "attempts": len(tried)},
                )
                return 503, {"error": "no replica available", "router": True}
            if not first:
                self.rerouted += 1
                reroutes += 1
            first = False
            replica.inflight += 1
            replica.requests += 1
            try:
                status, payload = await self._request_replica(
                    replica, method, path, body, trace=trace
                )
            except _TRANSPORT_ERRORS:
                replica.errors += 1
                replica.breaker.record_failure()
                tried.add(replica)
                continue
            finally:
                replica.inflight -= 1
            if status == 503:
                # The worker is alive but refusing (draining, breaker
                # of its own): not *this* replica's client's problem.
                replica.breaker.record_failure()
                tried.add(replica)
                continue
            replica.breaker.record_success()
            if span is not None:
                span.set_attribute("replica", replica.name)
                if reroutes:
                    span.set_attribute("reroutes", reroutes)
            return status, payload

    async def _request_replica(
        self,
        replica: Replica,
        method: str,
        path: str,
        body: bytes,
        trace: "_obs.TraceContext | None" = None,
    ) -> tuple[int, bytes]:
        """One HTTP exchange with one replica; raises on any tear."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(replica.host, replica.port),
            self.request_timeout,
        )
        try:
            trace_line = (
                f"{_obs.TRACE_HEADER}: {_obs.format_trace_header(trace)}\r\n"
                if trace is not None
                else ""
            )
            writer.write(
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {replica.host}\r\n"
                f"{trace_line}"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), self.request_timeout)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not raw:
            raise ConnectionError(f"replica {replica.name} sent no response")
        head, sep, payload = raw.partition(b"\r\n\r\n")
        if not sep:
            raise ConnectionError(f"replica {replica.name} sent torn headers")
        status_line = head.split(b"\r\n", 1)[0].decode("ascii", "replace")
        parts = status_line.split()
        try:
            status = int(parts[1])
        except (IndexError, ValueError):
            raise ConnectionError(
                f"replica {replica.name} sent bad status line {status_line!r}"
            )
        declared = None
        for line in head.split(b"\r\n")[1:]:
            header, _, value = line.partition(b":")
            if header.strip().lower() == b"content-length":
                try:
                    declared = int(value.strip())
                except ValueError:
                    raise ConnectionError(
                        f"replica {replica.name} sent bad Content-Length"
                    )
        if declared is not None and len(payload) != declared:
            # A reset mid-body: the bytes end early (or a duplicated
            # write runs long).  Either way the payload cannot be
            # trusted — reroute rather than relay a torn response.
            raise ConnectionError(
                f"replica {replica.name} sent {len(payload)} body bytes, "
                f"declared {declared}"
            )
        return status, payload

    # ------------------------------------------------------------------
    # Health probing
    # ------------------------------------------------------------------
    async def probe(self, replica: Replica) -> bool:
        """One health check; updates the breaker, returns the verdict.

        An **open** breaker is not probed — the breaker's reset timeout
        *is* the capped re-admission backoff, so a dead replica costs
        one connection attempt per cooldown, not one per sweep.
        """
        if replica.draining:
            return False
        state = replica.breaker.state
        if state == CircuitBreaker.OPEN:
            return False
        if state == CircuitBreaker.HALF_OPEN and not replica.breaker.allow():
            return False  # another probe already holds the slot
        try:
            status, __ = await self._request_replica(
                replica, "GET", "/healthz", b""
            )
        except _TRANSPORT_ERRORS:
            replica.breaker.record_failure()
            return False
        if status == 200:
            replica.breaker.record_success()
            return True
        replica.breaker.record_failure()
        return False

    async def probe_all(self) -> dict[str, bool]:
        """Sweep every replica once; returns ``{name: verdict}``."""
        results = {}
        for replica in list(self.replicas):
            results[replica.name] = await self.probe(replica)
        return results

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval)
            try:
                await self.probe_all()
                if self.registry is not None:
                    await self.check_rollout()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - keep the loop alive
                pass

    # ------------------------------------------------------------------
    # Drain-and-swap rollout
    # ------------------------------------------------------------------
    def _registry_latest(self) -> dict[str, int]:
        assert self.registry is not None
        latest = {}
        for name in self.registry.models():
            try:
                latest[name] = self.registry.latest_version(name)
            except Exception:  # damaged pointer: not a rollout signal
                continue
        return latest

    async def check_rollout(self) -> bool:
        """Rolling-swap the pool iff a ``latest`` pointer moved.

        This is the registry-driven rollout: ``publish`` atomically
        flips ``LATEST``, the router notices on its next sweep and
        recycles the workers one at a time, so every replica re-maps
        the new version's sidecar with zero downtime.  Returns whether
        a swap ran.
        """
        if self.registry is None:
            return False
        current = self._registry_latest()
        if current == self._seen_latest:
            return False
        self._seen_latest = current
        await self.rolling_swap()
        return True

    async def rolling_swap(self, drain_timeout: float = 10.0) -> int:
        """Replace every replica, one at a time, without dropping work.

        For each incumbent: spawn a successor, require a passing health
        probe (a stillborn successor aborts the swap rather than
        shrinking the pool), admit it, mark the incumbent draining (the
        picker skips it; its in-flight requests finish), wait out the
        in-flight count, then stop it.  Returns replicas replaced.
        """
        async with self._swap_lock:
            swapped = 0
            for old in list(self.replicas):
                if old.draining:
                    continue
                successor = await self.factory(self._next_name())
                if not await self.probe(successor):
                    if successor.stop is not None:
                        try:
                            await successor.stop()
                        except Exception:
                            pass
                    raise RuntimeError(
                        f"rollout aborted: successor {successor.name} "
                        f"failed its health probe"
                    )
                self.replicas.append(successor)
                old.draining = True
                deadline = Deadline(drain_timeout)
                while old.inflight > 0 and not deadline.expired():
                    await asyncio.sleep(0.01)
                self.replicas.remove(old)
                if old.stop is not None:
                    try:
                        await old.stop()
                    except Exception:
                        pass
                swapped += 1
            self.swaps += 1
            return swapped

    # ------------------------------------------------------------------
    # Router endpoints
    # ------------------------------------------------------------------
    def admitted(self) -> list[Replica]:
        """Replicas currently eligible for traffic (closed or probing)."""
        return [
            r
            for r in self.replicas
            if not r.draining and r.breaker.state != CircuitBreaker.OPEN
        ]

    def healthz_payload(self) -> dict:
        """Router liveness for ``GET /healthz``."""
        return {
            "status": "ok",
            "role": "router",
            "replicas": len(self.replicas),
            "admitted": len(self.admitted()),
            "uptime_seconds": round(time.time() - self.started_unix, 3),
        }

    def readyz_payload(self) -> tuple[int, dict]:
        """Aggregate readiness: the pool's health, not one process's."""
        admitted = self.admitted()
        ejected = [r.name for r in self.replicas if r.state == "ejected"]
        if self._draining:
            status, code = "draining", 503
        elif not admitted:
            status, code = "unavailable", 503
        elif ejected:
            status, code = "degraded", 200
        else:
            status, code = "ready", 200
        return code, {
            "status": status,
            "replicas": {r.name: r.state for r in self.replicas},
            "ejected": ejected,
        }

    async def statz_payload(self) -> dict:
        """``GET /statz``: pool-wide serving stats.

        Per-model :class:`~repro.serve.server.ModelStats` counters are
        fetched from each admitted replica's ``/models`` endpoint and
        summed — the aggregate a dashboard wants, with the per-replica
        split alongside.  Unreachable replicas are reported, not fatal.
        """
        models: dict[str, dict[str, int]] = {}
        per_replica: list[dict] = []
        for replica in list(self.replicas):
            row = replica.describe()
            if replica in self.admitted():
                try:
                    __, payload = await self._request_replica(
                        replica, "GET", "/models", b""
                    )
                    document = json.loads(payload.decode("utf-8"))
                    row["models"] = {}
                    for entry in document.get("models", []):
                        stats = entry.get("stats") or {}
                        name = str(entry.get("name"))
                        row["models"][name] = stats
                        bucket = models.setdefault(name, {})
                        for key, value in stats.items():
                            if isinstance(value, (int, float)):
                                bucket[key] = bucket.get(key, 0) + value
                            else:
                                # Non-numeric stat values cannot be
                                # summed; surface them per replica
                                # instead of silently dropping them.
                                bucket.setdefault(
                                    "non_numeric", {}
                                ).setdefault(replica.name, {})[key] = value
                except (*_TRANSPORT_ERRORS, ValueError):
                    row["unreachable"] = True
            per_replica.append(row)
        return {
            "models": models,
            "replicas": per_replica,
            "router": {
                "rerouted": self.rerouted,
                "rejected": self.rejected,
                "swaps": self.swaps,
            },
        }

    async def metrics_text(self) -> str:
        """``GET /metrics``: router registry merged with replica scrapes.

        The router's own series come first, then each admitted
        replica's scrape with a ``replica="wN"`` label injected on every
        sample so per-worker series never collide.  A replica whose
        scrape is unreachable or malformed is skipped — the router's
        document must always be valid.
        """
        registries = [self.metrics]
        if all(_obs.REGISTRY is not r for r in registries):
            registries.append(_obs.REGISTRY)
        documents = [_obs.render_registries(registries)]
        for replica in list(self.replicas):
            if replica not in self.admitted():
                continue
            try:
                status, payload = await self._request_replica(
                    replica, "GET", "/metrics", b""
                )
                if status != 200:
                    continue
                documents.append(
                    _obs.inject_label(
                        payload.decode("utf-8"), "replica", replica.name
                    )
                )
            except (*_TRANSPORT_ERRORS, ValueError):
                continue
        return _obs.merge_expositions(documents)

    async def _handle_routed(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str],
    ) -> tuple[int, dict | str | bytes]:
        """Route one request; returns ``(status, payload)``."""
        if method == "GET" and path == "/healthz":
            return 200, self.healthz_payload()
        if method == "GET" and path == "/readyz":
            return self.readyz_payload()
        if method == "GET" and path == "/statz":
            return 200, await self.statz_payload()
        if method == "GET" and path == "/metrics":
            return 200, await self.metrics_text()
        if (method == "POST" and path == "/predict") or (
            method == "GET" and path == "/models"
        ):
            trace = _obs.parse_trace_header(
                headers.get(_obs.TRACE_HEADER.lower())
            )
            return await self.forward(method, path, body, trace=trace)
        return 404, {"error": f"no route {method} {path}"}


# ----------------------------------------------------------------------
# Replica factories
# ----------------------------------------------------------------------
def local_replica_factory(
    registry: ModelRegistry,
    host: str = "127.0.0.1",
    service_config: dict | None = None,
    server_config: dict | None = None,
) -> ReplicaFactory:
    """Replicas as in-process asyncio servers (tests, single-core boxes).

    Each call builds a fresh :class:`~repro.serve.server.PredictionService`
    + :class:`~repro.serve.server.PredictionServer` named after the
    replica (so chaos plans can target ``serve.w2.request``), starts it
    on a free port and wires graceful stop through.
    """

    async def factory(name: str) -> Replica:
        service = PredictionService(registry, **(service_config or {}))
        server = PredictionServer(
            service, host=host, port=0, name=name, **(server_config or {})
        )
        await server.start()

        async def stop() -> object:
            return await server.stop()

        replica = Replica(name, host, server.port, stop=stop)
        replica.server = server  # type: ignore[attr-defined]  # test access
        return replica

    return factory


def _process_replica_main(conn, registry_root: str, config: dict) -> None:
    """Worker-process entry point (top level for ``spawn`` pickling)."""
    import os

    registry = ModelRegistry(registry_root)
    name = config.get("name", "worker")
    obs_config = config.get("obs") or {}
    tracer = None
    if obs_config.get("trace_dir"):
        # One span file per worker: JSONL appends from separate
        # processes would interleave mid-record on a shared file.
        exporter = _obs.JsonlSpanExporter(
            os.path.join(obs_config["trace_dir"], f"spans-{name}.jsonl")
        )
        tracer = _obs.Tracer(exporter)
    if obs_config.get("instrument"):
        _obs.instrument(tracer=tracer)
    service = PredictionService(
        registry, tracer=tracer, **config.get("service", {})
    )
    server = PredictionServer(
        service,
        host=config.get("host", "127.0.0.1"),
        port=0,
        name=name,
        **config.get("server", {}),
    )

    async def main() -> None:
        await server.start()
        conn.send(server.port)
        conn.close()
        await server._serve_until_signalled()

    asyncio.run(main())


def process_replica_factory(
    registry_root: str,
    host: str = "127.0.0.1",
    service_config: dict | None = None,
    server_config: dict | None = None,
    spawn_timeout: float = 60.0,
    obs_config: dict | None = None,
) -> ReplicaFactory:
    """Replicas as spawned OS processes (the ``serve --workers N`` CLI).

    Workers use the ``spawn`` start method (no inherited event loops or
    locks), report their bound port back over a pipe, and stop
    gracefully on SIGTERM via the server's signal-drain path; a worker
    that ignores the drain is killed after a grace period.  Because
    every worker maps the same ``compiled.bin`` sidecar, N workers cost
    one page-cache copy of the model, not N heap copies.

    ``obs_config`` configures per-worker observability:
    ``{"instrument": True}`` installs the engine metric hooks in each
    worker (scraped through the router's ``/metrics``), and
    ``{"trace_dir": path}`` gives each worker a
    :class:`repro.obs.JsonlSpanExporter` at ``<path>/spans-<name>.jsonl``.
    """
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    config_base = {
        "host": host,
        "service": dict(service_config or {}),
        "server": dict(server_config or {}),
        "obs": dict(obs_config or {}),
    }

    async def factory(name: str) -> Replica:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_process_replica_main,
            args=(child_conn, str(registry_root), {**config_base, "name": name}),
            daemon=True,
        )
        process.start()
        child_conn.close()

        def _receive_port() -> int:
            if not parent_conn.poll(spawn_timeout):
                raise TimeoutError(
                    f"worker {name} did not report a port in {spawn_timeout:g}s"
                )
            return int(parent_conn.recv())

        try:
            port = await asyncio.to_thread(_receive_port)
        except BaseException:
            process.terminate()
            raise

        async def stop() -> object:
            process.terminate()  # SIGTERM -> graceful drain in the worker
            await asyncio.to_thread(process.join, 10.0)
            if process.is_alive():  # pragma: no cover - drain ignored
                process.kill()
                await asyncio.to_thread(process.join, 5.0)
            return {"exitcode": process.exitcode}

        replica = Replica(name, host, port, stop=stop)
        replica.process = process  # type: ignore[attr-defined]  # CLI access
        return replica

    return factory
