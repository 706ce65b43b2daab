"""Replica-router tests (``pytest -m cluster_smoke``).

The deterministic half covers routing mechanics — least-loaded
selection, JSON and packed ``/predict`` fan-out, ``/statz``
aggregation, the registry-driven rolling swap.  The chaos half (also
``chaos_smoke``) injects scripted faults through
:mod:`repro.resilience.faults` and asserts the pool-level promises: a
replica killed mid-batch loses its connections but **zero requests**
(everything reroutes), drain-and-swap under sustained load never
publishes a torn response, and ``/readyz`` walks
ready -> degraded -> ready as a replica is ejected and re-admitted.

All replicas are in-process asyncio servers (one core is enough); the
process-spawning factory is exercised by ``benchmarks/bench_cluster.py``
and the CLI.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import TwoViewDataset
from repro.resilience import FaultInjector
from repro.resilience.policy import CircuitBreaker
from repro.serve import ModelArtifact, ModelRegistry, ReplicaRouter
from repro.serve.router import local_replica_factory
from repro.stream.codec import encode_packed_rows

pytestmark = pytest.mark.cluster_smoke

N_LEFT, N_RIGHT = 14, 11


def make_artifact(seed: int = 4, n_rules: int = 10) -> ModelArtifact:
    rng = np.random.default_rng(seed)
    rules = set()
    while len(rules) < n_rules:
        lhs = tuple(
            sorted(rng.choice(N_LEFT, size=int(rng.integers(1, 4)), replace=False))
        )
        rhs = tuple(
            sorted(rng.choice(N_RIGHT, size=int(rng.integers(1, 4)), replace=False))
        )
        direction = ("->", "<-", "<->")[int(rng.integers(0, 3))]
        rules.add((lhs, rhs, direction))
    table = TranslationTable(
        TranslationRule(lhs, rhs, direction)
        for lhs, rhs, direction in sorted(rules)
    )
    dataset = TwoViewDataset(
        rng.random((8, N_LEFT)) < 0.4,
        rng.random((8, N_RIGHT)) < 0.4,
        name="router-test",
    )

    class _Result:
        def __init__(self):
            self.table = table

        def summary(self):
            return {"n_rules": len(table)}

    return ModelArtifact.from_result("router-test", dataset, _Result(), {})


@pytest.fixture()
def registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(make_artifact())
    return registry


def fast_breaker() -> CircuitBreaker:
    """Eject after 2 failures, re-probe after 50ms (test-speed backoff)."""
    return CircuitBreaker(failure_threshold=2, reset_timeout=0.05)


def make_router(registry, workers=2, **kwargs) -> ReplicaRouter:
    kwargs.setdefault("probe_interval", 0)  # probes driven explicitly
    factory = local_replica_factory(registry)

    async def fast_breaker_factory(name):
        replica = await factory(name)
        replica.breaker = fast_breaker()
        return replica

    return ReplicaRouter(
        fast_breaker_factory,
        workers=workers,
        registry=registry,
        **kwargs,
    )


async def http(host, port, method, path, body=b""):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, sep, payload = raw.partition(b"\r\n\r\n")
    assert sep, f"torn response: {raw!r}"
    status = int(head.split()[1])
    return status, json.loads(payload.decode("utf-8"))


def json_body(rows=((0, 1), (2,))) -> bytes:
    return json.dumps(
        {"model": "router-test", "target": "R", "rows": [list(r) for r in rows]}
    ).encode("utf-8")


def packed_body(seed=0, n_rows=4) -> bytes:
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_rows, N_LEFT)) < 0.4
    return encode_packed_rows(
        matrix, meta={"model": "router-test", "target": "R"}
    )


class TestRouting:
    def test_fans_out_json_and_packed_bodies(self, registry):
        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            try:
                status, payload = await http(
                    router.host, router.port, "POST", "/predict", json_body()
                )
                assert status == 200 and len(payload["predictions"]) == 2
                status, payload = await http(
                    router.host, router.port, "POST", "/predict", packed_body()
                )
                assert status == 200 and len(payload["predictions"]) == 4
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_router_and_bare_server_answers_are_identical(self, registry):
        from repro.serve import PredictionServer, PredictionService

        async def scenario():
            server = PredictionServer(PredictionService(registry), port=0)
            await server.start()
            router = make_router(registry, workers=2)
            await router.start()
            try:
                for body in (json_body(), packed_body(3)):
                    __, direct = await http(
                        server.host, server.port, "POST", "/predict", body
                    )
                    __, routed = await http(
                        router.host, router.port, "POST", "/predict", body
                    )
                    assert direct["predictions"] == routed["predictions"]
            finally:
                await router.stop()
                await server.stop()

        asyncio.run(scenario())

    def test_least_loaded_pick_prefers_idle_replica(self, registry):
        async def scenario():
            router = make_router(registry, workers=3)
            await router.start()
            try:
                first, second, third = router.replicas
                first.inflight = 5
                second.inflight = 1
                third.inflight = 3
                assert router.pick() is second
                second.draining = True
                assert router.pick() is third
                assert router.pick({third}) is first
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_statz_aggregates_model_stats_across_replicas(self, registry):
        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            try:
                # Distinct bodies so replica response caches don't merge
                # them; concurrency spreads them across the pool.
                await asyncio.gather(
                    *(
                        http(
                            router.host,
                            router.port,
                            "POST",
                            "/predict",
                            packed_body(seed),
                        )
                        for seed in range(6)
                    )
                )
                status, stats = await http(
                    router.host, router.port, "GET", "/statz"
                )
                assert status == 200
                assert stats["models"]["router-test"]["requests"] == 6
                assert {r["name"] for r in stats["replicas"]} == {"w1", "w2"}
                assert stats["router"]["rejected"] == 0
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_models_endpoint_is_forwarded(self, registry):
        async def scenario():
            router = make_router(registry, workers=1)
            await router.start()
            try:
                status, payload = await http(
                    router.host, router.port, "GET", "/models"
                )
                assert status == 200
                assert payload["models"][0]["name"] == "router-test"
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_unroutable_path_is_404_and_no_pool_is_503(self, registry):
        async def scenario():
            router = make_router(registry, workers=1)
            await router.start()
            try:
                status, __ = await http(router.host, router.port, "GET", "/nope")
                assert status == 404
                for replica in router.replicas:
                    replica.draining = True
                status, payload = await http(
                    router.host, router.port, "POST", "/predict", json_body()
                )
                assert status == 503 and payload["router"]
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_registry_publish_triggers_rolling_swap(self, registry):
        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            try:
                assert not await router.check_rollout()  # nothing moved
                before = {r.name for r in router.replicas}
                registry.publish(make_artifact(seed=9))
                assert await router.check_rollout()
                after = {r.name for r in router.replicas}
                assert before.isdisjoint(after) and len(after) == 2
                status, payload = await http(
                    router.host, router.port, "POST", "/predict", json_body()
                )
                assert status == 200 and payload["version"] == 2
            finally:
                await router.stop()

        asyncio.run(scenario())


@pytest.mark.chaos_smoke
class TestChaos:
    def test_replica_killed_mid_batch_drops_zero_requests(self, registry):
        """Crash w1 under a concurrent burst: every request still 200."""

        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            try:
                # Route one request so w1 is the warm, least-recently
                # loaded target, then crash it on its next request.
                await http(
                    router.host, router.port, "POST", "/predict", json_body()
                )
                injector = FaultInjector().plan(
                    "serve.w1.request", kind="crash", nth=1
                )
                with injector.active():
                    results = await asyncio.gather(
                        *(
                            http(
                                router.host,
                                router.port,
                                "POST",
                                "/predict",
                                packed_body(seed),
                            )
                            for seed in range(8)
                        )
                    )
                assert injector.fired, "the crash never triggered"
                assert [status for status, __ in results] == [200] * 8
                assert router.rerouted >= 1
                w1 = next(r for r in router.replicas if r.name == "w1")
                assert w1.server.crashed  # type: ignore[attr-defined]
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_readyz_degrades_and_recovers_with_ejection(self, registry):
        """ready -> degraded (breaker open) -> ready (re-admitted)."""

        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            try:
                status, payload = await http(
                    router.host, router.port, "GET", "/readyz"
                )
                assert (status, payload["status"]) == (200, "ready")

                injector = FaultInjector().plan(
                    "serve.w2.request", kind="crash", nth=1
                )
                with injector.active():
                    await asyncio.gather(
                        *(
                            http(
                                router.host,
                                router.port,
                                "POST",
                                "/predict",
                                packed_body(seed),
                            )
                            for seed in range(6)
                        )
                    )
                assert injector.fired
                w2 = next(r for r in router.replicas if r.name == "w2")
                # Probes against the dead listener open the breaker.
                while w2.breaker.state != CircuitBreaker.OPEN:
                    await router.probe(w2)
                    await asyncio.sleep(0.01)
                status, payload = await http(
                    router.host, router.port, "GET", "/readyz"
                )
                assert (status, payload["status"]) == (200, "degraded")
                assert payload["ejected"] == ["w2"]

                # Operator (or supervisor) restarts the worker on its
                # old port; after the backoff the health probe re-admits.
                await w2.server.start()  # type: ignore[attr-defined]
                await asyncio.sleep(0.06)  # breaker reset_timeout
                assert await router.probe(w2)
                status, payload = await http(
                    router.host, router.port, "GET", "/readyz"
                )
                assert (status, payload["status"]) == (200, "ready")
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_all_replicas_dead_is_unavailable_readyz(self, registry):
        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            try:
                for replica in router.replicas:
                    await replica.server.stop()  # type: ignore[attr-defined]
                    while replica.breaker.state == CircuitBreaker.CLOSED:
                        await router.probe(replica)
                status, payload = await http(
                    router.host, router.port, "GET", "/readyz"
                )
                assert (status, payload["status"]) == (503, "unavailable")
            finally:
                await router.stop()

        asyncio.run(scenario())

    def test_drain_and_swap_under_load_serves_every_request(self, registry):
        """A rolling swap mid-traffic: no torn responses, no errors.

        The load task hammers ``/predict`` while the pool is replaced
        replica-by-replica; every response must parse as a complete
        JSON prediction document with status 200 (the ``http`` helper
        asserts the framing, so a torn body would fail loudly).
        """

        async def scenario():
            router = make_router(registry, workers=2)
            await router.start()
            statuses: list[int] = []
            stop = asyncio.Event()

            async def load():
                seed = 0
                while not stop.is_set():
                    status, payload = await http(
                        router.host,
                        router.port,
                        "POST",
                        "/predict",
                        packed_body(seed % 5),
                    )
                    statuses.append(status)
                    assert "predictions" in payload or "error" in payload
                    seed += 1

            try:
                load_task = asyncio.ensure_future(load())
                await asyncio.sleep(0.05)
                before = {r.name for r in router.replicas}
                swapped = await router.rolling_swap(drain_timeout=2.0)
                await asyncio.sleep(0.05)
                stop.set()
                await load_task
                assert swapped == 2
                assert {r.name for r in router.replicas}.isdisjoint(before)
                assert len(statuses) > 5
                assert statuses == [200] * len(statuses)
            finally:
                await router.stop()

        asyncio.run(scenario())
