"""Observability tests (``pytest -m obs_smoke``).

Covers the metrics registry (thread-safe scrapes under concurrent
writers, exact histogram bucket boundaries, exposition round-trip),
the tracing primitives (deterministic span records, header
propagation, JSONL rotation), the ``/metrics`` endpoints of the
prediction server and the replica router (validated against the
Prometheus naming lint in ``scripts/check_metrics.py``), the
end-to-end span tree of a traced request through a two-replica pool,
the ``/statz`` non-numeric surfacing fix, and the one-attribute-check
instrument seam.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import TwoViewDataset
from repro.obs.metrics import LATENCY_BUCKETS, MetricError
from repro.obs.trace import build_span_tree, read_spans, span_files
from repro.serve import (
    ModelArtifact,
    ModelRegistry,
    PredictionServer,
    PredictionService,
    ReplicaRouter,
)
from repro.serve.router import Replica

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_metrics  # noqa: E402

pytestmark = pytest.mark.obs_smoke

N_LEFT, N_RIGHT = 12, 9


@pytest.fixture(autouse=True)
def _reset_instrumentation():
    """Never leak a process-wide instrument bundle between tests."""
    yield
    obs.instrument(enabled=False)


def make_artifact(name: str = "obs-test") -> ModelArtifact:
    rng = np.random.default_rng(11)
    table = TranslationTable(
        [
            TranslationRule((0, 1), (2,), "->"),
            TranslationRule((2, 3), (0, 4), "<->"),
            TranslationRule((5,), (1,), "<-"),
        ]
    )
    dataset = TwoViewDataset(
        rng.random((8, N_LEFT)) < 0.4,
        rng.random((8, N_RIGHT)) < 0.4,
        name=name,
    )

    class _Result:
        def __init__(self):
            self.table = table

        def summary(self):
            return {"n_rules": len(table)}

    return ModelArtifact.from_result(name, dataset, _Result(), {})


@pytest.fixture()
def registry(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(make_artifact())
    return registry


async def http(host, port, method, path, body=b"", headers=()):
    """Raw HTTP round-trip returning ``(status, content_type, payload)``."""
    reader, writer = await asyncio.open_connection(host, port)
    extra = "".join(f"{key}: {value}\r\n" for key, value in headers)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
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
    content_type = ""
    for line in head.decode("latin-1").split("\r\n")[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-type":
            content_type = value.strip()
    return status, content_type, payload


class TestRegistry:
    def test_counter_gauge_histogram_render_and_parse(self):
        registry = obs.MetricsRegistry()
        hits = registry.counter("t_hits_total", "Hits.", labelnames=("kind",))
        hits.labels(kind="a").inc()
        hits.labels(kind="b").inc(3)
        registry.gauge("t_depth", "Depth.").set(7.5)
        registry.histogram("t_seconds", "Latency.").observe(0.001)
        families, samples = obs.parse_exposition(registry.render())
        assert families["t_hits_total"][0] == "counter"
        assert families["t_depth"][0] == "gauge"
        assert families["t_seconds"][0] == "histogram"
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert ({"kind": "a"}, 1.0) in by_name["t_hits_total"]
        assert ({"kind": "b"}, 3.0) in by_name["t_hits_total"]
        assert by_name["t_depth"] == [({}, 7.5)]
        assert ({}, 1.0) in by_name["t_seconds_count"]

    def test_kind_and_label_mismatch_raise(self):
        registry = obs.MetricsRegistry()
        registry.counter("t_thing_total", "x")
        with pytest.raises(MetricError):
            registry.gauge("t_thing_total", "x")
        with pytest.raises(MetricError):
            registry.counter("t_thing_total", "x", labelnames=("other",))

    def test_exposition_survives_injection_and_merge(self):
        left, right = obs.MetricsRegistry(), obs.MetricsRegistry()
        left.counter("t_reqs_total", "Requests.").inc(2)
        right.counter("t_reqs_total", "Requests.").inc(5)
        merged = obs.merge_expositions(
            [
                obs.inject_label(left.render(), "replica", "w1"),
                obs.inject_label(right.render(), "replica", "w2"),
            ]
        )
        families, samples = obs.parse_exposition(merged)
        assert families["t_reqs_total"][0] == "counter"
        assert sorted(
            (labels["replica"], value)
            for name, labels, value in samples
            if name == "t_reqs_total"
        ) == [("w1", 2.0), ("w2", 5.0)]
        assert check_metrics.validate_exposition(merged) == []

    def test_concurrent_writers_never_corrupt_a_scrape(self):
        """Property: every mid-flight scrape parses and is monotone."""
        registry = obs.MetricsRegistry()
        counter = registry.counter("t_ops_total", "Ops.", labelnames=("worker",))
        histogram = registry.histogram("t_ops_seconds", "Op latency.")
        n_threads, per_thread = 8, 400
        start = threading.Barrier(n_threads + 1)
        rng = random.Random(5)
        values = [rng.random() for _ in range(64)]

        def writer(worker: int) -> None:
            cell = counter.labels(worker=str(worker))
            start.wait()
            for i in range(per_thread):
                cell.inc()
                histogram.observe(values[(worker + i) % len(values)])

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        last_total = 0.0
        while any(thread.is_alive() for thread in threads):
            text = registry.render()
            assert check_metrics.validate_exposition(text) == []
            __, samples = obs.parse_exposition(text)
            total = sum(v for n, __, v in samples if n == "t_ops_total")
            assert total >= last_total  # counters only ever go up
            last_total = total
        for thread in threads:
            thread.join()
        __, samples = obs.parse_exposition(registry.render())
        assert sum(v for n, __, v in samples if n == "t_ops_total") == (
            n_threads * per_thread
        )
        count = [v for n, __, v in samples if n == "t_ops_seconds_count"]
        assert count == [float(n_threads * per_thread)]


def _bucket_counts(text: str, family: str) -> list[float]:
    """Cumulative ``_bucket`` counts of one histogram, ascending in le."""
    __, samples = obs.parse_exposition(text)
    pairs = [
        (
            float("inf") if labels["le"] == "+Inf" else float(labels["le"]),
            value,
        )
        for name, labels, value in samples
        if name == f"{family}_bucket"
    ]
    pairs.sort(key=lambda pair: pair[0])
    return [value for __, value in pairs]


class TestHistogramBuckets:
    def test_boundary_values_land_in_their_own_bucket(self):
        """``le`` is inclusive: a value exactly on a bound counts there."""
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("t_lat_seconds", "x")
        for bound in LATENCY_BUCKETS:
            histogram.observe(bound)
        counts = _bucket_counts(registry.render(), "t_lat_seconds")
        # The k-th bound is the (k+1)-th smallest observed value, so the
        # cumulative count at bound k must be exactly k+1 (le is <=).
        assert counts == [
            float(k + 1) for k in range(len(LATENCY_BUCKETS))
        ] + [float(len(LATENCY_BUCKETS))]

    def test_values_beyond_the_last_bound_only_hit_inf(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("t_lat_seconds", "x")
        histogram.observe(LATENCY_BUCKETS[-1] * 2)
        counts = _bucket_counts(registry.render(), "t_lat_seconds")
        assert counts == [0.0] * len(LATENCY_BUCKETS) + [1.0]

    @given(value=st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_every_value_lands_in_exactly_the_right_bucket(self, value):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("t_lat_seconds", "x")
        histogram.observe(value)
        counts = _bucket_counts(registry.render(), "t_lat_seconds")
        bounds = list(LATENCY_BUCKETS) + [float("inf")]
        assert counts == [1.0 if value <= bound else 0.0 for bound in bounds]
        __, samples = obs.parse_exposition(registry.render())
        total = [v for n, __l, v in samples if n == "t_lat_seconds_sum"]
        assert total == [value]


class TestTracing:
    def _deterministic_tracer(self, exporter=None):
        clock = iter(float(t) for t in range(100)).__next__
        return obs.Tracer(
            exporter, clock=clock, id_source=random.Random(3).getrandbits
        )

    def test_span_records_are_deterministic_under_injection(self):
        records = []

        class ListExporter:
            def export(self, span):
                records.append(span.as_dict())

        tracer = self._deterministic_tracer(ListExporter())
        with tracer.span("root") as root:
            with tracer.span("child", parent=root, attributes={"rows": 2}):
                pass
        source = random.Random(3).getrandbits
        reference_ids = [f"{source(64):016x}" for _ in range(3)]
        assert records == [
            {
                "name": "child",
                "trace_id": reference_ids[0],
                "span_id": reference_ids[2],
                "parent_id": reference_ids[1],
                "start_time": 1.0,
                "end_time": 2.0,
                "attributes": {"rows": 2},
            },
            {
                "name": "root",
                "trace_id": reference_ids[0],
                "span_id": reference_ids[1],
                "parent_id": None,
                "start_time": 0.0,
                "end_time": 3.0,
            },
        ]

    def test_header_round_trip_and_malformed_rejection(self):
        context = obs.TraceContext("00f067aa0ba902b7", "4bf92f3577b34da6")
        assert obs.parse_trace_header(obs.format_trace_header(context)) == context
        for bad in (None, "", "zz-aa", "deadbeef", "a-b-c", "xyzw" * 8):
            assert obs.parse_trace_header(bad) is None

    def test_jsonl_exporter_rotates_at_the_size_cap(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = obs.JsonlSpanExporter(str(path), max_bytes=2000, backups=2)
        tracer = obs.Tracer(exporter)
        for i in range(200):
            with tracer.span(f"span-{i:03d}"):
                pass
        files = span_files(str(path))
        assert str(path) in files and len(files) == 3  # live + 2 backups
        assert all(Path(f).stat().st_size <= 2000 + 200 for f in files)
        names = [r["name"] for f in files for r in read_spans(f)]
        assert names == sorted(names)  # oldest-first ordering survives
        assert "span-199" in names  # newest span never rotated away


class TestServerMetrics:
    def test_metrics_endpoint_serves_valid_exposition(self, registry):
        async def scenario():
            service = PredictionService(registry, cache_size=4)
            server = PredictionServer(service, port=0)
            await server.start()
            try:
                body = json.dumps(
                    {"model": "obs-test", "target": "R", "rows": [[0, 1]]}
                ).encode()
                status, __, __payload = await http(
                    server.host, server.port, "POST", "/predict", body
                )
                assert status == 200
                status, content_type, payload = await http(
                    server.host, server.port, "GET", "/metrics"
                )
            finally:
                await server.stop()
            assert status == 200
            assert content_type == obs.METRICS_CONTENT_TYPE
            text = payload.decode("utf-8")
            assert check_metrics.validate_exposition(text) == []
            __, samples = obs.parse_exposition(text)
            by_name = {name for name, __, __v in samples}
            assert "repro_serve_uptime_seconds" in by_name
            requests = [
                (labels, value)
                for name, labels, value in samples
                if name == "repro_serve_model_requests_total"
            ]
            assert ({"model": "obs-test"}, 1.0) in requests
            predict_count = [
                value
                for name, labels, value in samples
                if name == "repro_serve_request_seconds_count"
                and labels == {"endpoint": "/predict"}
            ]
            assert predict_count == [1.0]

        asyncio.run(scenario())

    def test_statz_numbers_match_metrics_numbers(self, registry):
        """/statz stays bit-compatible: both views read the same cells."""
        service = PredictionService(registry)
        stats = service._stats_for("obs-test")
        stats.requests += 3
        stats.rows += 7
        assert stats.as_dict()["requests"] == 3
        __, samples = obs.parse_exposition(service.metrics.render())
        values = {
            name: value
            for name, labels, value in samples
            if labels.get("model") == "obs-test"
        }
        assert values["repro_serve_model_requests_total"] == 3.0
        assert values["repro_serve_model_rows_total"] == 7.0


def make_traced_router(registry, exporter, workers=2):
    """A router over in-process replicas, every process sharing one
    deterministic exporter (everything is in-process, so the linked
    span tree lands in a single list)."""
    tracer = obs.Tracer(exporter)

    async def factory(name: str) -> Replica:
        service = PredictionService(registry, tracer=tracer)
        server = PredictionServer(service, host="127.0.0.1", port=0, name=name)
        await server.start()

        async def stop() -> object:
            return await server.stop()

        return Replica(name, "127.0.0.1", server.port, stop=stop)

    return ReplicaRouter(
        factory, workers=workers, registry=registry, probe_interval=0,
        tracer=tracer,
    )


class TestRouterObservability:
    def test_router_metrics_aggregate_replica_series(self, registry):
        async def scenario():
            router = make_traced_router(registry, exporter=None)
            await router.start()
            try:
                body = json.dumps(
                    {"model": "obs-test", "target": "R", "rows": [[0, 1]]}
                ).encode()
                status, __, __p = await http(
                    router.host, router.port, "POST", "/predict", body
                )
                assert status == 200
                status, content_type, payload = await http(
                    router.host, router.port, "GET", "/metrics"
                )
            finally:
                await router.stop()
            assert status == 200
            assert content_type == obs.METRICS_CONTENT_TYPE
            text = payload.decode("utf-8")
            assert check_metrics.validate_exposition(text) == []
            __, samples = obs.parse_exposition(text)
            names = {name for name, __l, __v in samples}
            assert "repro_router_replicas" in names
            replicas = {
                labels.get("replica")
                for name, labels, __v in samples
                if name == "repro_serve_uptime_seconds"
            }
            assert replicas == {"w1", "w2"}
            requests = sum(
                value
                for name, labels, value in samples
                if name == "repro_serve_model_requests_total"
            )
            assert requests == 1.0

        asyncio.run(scenario())

    def test_traced_request_yields_a_linked_span_tree(self, registry):
        records = []

        class ListExporter:
            def export(self, span):
                records.append(span.as_dict())

        async def scenario():
            router = make_traced_router(registry, ListExporter())
            await router.start()
            try:
                body = json.dumps(
                    {"model": "obs-test", "target": "R", "rows": [[0, 1]]}
                ).encode()
                status, __, __p = await http(
                    router.host,
                    router.port,
                    "POST",
                    "/predict",
                    body,
                    headers=((obs.TRACE_HEADER, "00000000000000aa-00000000000000bb"),),
                )
                assert status == 200
            finally:
                await router.stop()

        asyncio.run(scenario())
        trees = build_span_tree(records)
        assert list(trees) == ["00000000000000aa"]
        spans = {record["name"]: record for record in trees["00000000000000aa"]}
        assert set(spans) == {"router.predict", "serve.predict", "serve.flush"}
        assert spans["router.predict"]["parent_id"] == "00000000000000bb"
        assert spans["serve.predict"]["parent_id"] == (
            spans["router.predict"]["span_id"]
        )
        assert spans["serve.flush"]["parent_id"] == (
            spans["serve.predict"]["span_id"]
        )
        assert spans["serve.predict"]["attributes"]["model"] == "obs-test"
        assert spans["serve.flush"]["attributes"]["rows"] == 1

    def test_statz_surfaces_non_numeric_stats_per_replica(self, registry):
        async def scenario():
            router = make_traced_router(registry, exporter=None)
            await router.start()
            try:
                original = router._request_replica

                async def doctored(replica, method, path, body, **kwargs):
                    status, payload = await original(
                        replica, method, path, body, **kwargs
                    )
                    if path == "/models" and replica.name == "w1":
                        document = json.loads(payload.decode("utf-8"))
                        document["models"][0]["stats"]["engine"] = "compiled"
                        payload = json.dumps(document).encode("utf-8")
                    return status, payload

                router._request_replica = doctored
                return await router.statz_payload()
            finally:
                await router.stop()

        payload = asyncio.run(scenario())
        bucket = payload["models"]["obs-test"]
        assert bucket["non_numeric"] == {"w1": {"engine": "compiled"}}
        # Numeric keys still sum across the pool exactly as before.
        assert bucket["requests"] == 0


class TestInstrumentSeam:
    def test_disabled_by_default_and_clearable(self):
        assert obs.active() is None
        bundle = obs.instrument()
        assert obs.active() is bundle and bundle.registry is obs.REGISTRY
        assert obs.instrument(enabled=False) is None
        assert obs.active() is None

    def test_search_run_is_recorded_when_instrumented(self):
        from repro.core.search import ExactRuleSearch
        from repro.core.state import CoverState

        rng = np.random.default_rng(2)
        dataset = TwoViewDataset(
            rng.random((30, 8)) < 0.45, rng.random((30, 6)) < 0.45, name="seam"
        )
        registry = obs.MetricsRegistry()
        obs.instrument(registry=registry)
        search = ExactRuleSearch(CoverState(dataset))
        search.find_best_rule()
        obs.instrument(enabled=False)
        search.find_best_rule()  # not counted: seam is off again
        __, samples = obs.parse_exposition(registry.render())
        runs = sum(
            value for name, __l, value in samples
            if name == "repro_search_runs_total"
        )
        assert runs == 1.0
        seconds = [
            value for name, __l, value in samples
            if name == "repro_search_seconds_count"
        ]
        assert seconds == [1.0]

    def test_metrics_lint_passes_end_to_end(self, capsys):
        """scripts/check_metrics.py: valid expositions, complete catalog."""
        assert check_metrics.main() == 0
        assert "families documented" in capsys.readouterr().out

    def test_lint_catches_a_bad_exposition(self):
        malformed = "# TYPE 0bad counter\n0bad{ 1\n"
        assert any(
            "unparseable" in error
            for error in check_metrics.validate_exposition(malformed)
        )
        misnamed = "# TYPE bad_hits counter\nbad_hits 1\n"
        assert any(
            "should end in _total" in error
            for error in check_metrics.validate_exposition(misnamed)
        )
