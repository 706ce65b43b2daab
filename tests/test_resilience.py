"""Fault-tolerance tests (``pytest -m chaos_smoke``).

Chaos engineering as unit tests: every scenario injects a *scripted*
failure (torn write, crash between publish steps, mid-stream process
death, stalled client, corrupt registry) through
:mod:`repro.resilience.faults` and asserts the system degrades the way
the docs promise — quarantined versions, healed ``LATEST`` pointers,
bit-identical crash-resume, graceful drains with zero dropped requests,
stale-flagged last-good responses.  All fault plans are deterministic
(exact replays, no roulette) and no test sleeps longer than 0.1s.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.core.translator import TranslatorExact
from repro.resilience import (
    CheckpointError,
    CircuitBreaker,
    CircuitOpenError,
    CrashPoint,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    Supervisor,
    WindowCheckpoint,
    fault_point,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.supervisor import CHECKPOINT
from repro.serve import (
    ArtifactError,
    ModelArtifact,
    ModelRegistry,
    PredictionServer,
    PredictionService,
    ReplicaRouter,
    local_replica_factory,
)
from repro.stream import MaintenanceLoop, RefitPolicy, StreamBuffer
from repro.stream.source import JsonlSource
from tests.container_cases import ContainerCorruptionCases, forge

pytestmark = pytest.mark.chaos_smoke

N_LEFT, N_RIGHT = 6, 5


def random_table(seed: int, n_rules: int = 5) -> TranslationTable:
    rng = np.random.default_rng(seed)
    rules = set()
    while len(rules) < n_rules:
        lhs = tuple(
            sorted(rng.choice(N_LEFT, size=int(rng.integers(1, 3)), replace=False))
        )
        rhs = tuple(
            sorted(rng.choice(N_RIGHT, size=int(rng.integers(1, 3)), replace=False))
        )
        rules.add((lhs, rhs, "->"))
    return TranslationTable(
        TranslationRule(lhs, rhs, direction) for lhs, rhs, direction in sorted(rules)
    )


def tiny_artifact(seed: int, name: str = "live") -> ModelArtifact:
    return ModelArtifact(
        name=name,
        table=random_table(seed),
        left_names=tuple(f"l{i}" for i in range(N_LEFT)),
        right_names=tuple(f"r{i}" for i in range(N_RIGHT)),
        created_unix=float(seed),
    )


def write_rows(path, n_rows: int, seed: int = 0) -> None:
    """A deterministic JSONL stream over the (N_LEFT, N_RIGHT) vocab."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_rows):
        left = sorted(
            int(i)
            for i in rng.choice(N_LEFT, size=int(rng.integers(1, 4)), replace=False)
        )
        right = sorted(
            int(i)
            for i in rng.choice(N_RIGHT, size=int(rng.integers(1, 3)), replace=False)
        )
        lines.append(json.dumps({"left": left, "right": right}))
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        a = list(RetryPolicy(attempts=5, seed=7).delays())
        b = list(RetryPolicy(attempts=5, seed=7).delays())
        c = list(RetryPolicy(attempts=5, seed=8).delays())
        assert a == b
        assert a != c, "distinct seeds must de-synchronise the schedule"

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            attempts=6, base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(attempts=9, base_delay=1.0, max_delay=1.0, jitter=0.25)
        for delay in policy.delays():
            assert 0.75 <= delay <= 1.25

    def test_call_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        sleeps = []
        policy = RetryPolicy(attempts=4, base_delay=0.01, jitter=0.0)
        assert policy.call(flaky, sleep=sleeps.append) == "done"
        assert len(attempts) == 3
        assert sleeps == [0.01, 0.02]

    def test_call_exhausts_and_raises_last_error(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(OSError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(OSError("always")),
                        sleep=lambda _: None)

    def test_deadline_preempts_retries(self):
        tick = iter([0.0, 0.0, 5.0, 5.0, 5.0]).__next__
        deadline = Deadline(1.0, clock=tick)
        calls = []

        def failing():
            calls.append(1)
            raise OSError("down")

        policy = RetryPolicy(attempts=10, base_delay=0.0, jitter=0.0)
        with pytest.raises((OSError, DeadlineExceeded)):
            policy.call(failing, deadline=deadline, sleep=lambda _: None)
        assert len(calls) < 10, "no retry may start past the deadline"

    def test_call_async_retries(self):
        attempts = []

        async def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)
        assert asyncio.run(policy.call_async(flaky)) == "ok"
        assert len(attempts) == 2


class TestDeadline:
    def test_remaining_and_expiry_on_fake_clock(self):
        times = iter([0.0, 0.4, 0.9, 1.1])
        deadline = Deadline(1.0, clock=lambda: next(times))
        assert deadline.remaining() == pytest.approx(0.6)
        assert not deadline.expired()  # clock at 0.9
        with pytest.raises(DeadlineExceeded):
            deadline.check("drain")  # clock at 1.1

    def test_unbounded(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()


class TestCircuitBreaker:
    def make(self, threshold=2, reset=10.0):
        self.now = 0.0
        return CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout=reset,
            clock=lambda: self.now,
        )

    def test_opens_after_threshold_and_recovers_via_probe(self):
        breaker = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError):
            breaker.guard("registry")
        self.now = 10.0  # cooldown elapsed -> half-open, single probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow(), "only one concurrent probe is let through"
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens(self):
        breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        self.now = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        self.now = 15.0
        assert breaker.state == CircuitBreaker.OPEN, "re-opened at the probe time"
        self.now = 20.0
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_call_wrapper(self):
        breaker = self.make(threshold=1)
        with pytest.raises(OSError):
            breaker.call(lambda: (_ for _ in ()).throw(OSError("x")))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_inactive_fault_point_is_a_passthrough(self):
        assert fault_point("anything", data=b"xyz") == b"xyz"
        assert fault_point("anything") is None

    def test_fail_nth_then_recover(self):
        injector = FaultInjector().plan("op.write", kind="error", nth=2)
        with injector.active():
            assert fault_point("op.write", data=b"a") == b"a"
            with pytest.raises(InjectedFault):
                fault_point("op.write", data=b"b")
            assert fault_point("op.write", data=b"c") == b"c"
        assert injector.fired == [("op.write", "error", 2)]

    def test_times_window_and_forever(self):
        injector = FaultInjector().plan("op", kind="error", nth=1, times=2)
        with injector.active():
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    fault_point("op")
            fault_point("op")  # 3rd call: outside the window
        forever = FaultInjector().plan("op", kind="error", times=-1)
        with forever.active():
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    fault_point("op")

    def test_corrupt_flips_one_byte(self):
        injector = FaultInjector().plan("op", kind="corrupt", at=1)
        with injector.active():
            mangled = fault_point("op", data=b"abc")
        assert mangled == bytes([ord("a"), ord("b") ^ 0xFF, ord("c")])

    def test_truncate_keeps_a_prefix(self):
        injector = FaultInjector().plan("op", kind="truncate", at=3)
        with injector.active():
            assert fault_point("op", data=b"abcdef") == b"abc"

    def test_crash_is_a_base_exception(self):
        injector = FaultInjector().plan("op", kind="crash")
        with injector.active():
            caught = None
            try:
                try:
                    fault_point("op")
                except Exception:  # ordinary recovery code must NOT see it
                    pytest.fail("CrashPoint must pierce `except Exception`")
            except CrashPoint as crash:
                caught = crash
        assert caught is not None

    def test_wildcard_pattern_and_uninstall(self):
        injector = FaultInjector().plan("registry.*", kind="error")
        with injector.active():
            with pytest.raises(InjectedFault):
                fault_point("registry.artifact.bytes")
        # Out of the context manager: the hook is a no-op again.
        assert fault_point("registry.artifact.bytes", data=b"ok") == b"ok"

    def test_delay_passes_data_through(self):
        injector = FaultInjector().plan("op", kind="delay", delay=0.0)
        with injector.active():
            assert fault_point("op", data=b"d") == b"d"
        assert injector.fired == [("op", "delay", 1)]


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_restarts_until_success(self):
        async def scenario():
            async def flaky(attempt: int):
                if attempt < 2:
                    raise RuntimeError(f"boom {attempt}")
                return "recovered"

            supervisor = Supervisor(flaky, max_restarts=3)
            return await supervisor.run(), supervisor

        result, supervisor = asyncio.run(scenario())
        assert result == "recovered"
        assert supervisor.restarts == 2
        assert [event.attempt for event in supervisor.events] == [1, 2]
        assert "boom 0" in supervisor.events[0].error

    def test_gives_up_and_reraises_terminal_failure(self):
        async def scenario():
            async def doomed(attempt: int):
                raise ValueError(f"fatal {attempt}")

            supervisor = Supervisor(doomed, max_restarts=1)
            with pytest.raises(ValueError, match="fatal 1"):
                await supervisor.run()
            return supervisor

        supervisor = asyncio.run(scenario())
        assert supervisor.restarts == 1

    def test_restarts_on_crash_point(self):
        async def scenario():
            async def dying(attempt: int):
                if attempt == 0:
                    raise CrashPoint("simulated kill -9")
                return attempt

            supervisor = Supervisor(dying, max_restarts=1)
            return await supervisor.run()

        assert asyncio.run(scenario()) == 1

    def test_cancellation_propagates(self):
        async def scenario():
            started = asyncio.Event()

            async def hang(attempt: int):
                started.set()
                await asyncio.sleep(60)

            supervisor = Supervisor(hang, max_restarts=5)
            task = asyncio.ensure_future(supervisor.run())
            await started.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert supervisor.restarts == 0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpoints:
    def filled_buffer(self, n_rows=10, seed=0):
        rng = np.random.default_rng(seed)
        buffer = StreamBuffer(N_LEFT, N_RIGHT)
        buffer.append(
            rng.random((n_rows, N_LEFT)) < 0.4,
            rng.random((n_rows, N_RIGHT)) < 0.4,
        )
        return buffer

    def test_roundtrip_restores_window_and_counters(self, tmp_path):
        buffer = self.filled_buffer()
        buffer.evict(2)
        checkpoint = WindowCheckpoint.capture(
            buffer, "live", rows_seen=10, rows_since_check=3, published_version=4
        )
        path = save_checkpoint(tmp_path / "live.ckpt", checkpoint)
        loaded = load_checkpoint(path)
        assert loaded is not None
        assert (loaded.model_name, loaded.rows_seen) == ("live", 10)
        assert (loaded.rows_since_check, loaded.published_version) == (3, 4)
        restored = StreamBuffer(N_LEFT, N_RIGHT)
        loaded.restore_into(restored)
        original = buffer.window_dataset()
        window = restored.window_dataset()
        assert np.array_equal(window.left, original.left)
        assert np.array_equal(window.right, original.right)
        assert restored.appended_total == 10
        assert restored.evicted_total == 2

    def test_capture_is_a_copy(self, tmp_path):
        buffer = self.filled_buffer()
        checkpoint = WindowCheckpoint.capture(buffer, "live", rows_seen=10)
        before = checkpoint.left.copy()
        buffer.append(
            np.ones((1, N_LEFT), dtype=bool), np.ones((1, N_RIGHT), dtype=bool)
        )
        assert np.array_equal(checkpoint.left, before)

    def test_missing_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.ckpt") is None

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_torn_tail_raises(self, tmp_path):
        buffer = self.filled_buffer()
        path = save_checkpoint(
            tmp_path / "live.ckpt",
            WindowCheckpoint.capture(buffer, "live", rows_seen=10),
        )
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 24])  # torn write: lost tail
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_restore_refuses_nonempty_buffer_and_wrong_vocab(self, tmp_path):
        checkpoint = WindowCheckpoint.capture(
            self.filled_buffer(), "live", rows_seen=10
        )
        with pytest.raises(ValueError, match="empty buffer"):
            checkpoint.restore_into(self.filled_buffer(seed=1))
        with pytest.raises(CheckpointError, match="vocabularies"):
            checkpoint.restore_into(StreamBuffer(N_LEFT + 1, N_RIGHT))

    def test_crash_during_save_preserves_previous_checkpoint(self, tmp_path):
        path = tmp_path / "live.ckpt"
        save_checkpoint(
            path, WindowCheckpoint.capture(self.filled_buffer(), "live", rows_seen=10)
        )
        injector = FaultInjector().plan("checkpoint.replace", kind="crash")
        with injector.active():
            with pytest.raises(CrashPoint):
                save_checkpoint(
                    path,
                    WindowCheckpoint.capture(
                        self.filled_buffer(seed=1), "live", rows_seen=20
                    ),
                )
        survivor = load_checkpoint(path)
        assert survivor is not None and survivor.rows_seen == 10


class TestCheckpointCorruption(ContainerCorruptionCases):
    """A damaged or forged checkpoint raises CheckpointError, never resumes.

    The container-level cases come from the suite every schema shares;
    ``load_checkpoint`` raises them as :class:`CheckpointError` with the
    container's error as the cause.
    """

    schema = CHECKPOINT

    @pytest.fixture()
    def container_file(self, tmp_path):
        rng = np.random.default_rng(0)
        buffer = StreamBuffer(N_LEFT, N_RIGHT)
        buffer.append(rng.random((70, N_LEFT)) < 0.4, rng.random((70, N_RIGHT)) < 0.4)
        checkpoint = WindowCheckpoint.capture(buffer, "live", rows_seen=70)
        return save_checkpoint(tmp_path / "live.ckpt", checkpoint)

    def load(self, path):
        try:
            load_checkpoint(path)
        except ArtifactError as error:
            assert isinstance(error, CheckpointError), "the loop catches only these"
            raise

    @pytest.mark.parametrize(
        "field, value, resign",
        [
            ("rows_seen", 10000, False),
            ("rows_seen", -5, False),
            ("rows_seen", -5, True),
            ("rows_seen", "x", True),
            ("model_name", None, True),
            ("model_name", 7, True),
            ("published_version", "3", True),
            ("n_rows", 10**6, True),
        ],
    )
    def test_forged_metadata_raises(self, container_file, field, value, resign):
        """The digest signs the header; re-signed fields are type-checked.

        A ``value`` of ``None`` deletes the field.
        """

        def edit(meta):
            if value is None:
                del meta[field]
            else:
                meta[field] = value

        forge(container_file, CHECKPOINT, edit, resign=resign)
        with pytest.raises(CheckpointError):
            load_checkpoint(container_file)


# ----------------------------------------------------------------------
# Registry chaos
# ----------------------------------------------------------------------
class TestRegistryChaos:
    def test_torn_artifact_write_is_quarantined_and_latest_heals(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        injector = FaultInjector().plan(
            "registry.artifact.bytes", kind="truncate", nth=1
        )
        with injector.active():
            registry.publish(tiny_artifact(seed=2))  # v2's bytes are torn
        assert injector.fired
        with pytest.raises(ArtifactError):
            registry.load("live")  # latest -> v2 -> corrupt -> quarantine
        assert registry.versions("live") == [1]
        assert registry.latest_version("live") == 1, "LATEST healed to survivor"
        assert len(registry.quarantined("live")) == 1
        assert registry.load("live").version == 1, "the torn model never serves"

    def test_crash_between_artifact_and_latest_keeps_old_pointer(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        injector = FaultInjector().plan("registry.publish.before_latest", kind="crash")
        with injector.active():
            with pytest.raises(CrashPoint):
                registry.publish(tiny_artifact(seed=2))
        # v2 was fully (and durably) written, but readers keep getting v1
        # until someone repoints LATEST — the intended failure mode.
        assert registry.versions("live") == [1, 2]
        assert registry.latest_version("live") == 1
        assert registry.load("live").version == 1
        assert registry.load("live", 2).version == 2  # intact, just unlinked

    def test_corrupt_latest_bytes_never_reach_disk_silently(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        registry.publish(tiny_artifact(seed=2))
        injector = FaultInjector().plan("registry.latest.bytes", kind="corrupt")
        with injector.active():
            registry.set_latest("live", 1)
        # The pointer's bytes were flipped in flight; the bounded-retry
        # reader rejects garbage instead of serving a wrong version.
        with pytest.raises((ArtifactError, KeyError)):
            registry.latest_version("live")


# ----------------------------------------------------------------------
# Service degradation
# ----------------------------------------------------------------------
REQUEST = {"model": "live", "target": "R", "rows": [[0, 1]]}


class TestServiceDegradation:
    def make_service(self, registry, **kwargs):
        kwargs.setdefault("max_delay_ms", 0.0)
        kwargs.setdefault("latest_ttl_seconds", 0.0)
        return PredictionService(registry, **kwargs)

    def test_last_good_serves_through_corrupt_latest(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        service = self.make_service(registry)

        async def scenario():
            first = await service.predict(dict(REQUEST))
            assert first["version"] == 1 and "stale" not in first
            assert service.readyz_payload()["status"] == "ready"

            registry.publish(tiny_artifact(seed=2))
            path = registry.artifact_path("live", 2)
            path.write_text(path.read_text()[:-40])  # torn on disk

            degraded = await service.predict(dict(REQUEST))
            assert degraded["version"] == 1, "answered from last-good v1"
            assert degraded["stale"] is True
            ready = service.readyz_payload()
            assert ready["status"] == "degraded"
            assert ready["degraded_models"] == ["live"]
            assert ready["stale_responses"] == {"live": 1}
            assert registry.quarantined("live"), "corrupt v2 was quarantined"

            registry.publish(tiny_artifact(seed=3))  # healthy again
            recovered = await service.predict(dict(REQUEST))
            assert recovered["version"] == 2 and "stale" not in recovered
            assert service.readyz_payload()["status"] == "ready"

        asyncio.run(scenario())

    def test_breaker_turns_repeated_failures_into_503(self, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        service = self.make_service(
            registry,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_timeout=60.0
            ),
        )
        monkeypatch.setattr(
            registry,
            "load",
            lambda *a, **k: (_ for _ in ()).throw(ArtifactError("disk on fire")),
        )
        body = json.dumps({**REQUEST, "version": 1}).encode()

        async def scenario():
            first_status, _ = await service.handle("POST", "/predict", body)
            second_status, payload = await service.handle("POST", "/predict", body)
            return first_status, second_status, payload

        first_status, second_status, payload = asyncio.run(scenario())
        assert first_status == 500, "first failure is an honest server error"
        assert second_status == 503, "open breaker refuses without a disk read"
        assert "circuit" in payload["error"]
        assert service.readyz_payload()["breakers"]["live"] == "open"

    def test_cached_artifacts_survive_registry_loss(self, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        service = self.make_service(registry, cache_size=0)

        async def scenario():
            await service.predict(dict(REQUEST))  # loads + memoises v1
            monkeypatch.setattr(
                registry,
                "load",
                lambda *a, **k: (_ for _ in ()).throw(ArtifactError("gone")),
            )
            response = await service.predict({**REQUEST, "version": 1})
            assert response["version"] == 1

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Server: drain, slow-loris, readiness
# ----------------------------------------------------------------------
async def http_call(port: int, raw: bytes) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    head, __, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def predict_request() -> bytes:
    body = json.dumps(REQUEST).encode()
    return (
        b"POST /predict HTTP/1.1\r\nContent-Length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


def slow_down(service: PredictionService) -> None:
    """Keep each of the service's ``/predict`` requests in flight 50ms."""
    inner_predict = service.predict

    async def slow_predict(request):
        await asyncio.sleep(0.05)
        return await inner_predict(request)

    service.predict = slow_predict


class TestServerChaos:
    def test_drain_completes_all_inflight_requests(self, tmp_path):
        """A bare server and the router (same front) drain alike."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))
        n_clients = 64
        service_config = {"max_delay_ms": 0.0, "cache_size": 0}

        async def bare_server():
            service = PredictionService(registry, **service_config)
            slow_down(service)
            server = PredictionServer(service, port=0)
            await server.start()
            return server

        async def router():
            router = ReplicaRouter(
                local_replica_factory(registry, service_config=service_config),
                workers=2,
                probe_interval=0,
            )
            await router.start()
            for replica in router.replicas:
                slow_down(replica.server.service)  # type: ignore[attr-defined]
            return router

        async def scenario(start_front):
            server = await start_front()
            clients = [
                asyncio.ensure_future(http_call(server.port, predict_request()))
                for _ in range(n_clients)
            ]
            deadline = Deadline(2.0)
            while server.inflight < n_clients:
                deadline.check("waiting for all requests to be in flight")
                await asyncio.sleep(0.002)
            summary = await server.stop(drain_timeout=5.0)
            responses = await asyncio.gather(*clients)
            # The listener is closed: a late client cannot even connect.
            with pytest.raises(OSError):
                await http_call(server.port, predict_request())
            return summary, responses

        for start_front in (bare_server, router):
            summary, responses = asyncio.run(scenario(start_front))
            assert summary["inflight_at_stop"] == n_clients
            assert summary["cancelled"] == 0, "drain must never reset a request"
            assert summary["completed"] == n_clients
            statuses = [status for status, _ in responses]
            assert statuses == [200] * n_clients
            assert all(payload["model"] == "live" for _, payload in responses)

    def test_slow_loris_gets_408_not_a_pinned_task(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))

        async def scenario(server):
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A request line with no terminator: the client stalls.
                writer.write(b"POST /predict HTTP/1.1\r\nContent-Le")
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                head, __, body = response.partition(b"\r\n\r\n")
                return int(head.split()[1]), json.loads(body)
            finally:
                await server.stop(drain_timeout=0.1)

        fronts = (
            PredictionServer(
                PredictionService(registry, max_delay_ms=0.0),
                port=0,
                read_timeout=0.05,
            ),
            ReplicaRouter(
                local_replica_factory(registry),
                workers=1,
                probe_interval=0,
                read_timeout=0.05,
            ),
        )
        for front in fronts:
            status, payload = asyncio.run(scenario(front))
            assert status == 408
            assert "not received within" in payload["error"]

    def test_readyz_transitions(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(tiny_artifact(seed=1))

        async def scenario():
            service = PredictionService(registry, max_delay_ms=0.0)
            server = PredictionServer(service, port=0)
            await server.start()
            live = await http_call(server.port, b"GET /readyz HTTP/1.1\r\n\r\n")
            await server.stop(drain_timeout=0.1)
            drained = await service.handle("GET", "/readyz")
            return live, drained

        live, drained = asyncio.run(scenario())
        assert live[0] == 200 and live[1]["status"] == "ready"
        assert drained[0] == 503 and drained[1]["status"] == "draining"


# ----------------------------------------------------------------------
# Crash-and-resume bit-identity
# ----------------------------------------------------------------------
def make_loop(rows_path, registry, checkpoint_dir=None) -> MaintenanceLoop:
    return MaintenanceLoop(
        JsonlSource(rows_path),
        StreamBuffer(N_LEFT, N_RIGHT),
        registry,
        "live",
        TranslatorExact(max_rule_size=2),
        policy=RefitPolicy(
            window=64, check_every=32, min_rows=16, always_publish=True
        ),
        checkpoint_dir=checkpoint_dir,
    )


class TestCrashResume:
    def published_payloads(self, registry) -> list[dict]:
        return [
            registry.load("live", version).table.to_payload()
            for version in registry.versions("live")
        ]

    def test_resumed_run_publishes_bit_identical_models(self, tmp_path):
        rows_path = tmp_path / "rows.jsonl"
        write_rows(rows_path, 120, seed=3)

        # Reference: one uncrashed run.
        clean_registry = ModelRegistry(tmp_path / "clean")
        asyncio.run(make_loop(rows_path, clean_registry).run())
        clean = self.published_payloads(clean_registry)
        assert len(clean) >= 3, "the stream must produce several versions"

        # Chaos: the process dies at row 80 (between the checkpoints at
        # rows 64 and 96); the supervisor restarts a fresh loop that
        # resumes from the row-64 checkpoint.
        chaos_registry = ModelRegistry(tmp_path / "chaos")
        checkpoint_dir = tmp_path / "ckpt"
        loops: list[MaintenanceLoop] = []

        def attempt(number: int):
            loop = make_loop(rows_path, chaos_registry, checkpoint_dir)
            loops.append(loop)
            return loop.run()

        supervisor = Supervisor(attempt, max_restarts=2)
        injector = FaultInjector().plan("maintenance.row", kind="crash", nth=80)

        async def scenario():
            with injector.active():
                await supervisor.run()

        asyncio.run(scenario())
        assert injector.fired == [("maintenance.row", "crash", 80)]
        assert supervisor.restarts == 1
        assert loops[-1].resumed_rows == 64, "resumed from the row-64 checkpoint"
        assert self.published_payloads(chaos_registry) == clean

    def test_unreadable_checkpoint_falls_back_to_fresh_start(self, tmp_path):
        rows_path = tmp_path / "rows.jsonl"
        write_rows(rows_path, 40, seed=5)
        checkpoint_dir = tmp_path / "ckpt"
        checkpoint_dir.mkdir()
        path = checkpoint_dir / "live.ckpt"
        save_checkpoint(
            path,
            WindowCheckpoint.capture(StreamBuffer(N_LEFT, N_RIGHT), "live", 8),
        )
        # A re-signed checkpoint missing a field, then plain garbage.
        forge(path, CHECKPOINT, lambda meta: meta.pop("model_name"))
        damages = (path.read_bytes(), b"garbage, not a checkpoint")
        for attempt, damage in enumerate(damages):
            path.write_bytes(damage)
            registry = ModelRegistry(tmp_path / f"registry-{attempt}")
            loop = make_loop(rows_path, registry, checkpoint_dir)
            asyncio.run(loop.run())
            assert loop.checkpoint_recovery_error is not None
            assert loop.resumed_rows == 0
            assert loop.rows_seen == 40
            assert registry.versions("live"), "the run still publishes"
            # The bad checkpoint was overwritten by a good one at the next check.
            assert load_checkpoint(path) is not None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestResilienceCli:
    def test_stream_with_checkpoint_and_supervision(self, tmp_path, capsys):
        from repro.cli import main

        rows_path = tmp_path / "rows.jsonl"
        write_rows(rows_path, 40, seed=1)
        # A malformed line mid-stream: lenient ingestion skips + counts it.
        lines = rows_path.read_text().splitlines()
        lines.insert(10, "{broken json")
        rows_path.write_text("\n".join(lines) + "\n")

        checkpoint_dir = tmp_path / "ckpt"
        assert main([
            "stream", str(rows_path),
            "--registry", str(tmp_path / "registry"),
            "--name", "live", "--n-left", str(N_LEFT), "--n-right", str(N_RIGHT),
            "--window", "32", "--check-every", "16", "--min-rows", "8",
            "--max-rule-size", "2", "--always-publish",
            "--checkpoint-dir", str(checkpoint_dir), "--max-restarts", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 malformed source line(s) skipped" in out
        assert load_checkpoint(checkpoint_dir / "live.ckpt") is not None

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--registry", "r",
            "--read-timeout", "2.5", "--drain-timeout", "0.5",
        ])
        assert args.read_timeout == 2.5
        assert args.drain_timeout == 0.5
