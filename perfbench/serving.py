"""Prediction-server processes, the seeded request stream and the load generator.

The server runs as ``python -m repro serve`` in its own process on a
port picked here; readiness is polled on ``/readyz`` because the
command prints its URL before it binds.  The load generator is a closed
loop: each connection sends its next request only after the previous
reply arrived, like a scoring client or the replica router in front of
a worker.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

MODEL = "house-greedy"
#: Share of requests that repeat an earlier one, so the response cache answers them.
REPEAT_SHARE = 0.11
#: Repeats pick among the last this-many distinct requests, well inside
#: the server's default 1024-entry response cache.
REPEAT_WINDOW = 256
MAX_ROWS = 4
#: Chance that one item of a sampled house row is flipped, so that
#: distinct requests rarely coincide.
FLIP = 0.1
CONNECTIONS = 2


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


def free_port() -> int:
    """A TCP port nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def exchange(port: int, request: bytes, timeout: float = 30.0) -> tuple[int, bytes]:
    """Send one raw HTTP request; return ``(status, body)`` once the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, __, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, body


def http_request(method: str, path: str, body: bytes = b"", trace: str | None = None) -> bytes:
    """A complete HTTP/1.1 request, optionally carrying ``X-Repro-Trace``."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    )
    if trace is not None:
        head += f"X-Repro-Trace: {trace}\r\n"
    return (head + "\r\n").encode("ascii") + body


def get_json(port: int, path: str) -> dict:
    """``GET path`` as a JSON document; raises unless the status is 200."""
    status, body = exchange(port, http_request("GET", path))
    if status != 200:
        raise ServerError(f"GET {path} answered {status}")
    return json.loads(body)


def get_text(port: int, path: str) -> str:
    """``GET path`` as text; raises unless the status is 200."""
    status, body = exchange(port, http_request("GET", path))
    if status != 200:
        raise ServerError(f"GET {path} answered {status}")
    return body.decode("utf-8")


class Server:
    """One ``repro serve`` process over ``registry``."""

    def __init__(self, root: Path, registry: Path, log: Path, trace_dir: Path | None = None):
        self.root = root
        self.registry = registry
        self.log = log
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.spawned = 0.0

    def spawn(self) -> None:
        """Start the process; :meth:`wait_ready` then waits for it to bind."""
        self.port = free_port()
        command = [
            sys.executable, "-m", "repro", "serve",
            "--registry", str(self.registry),
            "--host", "127.0.0.1",
            "--port", str(self.port),
        ]
        if self.trace_dir is not None:
            command += ["--metrics", "--trace-dir", str(self.trace_dir)]
        with open(self.log, "ab") as log:
            self.spawned = time.perf_counter()
            self.proc = subprocess.Popen(
                command, cwd=self.root, stdout=log, stderr=subprocess.STDOUT
            )

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Poll ``/readyz`` until it answers 200; seconds since spawn."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServerError(f"server exited with {self.proc.returncode}; see {self.log}")
            try:
                status, __ = exchange(self.port, http_request("GET", "/readyz"), timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.spawned
            time.sleep(0.005)
        raise ServerError(f"server not ready within {timeout:g}s; see {self.log}")

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, a bounded wait, then SIGKILL; raise if it still runs."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        if proc.poll() is None:
            raise ServerError(f"server process {proc.pid} survived SIGKILL")


class RequestStream:
    """Seeded ``/predict`` requests over house rows, with their expected answers.

    Each distinct request holds 1-4 rows of the dataset's left view with
    items flipped at random; about ``REPEAT_SHARE`` of the stream repeats
    a recent distinct request.  Expected answers come from
    ``predict_view(..., engine="loop")``, the per-rule reference path.
    """

    def __init__(self, data, table, seed: int, size: int) -> None:
        import numpy as np

        from repro import Side
        from repro.core import predict_view

        rng = np.random.default_rng([seed, 1])
        sizes = rng.integers(1, MAX_ROWS + 1, size)
        repeat = rng.random(size) < REPEAT_SHARE
        repeat[0] = False
        pick = rng.random(size)
        distinct_sizes = sizes[~repeat]
        picks = rng.integers(0, data.n_transactions, int(distinct_sizes.sum()))
        rows = data.left[picks] ^ (rng.random((picks.size, data.n_left)) < FLIP)
        predicted = predict_view(rows, table, Side.RIGHT, data.n_right, engine="loop")
        items = [np.flatnonzero(row).tolist() for row in rows]
        answers = [np.flatnonzero(row).tolist() for row in predicted]
        self.bodies: list[bytes] = []
        self.expected: list[list[list[int]]] = []
        offset = 0
        for count in distinct_sizes.tolist():
            self.bodies.append(
                json.dumps(
                    {"model": MODEL, "target": "R", "rows": items[offset : offset + count]}
                ).encode("utf-8")
            )
            self.expected.append(answers[offset : offset + count])
            offset += count
        #: position in the stream -> index of a distinct request
        self.order: list[int] = []
        made = 0
        for index in range(size):
            if repeat[index]:
                window = min(made, REPEAT_WINDOW)
                self.order.append(made - 1 - int(pick[index] * window))
            else:
                self.order.append(made)
                made += 1

    def __len__(self) -> int:
        return len(self.order)


class Target:
    """One server the load generator sends to, with its own stream cursor."""

    def __init__(self, port: int, traced: bool) -> None:
        self.port = port
        self.traced = traced
        self.cursor = itertools.count()


def run_closed_loop(
    stream: RequestStream,
    targets: list[Target],
    seconds: float,
    slice_seconds: float = 1.0,
) -> tuple[list[tuple[int, float, bool, int]], float, list[float]]:
    """Drive ``CONNECTIONS`` closed-loop clients for ``seconds``.

    The phase is cut into slices of ``slice_seconds``.  With several
    targets the clients switch target at each slice, so each target sees
    the same machine.  Returns ``(samples, elapsed, rates)``; a sample is
    ``(target, seconds, correct, status)``, status 0 for a connection
    error, and ``rates`` holds the requests completed per second in each
    slice.
    """
    samples: list[tuple[int, float, bool, int]] = []
    stop = threading.Event()
    current = [0]
    trace_ids = itertools.count(1)

    def client() -> None:
        clock = time.perf_counter
        while not stop.is_set():
            which = current[0]
            target = targets[which]
            distinct = stream.order[next(target.cursor) % len(stream)]
            trace = None
            if target.traced:
                trace = f"{next(trace_ids):016x}-{1:016x}"
            request = http_request("POST", "/predict", stream.bodies[distinct], trace)
            started = clock()
            try:
                status, body = exchange(target.port, request)
            except OSError:
                status, body = 0, b""
            elapsed = clock() - started
            correct = False
            if status == 200:
                try:
                    correct = json.loads(body)["predictions"] == stream.expected[distinct]
                except (ValueError, KeyError, TypeError):
                    correct = False
            samples.append((which, elapsed, correct, status))

    threads = [threading.Thread(target=client, daemon=True) for __ in range(CONNECTIONS)]
    rates: list[float] = []
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    while (now := time.perf_counter()) - started < seconds:
        done = len(samples)
        time.sleep(min(slice_seconds, seconds - (now - started)))
        rates.append((len(samples) - done) / (time.perf_counter() - now))
        current[0] = (current[0] + 1) % len(targets)
    stop.set()
    for thread in threads:
        thread.join(timeout=60.0)
    if any(thread.is_alive() for thread in threads):
        raise ServerError("a load-generator connection did not finish")
    return samples, time.perf_counter() - started, rates
