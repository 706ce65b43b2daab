"""One benchmark process: set a workload up, then run its ops.

``run.py`` starts this script in a fresh interpreter with a pinned
environment, in one of three modes:

* ``warm``: compile the bytecode and the native kernel, report versions;
* ``cold``: set the workload up (one ``setup_s`` sample) and exit;
* ``measure``: set up, then run ops for ``--seconds``, check each
  result, and report timings (``--trace 0``) or per-layer figures
  (``--trace 1``).

The result is written as JSON to ``--out``.  Setup ends at the
``time.monotonic()`` stamp it reports; ``run.py`` took the same clock
just before it spawned the process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import serving
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds between machine-speed probes during a fit phase.
PROBE_EVERY = 5.0


def probe_ms() -> float:
    """Time a fixed pure-Python loop: a machine-speed diagnostic, never a metric."""
    started = time.perf_counter()
    total = 0
    for value in range(250_000):
        total += value * value % 7
    return 1000.0 * (time.perf_counter() - started)


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# warm


def warm(args) -> dict:
    import compileall
    import platform

    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    import numpy

    import repro.cli  # noqa: F401  (what ``python -m repro serve`` imports)
    import repro.native

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native": repro.native.build_info(),
        "repro": repro.__version__,
    }


# ----------------------------------------------------------------------
# fit workloads


def layer_metrics(
    spans: list[list], absent: list[str], wall_ms: float
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer figures of one traced fit op, or of serve-predict's fit and publish.

    Also returns a mark for each figure whose span never ran (``idle``)
    or whose wrapped name is gone (``absent``, see ``tracing.Recorder``).
    """
    calls = tracing.summarize(spans)

    def total(name: str) -> float:
        return calls.get(name, {}).get("total_ms", 0.0)

    def count(name: str) -> float:
        return calls.get(name, {}).get("calls", 0)

    stats = tracing.results(spans, "core.search.find_best_rule")
    visited = sum(s.nodes_visited for s in stats)
    pruned = sum(s.nodes_pruned_rub for s in stats)
    evaluated = sum(s.evaluations for s in stats)
    skipped = sum(s.evaluations_skipped_qub for s in stats)
    native_calls = sum(e["calls"] for n, e in calls.items() if n.startswith("native."))
    native_ms = sum(e["total_ms"] for n, e in calls.items() if n.startswith("native."))
    fits = tracing.results(spans, "core.translator.fit")
    iterations = sum(len(result.history) for result in fits)
    mined = tracing.results(spans, "mining.auto_minsup")
    candidates = sum(len(found[1]) for found in mined)
    passed = sum(tracing.results(spans, "mining.pass"))
    self_ms = tracing.layer_self_ms(spans)
    below_translator = sum(ms for layer, ms in self_ms.items() if layer != "core.translator")
    fit, search = "core.translator.fit", "core.search.find_best_rule"
    # (metric, the span or span-name prefix it is computed from, value)
    figures = (
        ("core.translator.fit_ms", fit, total(fit)),
        ("core.translator.self_ms", fit, self_ms.get("core.translator", 0.0)),
        ("core.translator.iterations", fit, iterations),
        ("core.translator.rescore_share", "mining.auto_minsup",
         ratio(count("core.state.best_direction"), candidates * iterations)),
        ("core.search.busy_ms", search, total(search)),
        ("core.search.self_ms", search, self_ms.get("core.search", 0.0)),
        ("core.search.calls", search, count(search)),
        ("core.search.nodes_visited", search, visited),
        ("core.search.nodes_pruned_rub", search, pruned),
        ("core.search.evaluations", search, evaluated),
        ("core.search.evaluations_skipped_qub", search, skipped),
        ("core.search.us_per_node", search, ratio(1000.0 * total(search), visited)),
        ("core.search.prune_ratio", search, ratio(pruned, visited + pruned)),
        ("core.search.qub_skip_ratio", search, ratio(skipped, evaluated + skipped)),
        ("core.search.cache_build_ms", "core.search.cache_build", total("core.search.cache_build")),
        ("native.calls", "native", native_calls),
        ("native.busy_ms", "native", native_ms),
        ("native.us_per_call", "native", ratio(1000.0 * native_ms, native_calls)),
        ("native.self_ms", "native", self_ms.get("native", 0.0)),
        ("core.state.init_ms", "core.state.init", total("core.state.init")),
        ("core.state.add_rule_ms", "core.state.add_rule", total("core.state.add_rule")),
        ("core.state.add_rule_calls", "core.state.add_rule", count("core.state.add_rule")),
        ("core.state.best_direction_ms", "core.state.best_direction",
         total("core.state.best_direction")),
        ("core.state.best_direction_calls", "core.state.best_direction",
         count("core.state.best_direction")),
        ("core.state.gain_calls", "core.state.gain", count("core.state.gain")),
        ("core.state.self_ms", "core.state", self_ms.get("core.state", 0.0)),
        ("mining.auto_minsup_ms", "mining.auto_minsup", total("mining.auto_minsup")),
        ("mining.passes", "mining.pass", count("mining.pass")),
        ("mining.pass_ms", "mining.pass", total("mining.pass")),
        ("mining.kept_ratio", "mining.auto_minsup", ratio(candidates, passed)),
        ("mining.self_ms", "mining", self_ms.get("mining", 0.0)),
        ("serve.registry.publish_ms", "serve.registry.publish", total("serve.registry.publish")),
        # Share of the op spent in wrapped layers other than the translator:
        # its own self time, and work outside every span, no layer explains.
        ("trace.coverage", fit, ratio(below_translator, wall_ms)),
    )
    marks = {}
    for name, span, __ in figures:
        if span in absent:
            marks[name] = "absent"
        elif not any(key == span or key.startswith(span + ".") for key in calls):
            marks[name] = "idle"
    return {name: value for name, __, value in figures}, marks


def mean_tables(tables: list[dict]) -> dict[str, dict[str, float]]:
    """Per-op mean of several :func:`tracing.summarize` tables."""
    names = {name for table in tables for name in table}
    return {
        name: {
            field: statistics.fmean(t.get(name, {}).get(field, 0.0) for t in tables)
            for field in ("calls", "total_ms", "self_ms")
        }
        for name in sorted(names)
    }


def check_candidates(spans: list[list]) -> list[str]:
    """Compare select-house's mined candidates with the pin (when auto_minsup was seen)."""
    problems = []
    for minsup, candidates in tracing.results(spans, "mining.auto_minsup"):
        found = {
            "minsup": minsup,
            "count": len(candidates),
            "digest": workloads.candidates_digest(candidates),
        }
        if found != workloads.PINNED_CANDIDATES:
            problems.append(f"candidates: expected {workloads.PINNED_CANDIDATES}, got {found}")
    return problems


def measure_fits(args, data, record: dict) -> dict:
    from repro import obs

    recorder = tracing.Recorder() if args.trace else None
    ops: list[dict] = []
    layers: list[dict] = []
    marks: dict[str, str] = {}
    tables: list[dict] = []
    problems: list[str] = []
    backends: set[str] = set()
    first = None
    probes = [probe_ms()]
    last_probe = time.monotonic()
    started = time.monotonic()
    last: tuple[int, list[list]] | None = None
    while True:
        # Release the previous op's result first, so every op starts from
        # the same heap and the peak RSS does not grow with the op count.
        result = None
        gc.collect()
        traced = bool(args.trace) and len(ops) % 2 == 1
        if traced:
            recorder.install()
            obs.instrument(registry=obs.MetricsRegistry())
        clock = time.perf_counter()
        error = None
        try:
            result = workloads.make_translator(args.workload).fit(data)
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        op_ms = 1000.0 * (time.perf_counter() - clock)
        if traced:
            obs.instrument(enabled=False)
            recorder.uninstall()
            spans = recorder.take()
        op_problems = [error] if error else []
        if result is not None:
            found, found_problems = workloads.check_fit(args.workload, result, first)
            first = first or found
            op_problems += found_problems
            backends.update(s.backend for s in result.search_stats)
        if traced:
            op_problems += check_candidates(spans)
            values, marks = layer_metrics(spans, recorder.absent, op_ms)
            layers.append(values)
            tables.append(tracing.summarize(spans))
            last = (len(ops), spans)
        problems += [f"op {len(ops)}: {problem}" for problem in op_problems]
        ops.append({"ms": op_ms, "traced": traced, "ok": not op_problems})
        now = time.monotonic()
        if now - last_probe >= PROBE_EVERY:
            probes.append(probe_ms())
            last_probe = time.monotonic()
        enough = now - started >= args.seconds
        if args.trace:
            enough = enough and any(o["traced"] for o in ops) and not all(o["traced"] for o in ops)
        if enough:
            break
    elapsed = time.monotonic() - started
    probes.append(probe_ms())
    if last is not None:
        index, spans = last
        tracing.write_spans(Path(args.work) / "traces" / f"{args.workload}.jsonl", spans, index)
    record.update(
        {
            "ops": ops,
            "problems": problems,
            "backends": sorted(backends),
            "probe_ms": probes,
            "spans": mean_tables(tables),
        }
    )
    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    if args.trace:
        traced_ms = [o["ms"] for o in ops if o["traced"]]
        plain_ms = [o["ms"] for o in ops if not o["traced"]]
        metrics = {
            name: statistics.fmean(layer[name] for layer in layers) for name in layers[0]
        }
        metrics["trace.overhead"] = statistics.median(traced_ms) / statistics.median(plain_ms)
        return {"attempted": attempted, "failed": failed, "layers": metrics, "marks": marks}
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "latency_p50_ms": statistics.median(o["ms"] for o in ops),
            "throughput_rps": attempted / elapsed,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


# ----------------------------------------------------------------------
# serve-predict


class ServeSetup:
    """Fit, publish and start the server(s); ``stop`` undoes all of it."""

    def __init__(self, args, data, recorder) -> None:
        work = Path(args.work)
        self.args = args
        self.layers: dict[str, float] = {}
        self.marks: dict[str, str] = {}
        self.spans: dict[str, dict[str, float]] = {}
        self.problems: list[str] = []
        self.servers: list[serving.Server] = []
        self.directory = work / "tmp" / f"serve-{os.getpid()}-{time.time_ns()}"
        self.directory.mkdir(parents=True)
        try:
            self._start(data, recorder)
        except BaseException:
            self.stop()
            raise

    def _start(self, data, recorder) -> None:
        from repro import ModelArtifact, ModelRegistry, Side, obs
        from repro.core import predict_view

        args, work = self.args, Path(self.args.work)
        if recorder is not None:
            recorder.install()
            obs.instrument(registry=obs.MetricsRegistry())
        fit_started = time.perf_counter()
        result = workloads.make_translator("serve-predict").fit(data)
        self.problems += workloads.check_fit("serve-predict", result, None)[1]
        registry = ModelRegistry(self.directory / "registry")
        artifact = ModelArtifact.from_result(
            serving.MODEL, data, result, {"method": "greedy", "minsup": 27}
        )
        registry.publish(artifact, sidecar=True)
        setup_ms = 1000.0 * (time.perf_counter() - fit_started)
        if recorder is not None:
            obs.instrument(enabled=False)
            recorder.uninstall()
            spans = recorder.take()
            self.layers, self.marks = layer_metrics(spans, recorder.absent, setup_ms)
            self.spans = tracing.summarize(spans)
        trace_dir = work / "traces" / "serve" if args.trace else None
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        self.server = serving.Server(
            ROOT, self.directory / "registry", self.directory / "server.log", trace_dir
        )
        self.servers.append(self.server)
        self.server.spawn()
        size = max(2000, int(800 * args.seconds))
        self.stream = serving.RequestStream(data, result.table, args.seed, size)
        first_rows = data.left[:1]
        first_expected = [
            row.nonzero()[0].tolist()
            for row in predict_view(first_rows, result.table, Side.RIGHT, data.n_right, engine="loop")
        ]
        first_body = json.dumps(
            {"model": serving.MODEL, "target": "R", "rows": [first_rows[0].nonzero()[0].tolist()]}
        ).encode("utf-8")
        self.layers["serve.server.cold_start_ms"] = 1000.0 * self.server.wait_ready()
        clock = time.perf_counter()
        status, body = serving.exchange(
            self.server.port, serving.http_request("POST", "/predict", first_body)
        )
        self.layers["serve.server.first_predict_ms"] = 1000.0 * (time.perf_counter() - clock)
        if status != 200 or json.loads(body).get("predictions") != first_expected:
            self.problems.append(f"first /predict answered {status}: {body[:200]!r}")
        self.first_body, self.first_expected = first_body, first_expected
        self.ready = time.monotonic()

    def plain_server(self) -> serving.Server:
        """A second, untraced server over the same registry (traced runs only)."""
        server = serving.Server(ROOT, self.directory / "registry", self.directory / "plain.log")
        self.servers.append(server)
        server.spawn()
        server.wait_ready()
        status, body = serving.exchange(
            server.port, serving.http_request("POST", "/predict", self.first_body)
        )
        if status != 200 or json.loads(body).get("predictions") != self.first_expected:
            self.problems.append(f"untraced server's first /predict answered {status}")
        return server

    def stop(self) -> None:
        errors = []
        for server in self.servers:
            try:
                server.stop()
            except serving.ServerError as error:
                errors.append(str(error))
        shutil.rmtree(self.directory, ignore_errors=True)
        if errors:
            raise serving.ServerError("; ".join(errors))


def scrape(server: serving.Server) -> dict:
    """Counters of one server: ``/models`` stats, request histogram, CPU time."""
    from repro import obs

    models = serving.get_json(server.port, "/models")
    stats = next(m["stats"] for m in models["models"] if m["name"] == serving.MODEL)
    __, samples = obs.parse_exposition(serving.get_text(server.port, "/metrics"))
    request = {
        name.rsplit("_", 1)[1]: value
        for name, labels, value in samples
        if name in ("repro_serve_request_seconds_sum", "repro_serve_request_seconds_count")
        and labels.get("endpoint") == "/predict"
    }
    return {
        "requests": stats["requests"],
        "cache_hits": stats["cache_hits"],
        "batches": models["batcher"]["batches"],
        "batched_rows": models["batcher"]["batched_rows"],
        "request_sum": request.get("sum", 0.0),
        "request_count": request.get("count", 0.0),
        "cpu": server.cpu_seconds(),
    }


def flush_spans(trace_dir: Path) -> tuple[list[float], list[float], list[int]]:
    """Batcher waits, flush durations and flush rows from the server's span files."""
    records = []
    for path in sorted(trace_dir.glob("spans-*.jsonl*")):
        with open(path, encoding="utf-8") as handle:
            records += [json.loads(line) for line in handle if line.strip()]
    predicts = {r["span_id"]: r for r in records if r["name"] == "serve.predict"}
    waits, durations, rows = [], [], []
    for record in records:
        if record["name"] != "serve.flush":
            continue
        durations.append(record["end_time"] - record["start_time"])
        rows.append(int(record.get("attributes", {}).get("rows", 0)))
        parent = predicts.get(record["parent_id"])
        if parent is not None:
            waits.append(record["start_time"] - parent["start_time"])
    return waits, durations, rows


def measure_serve(args, setup: ServeSetup, record: dict) -> dict:
    targets = [serving.Target(setup.server.port, traced=bool(args.trace))]
    if args.trace:
        targets.append(serving.Target(setup.plain_server().port, traced=False))
    before = scrape(setup.server)
    probes = [probe_ms()]
    cpu = time.process_time()
    samples, elapsed, rates = serving.run_closed_loop(
        setup.stream, targets, args.seconds, slice_seconds=min(1.0, args.seconds / 10)
    )
    cpu = time.process_time() - cpu
    probes.append(probe_ms())
    after = scrape(setup.server)
    server_rss = setup.server.peak_rss_mb()
    delta = {key: after[key] - before[key] for key in after}
    failed = sum(not correct for __, __, correct, __ in samples)
    statuses: dict[str, int] = {}
    for __, __, __, status in samples:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
    record.update(
        {
            "probe_ms": probes,
            "statuses": statuses,
            "requests": len(samples),
            "phase_s": elapsed,
            "slice_rps": rates,
            "server": delta,
            "problems": setup.problems,
            "spans": setup.spans,
        }
    )
    main_ms = [1000.0 * s for which, s, __, __ in samples if which == 0]
    if not args.trace:
        return {
            "attempted": len(samples),
            "failed": failed,
            "metrics": {
                "latency_p50_ms": statistics.median(main_ms),
                "latency_p99_ms": percentile(main_ms, 99),
                # The median second, so that a few seconds in which the
                # host takes the CPU away do not decide the figure.
                "throughput_rps": statistics.median(rates),
                "peak_rss_mb": server_rss,
            },
        }
    plain_ms = [1000.0 * s for which, s, __, __ in samples if which == 1]
    waits, durations, rows = flush_spans(Path(args.work) / "traces" / "serve")
    request_ms = 1000.0 * ratio(delta["request_sum"], delta["request_count"])
    served = delta["requests"] - delta["cache_hits"]
    layers = dict(setup.layers)
    layers.update(
        {
            "serve.server.request_ms": request_ms,
            "serve.transport_ms": statistics.fmean(main_ms) - request_ms,
            "serve.batcher.wait_ms": 1000.0 * statistics.fmean(waits) if waits else 0.0,
            "serve.batcher.requests_per_batch": ratio(served, delta["batches"]),
            "serve.batcher.rows_per_batch": ratio(delta["batched_rows"], delta["batches"]),
            "serve.compiled.flush_ms": 1000.0 * statistics.fmean(durations) if durations else 0.0,
            "serve.compiled.us_per_row": 1e6 * ratio(sum(durations), sum(rows)),
            "serve.cache.hit_ratio": ratio(delta["cache_hits"], delta["requests"]),
            "serve.server.cpu_ms_per_request": 1000.0 * ratio(delta["cpu"], len(main_ms)),
            "loadgen.cpu_ms_per_request": 1000.0 * ratio(cpu, len(samples)),
            "trace.overhead": statistics.median(main_ms) / statistics.median(plain_ms),
        }
    )
    return {"attempted": len(samples), "failed": failed, "layers": layers, "marks": setup.marks}


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("warm", "cold", "measure"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.mode == "warm":
        Path(args.out).write_text(json.dumps(warm(args)))
        return 0
    import repro  # noqa: F401  (so the dataset timing below holds no imports)

    recorder = tracing.Recorder() if args.trace else None
    clock = time.perf_counter()
    data = workloads.make_data(args.workload, args.seed)
    data_ms = 1000.0 * (time.perf_counter() - clock)
    record: dict = {}
    if args.workload != "serve-predict":
        out = {"ready": time.monotonic()}
        if args.mode == "measure":
            out.update(measure_fits(args, data, record))
    else:
        setup = ServeSetup(args, data, recorder)
        out = {"ready": setup.ready}
        try:
            if args.mode == "measure":
                out.update(measure_serve(args, setup, record))
        finally:
            setup.stop()
        record.setdefault("problems", setup.problems)
    out["problems"] = record.get("problems", [])
    if "layers" in out:
        out["layers"]["data.make_dataset_ms"] = data_ms
    out["record"] = record
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
