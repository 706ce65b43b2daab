#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload exact-car --seed 0 --seconds 15 --trace 0

Run it from the root of a source checkout (``src/repro`` next to this
directory).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The lines before it and a JSON record under
``perfbench/.work/records/`` carry the details.  See ``README.md``.

This process imports only the standard library and the benchmark's own
``workloads`` module, which defers numpy and ``repro``.  Every measured
process is a fresh interpreter started by ``worker.py`` with a pinned
environment, so nothing of one run survives into the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: Cold starts timed per run; ``setup_s`` is their median.  The
#: measured process is the last of them.
COLD_STARTS = 3
IMPORT_SAMPLES = 3


class ChildError(RuntimeError):
    """A benchmark process failed, timed out or left a process behind."""


def pinned_env() -> dict[str, str]:
    """The environment of every measured process."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE")
    }
    env.update(
        {
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "REPRO_NATIVE_CACHE": str(WORK / "native"),
            "TMPDIR": str(WORK / "tmp"),
        }
    )
    return env


def child(arguments: list[str], env: dict[str, str], timeout: float) -> tuple[float, dict]:
    """Run ``worker.py`` in its own process group; ``(spawn time, result)``."""
    out = WORK / "tmp" / f"out-{os.getpid()}-{time.time_ns()}.json"
    command = [sys.executable, str(HERE / "worker.py"), *arguments,
               "--work", str(WORK), "--out", str(out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildError(f"{arguments[0]} did not finish within {timeout:g}s")
    except BaseException:  # interrupted or terminated: take the child down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        leftover = reap_group(proc.pid)
    if proc.returncode != 0:
        raise ChildError(f"{arguments[0]} exited with {proc.returncode}")
    if leftover:
        raise ChildError(f"{arguments[0]} left a process running")
    result = json.loads(out.read_text())
    out.unlink()
    return spawned, result


def reap_group(pgid: int) -> bool:
    """Kill whatever is left of a process group; whether anything was."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def import_times(env: dict[str, str]) -> tuple[float, list[list]]:
    """Median wall time of ``import repro`` in fresh interpreters, and the
    top ``-X importtime`` entries (ms, cumulative) of one more import.

    The timed imports run without ``-X importtime``, whose own
    bookkeeping and stderr lines would be counted in the import time.
    """
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    samples = [
        1000.0 * float(
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
            ).stdout.split()[-1]
        )
        for __ in range(IMPORT_SAMPLES)
    ]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            entries.append([parts[2].strip(), int(parts[1]) / 1000.0])
    entries.sort(key=lambda entry: -entry[1])
    return statistics.median(samples), entries[:10]


def source_identity() -> dict[str, object]:
    """Git revision when there is one, and a digest of ``src/`` either way."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Nothing of an earlier, interrupted run (a registry, a result file)
    # may reach this one.
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    for directory in ("tmp", "records", "traces"):
        (WORK / directory).mkdir(parents=True, exist_ok=True)
    env = pinned_env()
    started = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        __, environment = child(["warm"], env, timeout=600.0)
        imported = import_times(env) if args.trace else None
        setups, problems = [], []
        for __ in range(0 if args.trace else COLD_STARTS - 1):
            spawned, cold = child(["cold", *base], env, timeout=120.0)
            setups.append(cold["ready"] - spawned)
            problems += cold["problems"]
        spawned, out = child(
            ["measure", *base, "--trace", str(args.trace)],
            env,
            timeout=args.seconds + 150.0,
        )
    except (ChildError, subprocess.SubprocessError, OSError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    setups.append(out["ready"] - spawned)
    problems += out["problems"]
    record = out["record"]
    marks = {}
    if args.trace:
        values = dict(out["layers"])
        values["startup.import_ms"] = imported[0]
        # A metric this workload does not compute at all is idle too.
        marks = {m["name"]: "idle" for m in wanted if m["name"] not in values}
        marks.update(out["marks"])
    else:
        values = dict(out["metrics"], setup_s=statistics.median(setups))
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    diagnostics = {name: value for name, value in values.items() if name not in metrics}
    correct = out["failed"] == 0 and not problems
    record = {
        **record,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "source": source_identity(),
        "environment": environment,
        "interpreter": platform.python_implementation(),
        "setup_samples_s": setups,
        "import_top_ms": imported[1] if imported else None,
        "marks": marks,
        "metrics": metrics,
        "diagnostics": diagnostics,
        "correct": correct,
        "problems": problems,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = WORK / "records" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    report(record, path)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(out["attempted"]),
                "failed": int(out["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


def report(record: dict, path: Path) -> None:
    """Human-readable lines ahead of the JSON result."""
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"rev={record['source']['git_rev'] or '-'} src={record['source']['src_sha256']} "
        f"cpus={env['cpu_count']} python={env['python']} numpy={env['numpy']} "
        f"native={env['native'].get('available')} backends={record.get('backends', '-')}"
    )
    probes = record.get("probe_ms") or []
    if probes:
        print(
            "# machine probe ms (diagnostic only): "
            + " ".join(f"{value:.1f}" for value in probes)
        )
    if record["setup_samples_s"] and not record["trace"]:
        print(
            "# setup samples s: "
            + " ".join(f"{value:.3f}" for value in record["setup_samples_s"])
        )
    notes = {"absent": "  (absent: wrapped name missing)", "idle": "  (idle on this workload)"}
    for name, metric in record["metrics"].items():
        mark = notes.get(record["marks"].get(name), "")
        print(f"# {name:40s} {metric['value']:14.4f} {metric['unit']}{mark}")
    for name, value in record["diagnostics"].items():
        mark = notes.get(record["marks"].get(name), "")
        print(f"# {name:40s} {value:14.4f}  (diagnostic, not in BENCHMARK.json){mark}")
    for name, entry in (record.get("spans") or {}).items():
        print(
            f"# span {name:34s} calls/op {entry['calls']:10.1f} "
            f"total {entry['total_ms']:11.2f} ms  self {entry['self_ms']:11.2f} ms"
        )
    for name, cumulative in record.get("import_top_ms") or []:
        print(f"# import {name:40s} {cumulative:9.1f} ms cumulative")
    for problem in record["problems"][:20]:
        print(f"# PROBLEM {problem}")
    print(f"# record: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
