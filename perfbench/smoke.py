#!/usr/bin/env python3
"""Seconds-scale smoke check of the benchmark: every workload, timed and traced.

    python3 perfbench/smoke.py

It covers every workload ``run.py`` knows, also the two that
``BENCHMARK.json`` leaves out.  For each workload this runs ``run.py
--seconds 1`` with ``--trace 0`` and with ``--trace 1`` and checks the
last output line against ``BENCHMARK.json``: exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric of
that mode, each with its unit and a finite number; ``correct`` true,
which means every op matched the pinned fingerprints; no failed op; in
traced runs, a ``trace.coverage`` of at least 0.95, so that wrapped
layers other than the translator account for the op's time.  It also
checks that ``run.py`` refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.  Takes
about three minutes, most of it select-house's fits.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_COVERAGE = 0.95


def check_result(line: str, wanted: list[dict]) -> list[str]:
    """Problems with one result line, judged against the metric list of its mode."""
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:200]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for spec in wanted:
        metric = metrics.get(spec["name"], {})
        value = metric.get("value")
        if metric.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: value {value!r}")
    coverage = metrics.get("trace.coverage", {}).get("value", 1.0)
    if isinstance(coverage, (int, float)) and coverage < MIN_COVERAGE:
        problems.append(f"trace.coverage {coverage:.3f} below {MIN_COVERAGE}")
    return problems


def run(arguments: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(
                ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}"] if proc.returncode else []
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            problems += check_result(lines[-1] if lines else "", wanted)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:14s} trace={trace}  {status}", flush=True)
            if problems:
                failures.append(workload)
                sys.stderr.write(proc.stderr[-2000:])
    bare = HERE / ".work" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "exact-car", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"{'no source tree':14s}          {'ok' if refused else 'FAIL: printed a result'}")
    if not refused:
        failures.append("bare")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
