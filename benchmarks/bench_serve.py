"""Microbenchmark: the compiled predictor's paths and their selection (``BENCH_serve.json``).

:class:`repro.core.compiled.CompiledPredictor` evaluates TRANSLATE on
one of two paths — ``blas`` (two exact float32 products) or ``packed``
(word ops through :func:`repro.core.bitset.match_union_rows`, on the C
kernel where it loads and on numpy elsewhere) — and picks the path
from the model alone: packed once the antecedents span
``_PACKED_MIN_ANT_WORDS`` words and the kernel loads.  This script
measures the grid that fixes that constant: synthetic tables from a
paper-sized 48 x 40 model to a 512-rule model over 2,048 items, at 1 to
4,096 rows per call.  Per cell it records

* the best-of time of blas, packed on numpy and packed on C, each
  through its private per-path method, with the engine switched
  outside the timed region;
* the path the selection picks and its time, and whether it *misses*:
  its path is slower than the fastest by more than 1.25x and by more
  than 15 us;
* the same for the row-count rule the selection replaced (packed iff
  the kernel loads and either ``n_rules x n_ant_words >= 2048`` or the
  batch holds ``>= 256`` rows);
* ``identical_results``: every path equals
  :func:`repro.core.translate.translate_transaction` applied row by
  row, the literal Algorithm 1.

A second section measures the service layer end to end: a cold
``/predict`` (artifact load + compile + predict) versus a warm
identical request answered from the LRU response cache.

Run standalone (timings in ``BENCH_serve.json`` were taken with
``OPENBLAS_NUM_THREADS=1``, which the report records)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_serve.py [--tiny] [--output PATH]

``--tiny`` runs a seconds-scale smoke grid (the ``perf_smoke`` pytest
marker) that checks every path against the oracle and emits the same
JSON shape.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import native  # noqa: E402
from repro.core import compiled as compiled_module  # noqa: E402
from repro.core.rules import TranslationRule  # noqa: E402
from repro.core.table import TranslationTable  # noqa: E402
from repro.core.translate import translate_transaction  # noqa: E402
from repro.data.dataset import Side, TwoViewDataset  # noqa: E402
from repro.serve import (  # noqa: E402
    CompiledPredictor,
    ModelArtifact,
    ModelRegistry,
    PredictionService,
)

FULL_SETTINGS = {
    "models": [
        {"name": "paper-scale", "n_rules": 48, "n_items_per_view": 40},
        {"name": "production-scale", "n_rules": 256, "n_items_per_view": 96},
        {"name": "wide-256", "n_rules": 128, "n_items_per_view": 256},
        {"name": "wide-512", "n_rules": 128, "n_items_per_view": 512},
        {"name": "bulk-2048", "n_rules": 512, "n_items_per_view": 2048},
    ],
    "row_counts": [1, 8, 64, 256, 1024, 4096],
    "density": 0.35,
    "min_repetitions": 3,
    "budget_seconds": 0.25,
    "cache_rows": 256,
}
TINY_SETTINGS = {
    "models": [
        {"name": "tiny", "n_rules": 16, "n_items_per_view": 16},
        {"name": "tiny-wide", "n_rules": 16, "n_items_per_view": 600},
    ],
    "row_counts": [1, 32],
    "density": 0.35,
    "min_repetitions": 1,
    "budget_seconds": 0.0,
    "cache_rows": 16,
}

#: The compiled paths: (label, engine, private per-path method).
PATHS = (
    ("blas", "numpy", "_predict_blas"),
    ("packed_numpy", "numpy", "_predict_packed"),
    ("packed_native", "native", "_predict_packed"),
)
#: A selection misses a cell when its path is slower than the fastest
#: path by more than this factor and by more than this many seconds.
MISS_RATIO = 1.25
MISS_SECONDS = 15e-6


@contextlib.contextmanager
def engine(name: str):
    """Run the block on ``name``: numpy sets ``REPRO_NATIVE_DISABLE=1``.

    The toolchain is re-probed on entry, outside any timed region.
    """
    previous = os.environ.get("REPRO_NATIVE_DISABLE")
    if name == "numpy":
        os.environ["REPRO_NATIVE_DISABLE"] = "1"
    else:
        os.environ.pop("REPRO_NATIVE_DISABLE", None)
    native.reset()
    native.available()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE_DISABLE", None)
        else:
            os.environ["REPRO_NATIVE_DISABLE"] = previous
        native.reset()


def best_of(function, repetitions: int, budget_seconds: float = 0.0, cap: int = 200):
    """``(seconds, output)``: the fastest of at least ``repetitions`` calls.

    Calls repeat, up to ``cap``, until ``budget_seconds`` have been spent.
    """
    best, spent, calls = float("inf"), 0.0, 0
    while calls < repetitions or (spent < budget_seconds and calls < cap):
        start = time.perf_counter()
        output = function()
        elapsed = time.perf_counter() - start
        best, spent, calls = min(best, elapsed), spent + elapsed, calls + 1
    return best, output


def time_paths(
    predictor: CompiledPredictor,
    batch: np.ndarray,
    repetitions: int,
    budget_seconds: float = 0.0,
) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Best-of seconds and outputs of every compiled path that runs here."""
    seconds, outputs = {}, {}
    for label, engine_name, method in PATHS:
        if engine_name == "native" and not native.available():
            continue
        run = getattr(predictor, method)
        with engine(engine_name):
            seconds[label], outputs[label] = best_of(
                lambda: run(batch), repetitions, budget_seconds
            )
    return seconds, outputs


def synthetic_table(n_rules: int, n_items: int, seed: int = 5) -> TranslationTable:
    """A random translation table at serving scale (provenance-free).

    Serving throughput depends only on the table's shape (rule count,
    itemset sizes, vocabulary width), not on how it was mined, so the
    benchmark synthesises tables directly instead of paying minutes of
    fitting per run; the shapes mirror the paper's Table 2/3 models and
    a larger production regime.
    """
    rng = np.random.default_rng(seed)
    rules: set[tuple] = set()
    while len(rules) < n_rules:
        lhs = tuple(
            sorted(rng.choice(n_items, size=int(rng.integers(1, 5)), replace=False))
        )
        rhs = tuple(
            sorted(rng.choice(n_items, size=int(rng.integers(1, 4)), replace=False))
        )
        direction = ("->", "<-", "<->")[int(rng.integers(0, 3))]
        rules.add((lhs, rhs, direction))
    return TranslationTable(
        TranslationRule(lhs, rhs, direction)
        for lhs, rhs, direction in sorted(rules)
    )


def _batch(n_rows: int, n_items: int, density: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n_rows, n_items)) < density


def oracle(batch: np.ndarray, table, target: Side, n_target: int) -> np.ndarray:
    """Algorithm 1, literally: ``translate_transaction`` row by row."""
    out = np.zeros((batch.shape[0], n_target), dtype=bool)
    for index, row in enumerate(batch):
        items = translate_transaction(set(np.flatnonzero(row).tolist()), table, target)
        out[index, sorted(items)] = True
    return out


def row_rule_runs_packed(predictor: CompiledPredictor, n_rows: int) -> bool:
    """The dispatch the word-count selection replaced, for reference."""
    wide = predictor.n_rules * predictor.antecedents.n_words >= 2048
    return native.available() and (wide or n_rows >= 256)


def _missed(seconds: dict[str, float], path: str) -> bool:
    fastest = min(seconds.values())
    slower = seconds[path]
    return slower > MISS_RATIO * fastest and slower - fastest > MISS_SECONDS


def run_model(model: dict, settings: dict) -> list[dict]:
    """Time every path at every row count; check each against the oracle."""
    n_items = model["n_items_per_view"]
    table = synthetic_table(model["n_rules"], n_items)
    predictor = CompiledPredictor.from_table(table, Side.RIGHT, n_items, n_items)
    packed = "packed_native" if native.available() else "packed_numpy"
    selected = packed if predictor._runs_packed() else "blas"
    largest = _batch(max(settings["row_counts"]), n_items, settings["density"])
    expected = oracle(largest, table, Side.RIGHT, n_items)
    cells = []
    for n_rows in settings["row_counts"]:
        batch = largest[:n_rows]
        seconds, outputs = time_paths(
            predictor, batch, settings["min_repetitions"], settings["budget_seconds"]
        )
        row_rule = packed if row_rule_runs_packed(predictor, n_rows) else "blas"
        cells.append(
            {
                "model": model["name"],
                "n_rules": predictor.n_rules,
                "n_source_items": n_items,
                "n_ant_words": predictor.antecedents.n_words,
                "rows": n_rows,
                **{f"{label}_seconds": value for label, value in seconds.items()},
                "fastest_path": min(seconds, key=seconds.get),
                "selected_path": selected,
                "selected_seconds": seconds[selected],
                "selection_miss": _missed(seconds, selected),
                "row_rule_path": row_rule,
                "row_rule_miss": _missed(seconds, row_rule),
                "identical_results": all(
                    np.array_equal(output, expected[:n_rows])
                    for output in outputs.values()
                ),
            }
        )
    return cells


def run_cache(settings: dict) -> dict:
    """Service-level cold vs warm timing of one identical request."""
    model = settings["models"][0]
    n_items = model["n_items_per_view"]
    table = synthetic_table(model["n_rules"], n_items)
    dataset = TwoViewDataset(
        _batch(64, n_items, settings["density"], seed=2),
        _batch(64, n_items, settings["density"], seed=3),
        name="bench-serve",
    )

    class _Result:
        def __init__(self):
            self.table = table

        def summary(self):
            return {"n_rules": len(table)}

    async def measure() -> dict:
        with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
            registry = ModelRegistry(root)
            registry.publish(
                ModelArtifact.from_result("bench", dataset, _Result(), {})
            )
            service = PredictionService(registry, max_delay_ms=0.0)
            source = _batch(settings["cache_rows"], n_items, settings["density"], 4)
            rows = [sorted(np.flatnonzero(row).tolist()) for row in source]
            request = {"model": "bench", "target": "R", "rows": rows}
            start = time.perf_counter()
            cold = await service.predict(request)
            cold_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm = await service.predict(request)
            warm_seconds = time.perf_counter() - start
            return {
                "rows": len(rows),
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "warm_speedup": cold_seconds / warm_seconds,
                "cold_cached": cold["cached"],
                "warm_cached": warm["cached"],
            }

    return asyncio.run(measure())


def run_grid(tiny: bool = False) -> dict:
    """Run the benchmark and return the report dictionary."""
    settings = TINY_SETTINGS if tiny else FULL_SETTINGS
    cells = []
    for model in settings["models"]:
        cells.extend(run_model(model, settings))
    return {
        "benchmark": "serving: compiled predictor paths and their selection",
        "mode": "tiny" if tiny else "full",
        "cpu_count": os.cpu_count(),
        "native_available": native.available(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "packed_min_ant_words": compiled_module._PACKED_MIN_ANT_WORDS,
        "settings": settings,
        "grid": cells,
        "selection_misses": sum(cell["selection_miss"] for cell in cells),
        "row_rule_misses": sum(cell["row_rule_miss"] for cell in cells),
        "narrow_models_select_blas": all(
            cell["selected_path"] == "blas"
            for cell in cells
            if cell["n_ant_words"] <= 2
        ),
        "cache": run_cache(settings),
        "all_identical": all(cell["identical_results"] for cell in cells),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-scale smoke grid"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_serve.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_grid(tiny=args.tiny)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for cell in report["grid"]:
        times = "  ".join(
            f"{label}={cell[f'{label}_seconds'] * 1e6:>9.1f}us"
            for label, __, __ in PATHS
            if f"{label}_seconds" in cell
        )
        print(
            f"{cell['model']:<17} words={cell['n_ant_words']:>2} "
            f"rows={cell['rows']:>5}  {times}  selected={cell['selected_path']}"
            f"{' MISS' if cell['selection_miss'] else ''}  "
            f"row-rule={cell['row_rule_path']}"
            f"{' MISS' if cell['row_rule_miss'] else ''}  "
            f"identical={cell['identical_results']}"
        )
    print(
        f"misses: selection {report['selection_misses']}, "
        f"row rule {report['row_rule_misses']} of {len(report['grid'])} cells"
    )
    cache = report["cache"]
    print(
        f"cache: cold={cache['cold_seconds'] * 1000:.2f}ms  "
        f"warm={cache['warm_seconds'] * 1000:.2f}ms  "
        f"({cache['warm_speedup']:.1f}x, warm_cached={cache['warm_cached']})"
    )
    print(f"report written to {args.output}")
    if not report["all_identical"]:
        print("ERROR: a path disagreed with the oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
