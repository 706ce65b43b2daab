"""Microbenchmark: the numpy vs the C engine (``BENCH_native.json``).

The platform picks the engine — the C kernel of :mod:`repro.native`
wherever it compiles — so the numpy cells run with
``REPRO_NATIVE_DISABLE=1`` set, the way a machine without a C compiler
runs.  Times the consumers of the kernel on the honesty cells the
ROADMAP flags as the numpy kernel's known limits:

* **search** — ``TranslatorExact.fit`` at ``n`` in {400, 1728, 5k, 20k,
  50k} transactions, same fixed node budget on both engines so the
  comparison measures pure per-node throughput; the C engine runs the
  search's whole traversal in one call (``NativeKernel.dfs``);
* **deep** — the search cell's data at ``n`` in {400, 5k} with
  ``max_rule_size=None`` under the same node budget: rules grow past
  the search cell's 3 items, so a frame's deltas sum over more path
  items (``--tiny`` runs it at 400 rows);
* **adult** — perfbench's exact-adult op (``TranslatorExact(max_rule_size=3,
  max_iterations=2)`` on adult, 97 items) on both engines: at scale 0.3
  (14,653 rows, 229 words per row) the C fit must also match perfbench's
  pins (table digest, 152,169 nodes and 57,972 / 76,023 evaluations per
  search), and ``--tiny`` runs it at scale 0.05;
* **car** — the paper's Table-2 EXACT dataset (1,728 rows): one fit at
  ``max_rule_size=4`` to convergence on both engines, and (full mode
  only) the unbudgeted ``TranslatorExact()`` fit on the C engine,
  pinned to the rule count and node total of an offline numpy run and
  reported next to the ROADMAP's numpy baseline and the paper's C++
  time;
* **bulk predict** — one huge 4096-row call of each compiled path of
  ``CompiledPredictor`` over a wide vocabulary, reached through its
  private per-path methods: packed on both engines, plus blas;
* **mining** — candidate mining on house (the itemset miner runs one
  ``and_popcount_rows`` per lattice node): ``auto_minsup`` at a
  10,000-candidate target, with each halving pass's threshold, mined
  itemsets and time (the pass that goes over budget stops at the
  budget), and ``two_view_candidates`` at minsup 27, serve-predict's
  mining; full mode compares the tuned candidates with perfbench's
  select-house pin;
* **fallback** — a subprocess with ``REPRO_NATIVE_DISABLE=1`` proving
  that a machine without a C toolchain searches on numpy (as its
  ``SearchStats.backend`` reports) and fits the *same model*
  (fingerprint-compared against this process's run).

Every cell verifies bit-identity between engines (or against its pin)
before reporting a speedup.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_native.py [--tiny] [--output PATH]

``--tiny`` runs a seconds-scale smoke grid (the ``perf_smoke`` pytest
marker) that checks all equivalences and emits the same JSON shape
without asserting speedup floors; cells needing the native kernel are
marked skipped — not failed — when no compiler is available.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import native  # noqa: E402
from repro.core.rules import TranslationRule  # noqa: E402
from repro.core.translator import TranslatorExact  # noqa: E402
from repro.data.dataset import Side  # noqa: E402
from repro.data.registry import make_dataset  # noqa: E402
from repro.data.synthetic import SyntheticSpec, generate_planted  # noqa: E402
from repro.core.compiled import CompiledPredictor  # noqa: E402
from repro.mining import twoview  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from bench_serve import engine, time_paths  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
from workloads import (  # noqa: E402
    DATASETS,
    PINNED_CANDIDATES,
    candidates_digest,
    check_fit,
    make_translator,
)

FULL_SETTINGS = {
    "search_transactions": [400, 1728, 5000, 20000, 50000],
    "search_items_per_view": 40,
    "search_density": 0.4,
    "search_max_nodes": 30_000,
    "search_iterations": 2,
    "search_repetitions": 2,
    "deep_transactions": [400, 5000],
    "predict_rows": 4096,
    "predict_rules": 512,
    "predict_source_items": 2048,
    "predict_target_items": 1024,
    "predict_repetitions": 3,
    "fallback_transactions": 400,
    "adult_scale": DATASETS["exact-adult"][1],
    "adult_repetitions": 3,
    "car_max_rule_size": 4,
    "car_unbudgeted": True,
    "mining_scale": 1.0,
    "mining_target": 10_000,
    "mining_minsup": 27,
    "mining_repetitions": 3,
}
TINY_SETTINGS = {
    "search_transactions": [400],
    "search_items_per_view": 16,
    "search_density": 0.4,
    "search_max_nodes": 1_500,
    "search_iterations": 2,
    "search_repetitions": 1,
    "deep_transactions": [400],
    "predict_rows": 256,
    "predict_rules": 48,
    "predict_source_items": 256,
    "predict_target_items": 128,
    "predict_repetitions": 1,
    "fallback_transactions": 120,
    "adult_scale": 0.05,
    "adult_repetitions": 1,
    "car_max_rule_size": 2,
    "car_unbudgeted": False,
    "mining_scale": 0.3,
    "mining_target": 1_000,
    "mining_minsup": 13,
    "mining_repetitions": 1,
}

#: One offline numpy run of the unbudgeted car EXACT fit (1,728 rows,
#: converged; 2-vCPU box shared with other jobs, so its time is an upper
#: bound); the native cell must reproduce its rules and node total.
CAR_UNBUDGETED_NUMPY = {"rules": 10, "nodes_total": 16_113_654, "seconds": 1197.3}
#: Reference times for the unbudgeted car EXACT fit: the ROADMAP's numpy
#: baseline (2-core box) and the paper's C++ implementation.
CAR_ROADMAP_NUMPY_SECONDS = 684.8
CAR_PAPER_SECONDS = 74.0


def _fingerprint(result) -> list:
    """JSON-serialisable identity of a fitted model (rules + gains)."""
    return [
        [list(record.rule.lhs), list(record.rule.rhs), record.rule.direction.value,
         repr(record.gain)]
        for record in result.history
    ]


def _fit(dataset, settings: dict, max_rule_size: int | None):
    return TranslatorExact(
        max_iterations=settings["search_iterations"],
        max_rule_size=max_rule_size,
        max_nodes_per_search=settings["search_max_nodes"],
    ).fit(dataset)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def search_cells(
    settings: dict,
    native_available: bool,
    transactions: list[int],
    max_rule_size: int | None = 3,
) -> list[dict]:
    """The planted search data at each ``n``, on both engines, same budget."""
    rows = []
    for n in transactions:
        dataset, __ = generate_planted(
            SyntheticSpec(
                n_transactions=n,
                n_left=settings["search_items_per_view"],
                n_right=settings["search_items_per_view"],
                density_left=settings["search_density"],
                density_right=settings["search_density"],
                n_rules=6,
                seed=3,
            )
        )
        row: dict = {"n_transactions": n}
        fingerprints = {}
        for backend in ("numpy", "native"):
            if backend == "native" and not native_available:
                row["skipped"] = "C kernel unavailable"
                break
            elapsed = []
            with engine(backend):
                for __ in range(settings["search_repetitions"]):
                    start = time.perf_counter()
                    result = _fit(dataset, settings, max_rule_size)
                    elapsed.append(time.perf_counter() - start)
            row[f"{backend}_seconds"] = min(elapsed)
            fingerprints[backend] = _fingerprint(result)
        if "native_seconds" in row:
            row["identical_results"] = (
                fingerprints["numpy"] == fingerprints["native"]
            )
            row["speedup"] = row["numpy_seconds"] / row["native_seconds"]
        rows.append(row)
    return rows


def adult_cell(settings: dict, native_available: bool) -> dict:
    """perfbench's exact-adult op on both engines; at its scale, against its pins."""
    name, pinned_scale = DATASETS["exact-adult"]
    scale = settings["adult_scale"]
    dataset = make_dataset(name, scale=scale)
    cell: dict = {
        "dataset": name,
        "scale": scale,
        "n_transactions": dataset.n_transactions,
        "n_items": dataset.n_left + dataset.n_right,
    }
    fingerprints = {}
    for backend in ("native", "numpy"):
        if backend == "native" and not native_available:
            cell["skipped"] = "C kernel unavailable"
            continue
        # The numpy fit takes ~10 s at scale 0.3: time it once.
        repetitions = settings["adult_repetitions"] if backend == "native" else 1
        elapsed = []
        with engine(backend):
            for __ in range(repetitions):
                start = time.perf_counter()
                result = make_translator("exact-adult").fit(dataset)
                elapsed.append(time.perf_counter() - start)
        cell[f"{backend}_seconds"] = min(elapsed)
        cell["nodes"] = [s.nodes_visited for s in result.search_stats]
        cell["evaluations"] = [s.evaluations for s in result.search_stats]
        fingerprints[backend] = _fingerprint(result) + [
            [s.nodes_visited, s.nodes_pruned_rub, s.evaluations,
             s.evaluations_skipped_qub]
            for s in result.search_stats
        ]
        if backend == "native" and scale == pinned_scale:
            cell["equals_perfbench_pin"] = not check_fit("exact-adult", result, None)[1]
    if "native" in fingerprints:
        cell["identical_results"] = fingerprints["numpy"] == fingerprints["native"]
        cell["speedup"] = cell["numpy_seconds"] / cell["native_seconds"]
    return cell


def car_cells(settings: dict, native_available: bool) -> dict:
    """car (1,728 rows) to convergence on both engines, and unbudgeted."""
    dataset = make_dataset("car", scale=1.0)
    cell: dict = {"max_rule_size": settings["car_max_rule_size"]}
    fingerprints = {}
    for backend in ("numpy", "native"):
        if backend == "native" and not native_available:
            cell["skipped"] = "C kernel unavailable"
            break
        with engine(backend):
            start = time.perf_counter()
            result = TranslatorExact(
                max_rule_size=settings["car_max_rule_size"]
            ).fit(dataset)
            cell[f"{backend}_seconds"] = time.perf_counter() - start
        fingerprints[backend] = _fingerprint(result) + [
            [s.nodes_visited, s.evaluations] for s in result.search_stats
        ]
        cell["rules"] = result.n_rules
        cell["converged"] = result.converged
        cell["nodes_total"] = sum(s.nodes_visited for s in result.search_stats)
    if "native_seconds" in cell:
        cell["identical_results"] = fingerprints["numpy"] == fingerprints["native"]
        cell["speedup"] = cell["numpy_seconds"] / cell["native_seconds"]
    unbudgeted: dict = {
        "roadmap_numpy_seconds": CAR_ROADMAP_NUMPY_SECONDS,
        "paper_cpp_seconds": CAR_PAPER_SECONDS,
        "offline_numpy": CAR_UNBUDGETED_NUMPY,
    }
    if not settings["car_unbudgeted"]:
        unbudgeted["skipped"] = "full mode only"
    elif not native_available:
        unbudgeted["skipped"] = "C kernel unavailable"
    else:
        with engine("native"):
            start = time.perf_counter()
            result = TranslatorExact().fit(dataset)
            unbudgeted["native_seconds"] = time.perf_counter() - start
        unbudgeted["rules"] = result.n_rules
        unbudgeted["converged"] = result.converged
        unbudgeted["nodes_total"] = sum(s.nodes_visited for s in result.search_stats)
        unbudgeted["identical_results"] = (
            result.converged
            and result.n_rules == CAR_UNBUDGETED_NUMPY["rules"]
            and unbudgeted["nodes_total"] == CAR_UNBUDGETED_NUMPY["nodes_total"]
        )
        unbudgeted["speedup_vs_offline_numpy"] = (
            CAR_UNBUDGETED_NUMPY["seconds"] / unbudgeted["native_seconds"]
        )
    return {"converged": cell, "unbudgeted": unbudgeted}


def _bulk_table(settings: dict, rng) -> list[TranslationRule]:
    n_src = settings["predict_source_items"]
    n_tgt = settings["predict_target_items"]
    rules = []
    for __ in range(settings["predict_rules"]):
        lhs = tuple(sorted(rng.choice(n_src, size=rng.integers(1, 4), replace=False)))
        rhs = tuple(sorted(rng.choice(n_tgt, size=rng.integers(1, 4), replace=False)))
        rules.append(TranslationRule(lhs, rhs, "->"))
    return rules


def bulk_predict_cell(settings: dict, native_available: bool) -> dict:
    rng = np.random.default_rng(7)
    rules = _bulk_table(settings, rng)
    matrix = rng.random(
        (settings["predict_rows"], settings["predict_source_items"])
    ) < 0.05
    cell: dict = {
        "n_rows": settings["predict_rows"],
        "n_rules": settings["predict_rules"],
        "n_source_items": settings["predict_source_items"],
    }
    predictor = CompiledPredictor.from_table(
        rules,
        Side.RIGHT,
        settings["predict_source_items"],
        settings["predict_target_items"],
    )
    seconds, outputs = time_paths(
        predictor, matrix, settings["predict_repetitions"]
    )
    if not native_available:
        cell["skipped"] = "C kernel unavailable"
    cell.update({f"{label}_seconds": value for label, value in seconds.items()})
    cell["identical_results"] = all(
        np.array_equal(outputs["blas"], output) for output in outputs.values()
    )
    if "packed_native_seconds" in cell:
        cell["speedup_vs_blas"] = (
            cell["blas_seconds"] / cell["packed_native_seconds"]
        )
        cell["speedup_vs_packed_numpy"] = (
            cell["packed_numpy_seconds"] / cell["packed_native_seconds"]
        )
    return cell


def _mining_passes(run) -> tuple[object, list[dict]]:
    """``run()``'s result and one record per itemset pass it started.

    A pass is timed from its ``itemsets`` call to the next pass's, or to
    ``run``'s return, so it includes the caller's work on its output.
    """
    passes = []
    original = twoview.itemsets

    def counted(bits, minsup, *args):
        record = {"minsup": minsup, "itemsets": 0, "start": time.perf_counter()}
        passes.append(record)
        for pair in original(bits, minsup, *args):
            record["itemsets"] += 1
            yield pair

    twoview.itemsets = counted
    try:
        result = run()
    finally:
        twoview.itemsets = original
    ends = [record["start"] for record in passes[1:]] + [time.perf_counter()]
    return result, [
        {"minsup": r["minsup"], "itemsets": r["itemsets"], "seconds": end - r["start"]}
        for r, end in zip(passes, ends)
    ]


def mining_cell(settings: dict, native_available: bool) -> dict:
    """house candidate mining: tuned ``auto_minsup`` and one fixed threshold."""
    dataset = make_dataset("house", scale=settings["mining_scale"])
    target, minsup = settings["mining_target"], settings["mining_minsup"]
    cell: dict = {
        "dataset": "house",
        "scale": settings["mining_scale"],
        "n_transactions": dataset.n_transactions,
    }
    tuned: dict = {"target_candidates": target}
    fixed: dict = {"minsup": minsup}
    found: dict[str, tuple] = {}
    for backend in ("numpy", "native"):
        if backend == "native" and not native_available:
            cell["skipped"] = "C kernel unavailable"
            break
        with engine(backend):
            start = time.perf_counter()
            (chosen, candidates), passes = _mining_passes(
                lambda: twoview.auto_minsup(dataset, target_candidates=target)
            )
            tuned[f"{backend}_seconds"] = time.perf_counter() - start
            tuned[f"{backend}_passes"] = passes
            elapsed = []
            for __ in range(settings["mining_repetitions"]):
                start = time.perf_counter()
                mined = twoview.two_view_candidates(dataset, minsup)
                elapsed.append(time.perf_counter() - start)
            fixed[f"{backend}_seconds"] = min(elapsed)
        found[backend] = (chosen, candidates, mined)
    chosen, candidates, mined = found["numpy"]
    tuned.update(
        minsup=chosen, candidates=len(candidates), digest=candidates_digest(candidates)
    )
    fixed.update(candidates=len(mined), digest=candidates_digest(mined))
    if settings["mining_scale"] == 1.0:
        tuned["equals_perfbench_pin"] = {
            "minsup": chosen,
            "count": len(candidates),
            "digest": tuned["digest"],
        } == PINNED_CANDIDATES
    if "native" in found:
        identical = found["numpy"] == found["native"]
        tuned["identical_results"] = fixed["identical_results"] = identical
        tuned["speedup"] = tuned["numpy_seconds"] / tuned["native_seconds"]
        fixed["speedup"] = fixed["numpy_seconds"] / fixed["native_seconds"]
    cell["auto_minsup"] = tuned
    cell["two_view_candidates"] = fixed
    return cell


def fallback_cell(settings: dict, native_available: bool) -> dict:
    """Prove the no-compiler path: the search runs on numpy, same model."""
    n = settings["fallback_transactions"]
    script = (
        "import json, sys\n"
        "from repro import native\n"
        "from repro.core.translator import TranslatorExact\n"
        "from repro.data.synthetic import SyntheticSpec, generate_planted\n"
        f"ds, _ = generate_planted(SyntheticSpec(n_transactions={n}, "
        "n_left=12, n_right=12, density_left=0.3, density_right=0.3, "
        "n_rules=4, seed=5))\n"
        "result = TranslatorExact(max_iterations=2, max_rule_size=3).fit(ds)\n"
        "print(json.dumps({\n"
        "    'native_available': native.available(),\n"
        "    'engines': sorted({s.backend for s in result.search_stats}),\n"
        "    'fingerprint': [[list(r.rule.lhs), list(r.rule.rhs), "
        "r.rule.direction.value, repr(r.gain)] for r in result.history],\n"
        "}))\n"
    )
    env = dict(os.environ)
    env["REPRO_NATIVE_DISABLE"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    cell: dict = {"n_transactions": n}
    if proc.returncode != 0:
        cell["error"] = proc.stderr.strip()[-2000:]
        cell["identical_results"] = False
        return cell
    probe = json.loads(proc.stdout)
    cell["subprocess_native_available"] = probe["native_available"]
    cell["subprocess_engine"] = ",".join(probe["engines"])
    dataset, __ = generate_planted(
        SyntheticSpec(
            n_transactions=n,
            n_left=12,
            n_right=12,
            density_left=0.3,
            density_right=0.3,
            n_rules=4,
            seed=5,
        )
    )
    # Compare against a native fit when possible — the strongest form of
    # "the fallback path computes the same model".
    here = TranslatorExact(max_iterations=2, max_rule_size=3).fit(dataset)
    cell["parent_engine"] = here.search_stats[0].backend
    cell["identical_results"] = (
        cell["subprocess_engine"] == "numpy"
        and not probe["native_available"]
        and _fingerprint(here) == probe["fingerprint"]
    )
    return cell


# ----------------------------------------------------------------------
def run_grid(tiny: bool = False) -> dict:
    """Run every cell and return the report dictionary."""
    settings = TINY_SETTINGS if tiny else FULL_SETTINGS
    native_available = native.available()
    search = search_cells(settings, native_available, settings["search_transactions"])
    deep = search_cells(
        settings, native_available, settings["deep_transactions"], max_rule_size=None
    )
    adult = adult_cell(settings, native_available)
    car = car_cells(settings, native_available)
    bulk = bulk_predict_cell(settings, native_available)
    mining = mining_cell(settings, native_available)
    fallback = fallback_cell(settings, native_available)
    compared = [row for row in search + deep if "identical_results" in row]
    for extra in (
        adult, car["converged"], car["unbudgeted"], bulk, mining["auto_minsup"]
    ):
        if "identical_results" in extra:
            compared.append(extra)
    speedups = [row["speedup"] for row in search if "speedup" in row]
    report = {
        "benchmark": "numpy vs native engine",
        "mode": "tiny" if tiny else "full",
        "cpu_count": os.cpu_count(),
        "native_available": native_available,
        "native_error": native.native_error(),
        "build_info": {
            key: value
            for key, value in native.build_info().items()
            if key != "library"
        },
        "settings": settings,
        "search": search,
        "deep": deep,
        "adult": adult,
        "car": car,
        "bulk_predict": bulk,
        "mining": mining,
        "fallback": fallback,
        "all_identical": (
            all(row["identical_results"] for row in compared)
            and fallback["identical_results"]
            and adult.get("equals_perfbench_pin", True)
        ),
        "median_search_speedup": (
            statistics.median(speedups) if speedups else None
        ),
    }
    return report


def _print_search_row(name: str, row: dict) -> None:
    if "speedup" in row:
        print(
            f"{name} n={row['n_transactions']:>6}  "
            f"numpy={row['numpy_seconds']:.2f}s  "
            f"native={row['native_seconds']:.2f}s  "
            f"speedup={row['speedup']:.2f}x  "
            f"identical={row['identical_results']}"
        )
    else:
        print(f"{name} n={row['n_transactions']:>6}  {row.get('skipped')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-scale smoke grid"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_native.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_grid(tiny=args.tiny)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name in ("search", "deep"):
        for row in report[name]:
            _print_search_row(name, row)
    adult = report["adult"]
    if "speedup" in adult:
        pin = adult.get("equals_perfbench_pin")
        print(
            f"adult exact-adult op at scale {adult['scale']}: "
            f"numpy={adult['numpy_seconds']:.2f}s  "
            f"native={adult['native_seconds']:.3f}s  "
            f"speedup={adult['speedup']:.1f}x  "
            f"identical={adult['identical_results']}"
            + ("" if pin is None else f"  perfbench pin={pin}")
        )
    converged = report["car"]["converged"]
    if "speedup" in converged:
        print(
            f"car max_rule_size={converged['max_rule_size']} to convergence: "
            f"numpy={converged['numpy_seconds']:.2f}s  "
            f"native={converged['native_seconds']:.2f}s  "
            f"speedup={converged['speedup']:.1f}x  "
            f"identical={converged['identical_results']}"
        )
    unbudgeted = report["car"]["unbudgeted"]
    if "native_seconds" in unbudgeted:
        print(
            f"car unbudgeted EXACT: native={unbudgeted['native_seconds']:.1f}s "
            f"({unbudgeted['rules']} rules, {unbudgeted['nodes_total']} nodes; "
            f"paper C++ {CAR_PAPER_SECONDS:.0f}s, ROADMAP numpy "
            f"{CAR_ROADMAP_NUMPY_SECONDS}s)  "
            f"identical={unbudgeted['identical_results']}"
        )
    bulk = report["bulk_predict"]
    if "speedup_vs_blas" in bulk:
        print(
            f"bulk predict {bulk['n_rows']} rows: blas={bulk['blas_seconds']:.3f}s  "
            f"packed(numpy)={bulk['packed_numpy_seconds']:.3f}s  "
            f"packed(native)={bulk['packed_native_seconds']:.3f}s  "
            f"-> {bulk['speedup_vs_blas']:.2f}x vs blas, "
            f"{bulk['speedup_vs_packed_numpy']:.2f}x vs packed"
        )
    mining = report["mining"]
    tuned, fixed = mining["auto_minsup"], mining["two_view_candidates"]
    if "native_seconds" in tuned:
        passes = ", ".join(
            f"{p['minsup']}: {p['itemsets']} in {p['seconds']:.2f}s"
            for p in tuned["native_passes"]
        )
        print(
            f"mining auto_minsup: numpy={tuned['numpy_seconds']:.2f}s  "
            f"native={tuned['native_seconds']:.2f}s  -> minsup {tuned['minsup']}, "
            f"{tuned['candidates']} candidates  identical={tuned['identical_results']}"
            f"\n  passes (minsup: itemsets mined): {passes}"
        )
        print(
            f"mining two_view_candidates minsup={fixed['minsup']}: "
            f"numpy={fixed['numpy_seconds']:.2f}s  native={fixed['native_seconds']:.2f}s  "
            f"{fixed['candidates']} candidates  identical={fixed['identical_results']}"
        )
    fallback = report["fallback"]
    print(
        f"fallback probe: searched on {fallback.get('subprocess_engine')}, "
        f"identical={fallback['identical_results']}"
    )
    print(f"report written to {args.output}")
    if not report["all_identical"]:
        print("ERROR: engines disagreed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
