"""Fast benchmark smoke tests (``pytest -m perf_smoke``).

Runs the tracked benchmarks in tiny mode (seconds, not minutes) so
tier-1 catches regressions — a result mismatch between two paths a
benchmark compares, or a benchmark harness break — without paying for a
full grid run.  Speedups themselves are only asserted in the full runs
(``python benchmarks/bench_<name>.py``), since tiny inputs are dominated
by fixed overheads.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module(stem: str):
    spec = importlib.util.spec_from_file_location(stem, _BENCHMARKS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(stem, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.perf_smoke
def test_stream_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module("bench_stream")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    workload = report["workload"]
    assert workload["buffer_bit_identical"], "incremental buffer diverged"
    assert workload["windowed_refit_bit_identical"], "windowed refit diverged"
    assert workload["incremental_seconds"] > 0 and workload["full_seconds"] > 0
    assert report["all_identical"]
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_stream.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_native_benchmark_tiny_mode(tmp_path):
    # Asserts numpy<->native bit-equivalence on every cell that could
    # run; on a machine with no C compiler the native cells are skipped
    # gracefully and the fallback probe still proves it searches on numpy.
    bench = _load_bench_module("bench_native")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    assert report["all_identical"], "engines disagreed"
    # The deep cell: rules past 3 items, at the tiny size only.
    assert [row["n_transactions"] for row in report["deep"]] == [400]
    for row in report["search"] + report["deep"]:
        if report["native_available"]:
            assert row["identical_results"], f"search cell diverged: {row}"
        else:
            assert row["skipped"]
    if report["native_available"]:
        assert report["bulk_predict"]["identical_results"]
        # perfbench's exact-adult op, shrunk: both engines, same fit.
        assert report["adult"]["scale"] == 0.05
        assert report["adult"]["identical_results"]
    fallback = report["fallback"]
    assert fallback["identical_results"]
    assert fallback["subprocess_engine"] == "numpy"
    assert fallback["subprocess_native_available"] is False
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_native.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_mapped_cold_start_does_not_copy(tmp_path):
    # The whole point of the binary sidecar is that loading it is a
    # header read plus views into the mapping — prove no bytes were
    # copied by checking every predictor array shares memory with the
    # raw mmap buffer, and that the views still answer bit-identically.
    import numpy as np

    from repro.data.dataset import Side
    from repro.serve import CompiledPredictor, ModelRegistry, map_artifact

    bench = _load_bench_module("bench_cluster")
    registry = ModelRegistry(tmp_path / "registry")
    artifact = bench._publish_model(registry, bench.TINY_SETTINGS)
    mapped = map_artifact(registry.sidecar_path("bench", 1))
    predictor = CompiledPredictor.from_mapped(mapped, Side.RIGHT)
    raw = np.frombuffer(mapped.buffer, dtype=np.uint8)
    assert np.shares_memory(predictor.antecedents.words, raw)
    assert np.shares_memory(predictor.consequents.words, raw)
    reference = CompiledPredictor.from_table(
        artifact.table, Side.RIGHT, artifact.n_left, artifact.n_right
    )
    rng = np.random.default_rng(3)
    batch = rng.random((16, artifact.n_left)) < 0.3
    assert np.array_equal(predictor.predict(batch), reference.predict(batch))


@pytest.mark.perf_smoke
def test_cluster_benchmark_tiny_mode(tmp_path):
    # Asserts correctness properties only (zero-copy, bit-identity,
    # zero dropped requests) — never throughput scaling, which the
    # hardware may not be able to produce (see scaling_expected).
    bench = _load_bench_module("bench_cluster")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    cold = report["cold_start"]
    assert cold["zero_copy"], "mapped predictor copied its matrices"
    assert cold["identical_results"], "mapped and JSON predictors disagreed"
    assert cold["json_seconds"] > 0 and cold["mapped_seconds"] > 0
    assert report["grid"], "tiny cluster grid must not be empty"
    assert report["zero_errors"], "requests failed under load"
    assert report["router_overhead_workers1"] is not None
    assert report["floor"]["requests_per_second"] > 0
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_cluster.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
def test_serve_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module("bench_serve")
    report = bench.run_grid(tiny=True)
    assert report["mode"] == "tiny"
    assert report["grid"], "tiny serving grid must not be empty"
    for cell in report["grid"]:
        assert cell["identical_results"], f"a path disagreed with the oracle on {cell}"
        assert cell["blas_seconds"] > 0 and cell["selected_seconds"] > 0
    assert report["all_identical"]
    assert report["narrow_models_select_blas"]
    assert report["cache"]["warm_cached"], "second identical request must hit the cache"
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_serve.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()


@pytest.mark.perf_smoke
@pytest.mark.corpus_smoke
def test_corpus_benchmark_tiny_mode(tmp_path):
    bench = _load_bench_module("bench_corpus")
    report = bench.run_grid(tiny=True, work_dir=tmp_path)
    assert report["mode"] == "tiny"
    out_of_core = report["out_of_core"]
    assert out_of_core["ingest_seconds"] > 0 and out_of_core["query_seconds"] > 0
    # rss_bounded is only asserted in the full run: on a tiny payload the
    # fixed interpreter overheads dominate, so the ratio is meaningless.
    prune = report["sketch_prune"]
    assert prune["identical_results"], "pruned top-k diverged from the full scan"
    assert prune["pruned_pairs_scanned"] <= prune["full_pairs_scanned"]
    honesty = report["honesty"]
    assert honesty["topk_bit_identical"], "store top-k diverged from the dense path"
    assert honesty["top1_matches_exact_engine"]
    assert honesty["anytime_gap_bound_sound"]
    assert report["all_identical"]
    # The JSON entry point must work end to end.
    output = tmp_path / "BENCH_corpus.json"
    exit_code = bench.main(["--tiny", "--output", str(output)])
    assert exit_code == 0
    assert output.exists()
