"""E3 — Table 2 (bottom half): larger datasets, tuned minsup.

Runs TRANSLATOR-SELECT(1), TRANSLATOR-SELECT(25) and TRANSLATOR-GREEDY on
the seven "large" datasets (no EXACT — the paper could not run it either).
The paper fixes per-dataset minsup values so the candidate count stays
between 10K and 200K; we scale those thresholds with the dataset
(``paper_minsup * n_scaled / n_paper``) and cap the candidate budget for
Python-scale runtimes.

Expected shape, as in the paper: SELECT(25) compresses almost exactly as
well as SELECT(1) while being faster per iteration batch; GREEDY is the
fastest but can lose substantially (the paper calls out House: 71.45% vs
49.26%).
"""

from __future__ import annotations

import pytest

from repro.core.search import SearchCache
from repro.core.translator import TranslatorGreedy, TranslatorSelect
from repro.data.registry import make_dataset, paper_stats
from repro.eval.tables import format_table
from benchmarks.paper_reference import TABLE2_LARGE

DATASETS = sorted(TABLE2_LARGE)
MIN_TRANSACTIONS = 150


def scaled_setup(name: str, bench_scale: float):
    stats = paper_stats(name)
    scale = max(bench_scale, min(1.0, MIN_TRANSACTIONS / stats.n_transactions))
    dataset = make_dataset(name, scale=scale)
    paper_minsup, paper_rows = TABLE2_LARGE[name]
    minsup = max(2, int(round(paper_minsup * dataset.n_transactions / stats.n_transactions)))
    # The stand-ins plant rules with activation <= ~0.3, so a relative
    # threshold above ~8% of |D| (the paper uses 30% on Mammals, tuned to
    # the real data's support distribution) would miss all planted
    # structure; cap it accordingly.
    minsup = min(minsup, max(2, int(0.08 * dataset.n_transactions)))
    return dataset, minsup, paper_rows, scale


def run_dataset(name: str, bench_scale: float) -> list[dict[str, object]]:
    dataset, minsup, paper_rows, __ = scaled_setup(name, bench_scale)
    # Scaled-down thresholds can undershoot on dense stand-ins; double
    # until candidate mining fits the budget (reported via the minsup
    # column).
    while True:
        try:
            candidates = TranslatorSelect(
                minsup=minsup, max_candidates=5_000
            )._get_candidates(SearchCache(dataset))
            break
        except RuntimeError:
            minsup *= 2
    methods = {
        "select1": TranslatorSelect(k=1, candidates=candidates),
        "select25": TranslatorSelect(k=25, candidates=candidates),
        "greedy": TranslatorGreedy(candidates=candidates),
    }
    rows = []
    for key, translator in methods.items():
        result = translator.fit(dataset)
        paper_t, paper_l, paper_runtime = paper_rows[key]
        rows.append(
            {
                "dataset": name,
                "method": key,
                "minsup": minsup,
                "|T|": result.n_rules,
                "L%": round(100 * result.compression_ratio, 2),
                "runtime_s": round(result.runtime_seconds, 2),
                "paper |T|": paper_t,
                "paper L%": paper_l,
                "paper runtime": paper_runtime,
            }
        )
    return rows


@pytest.mark.parametrize("name", DATASETS)
def test_table2_large(benchmark, report, bench_scale, name):
    rows = benchmark.pedantic(run_dataset, args=(name, bench_scale), rounds=1, iterations=1)
    __, __, __, scale = scaled_setup(name, bench_scale)
    report(
        f"E3 / Table 2 (bottom) — search strategies on {name} (scale={scale:.2f})",
        format_table(rows),
    )
    by_method = {row["method"]: row for row in rows}
    # SELECT(25) approximates SELECT(1) closely (paper: within ~0.1pp).
    assert abs(
        float(by_method["select25"]["L%"]) - float(by_method["select1"]["L%"])
    ) < 5.0
    # GREEDY never wins on compression beyond tie-breaking noise.
    assert float(by_method["greedy"]["L%"]) >= float(by_method["select1"]["L%"]) - 2.0
