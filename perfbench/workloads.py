"""Workload inputs, operations and pinned correctness fingerprints.

Every workload runs on a Table-2 stand-in built by ``repro.make_dataset``
with its default generator seed and an explicit ``scale``.  The
benchmark's ``--seed`` permutes the dataset's rows (seed 0 keeps the
generator's order): every fitting path is invariant under row order, so
each seed is a different input with the same work and the same pinned
result.  A different generator seed would change the number of rules,
and with it the work of one fit, by up to 1.6x on car.
"""

from __future__ import annotations

import hashlib
import json

#: workload -> (dataset, scale)
DATASETS = {
    "exact-car": ("car", 1.0),
    "exact-adult": ("adult", 0.3),
    "select-house": ("house", 1.0),
    "serve-predict": ("house", 1.0),
}

#: ``BENCHMARK.json`` lists exact-adult and serve-predict; the other two
#: run by hand and in the smoke check (see README.md, Steadiness).
WORKLOADS = ("exact-car", "exact-adult", "select-house", "serve-predict")

#: Results of the default inputs; row permutations leave them unchanged.
PINNED = {
    "exact-car": {
        "table": "e2d7d3797db112d0",
        "rules": 16,
        "L%": 77.54,
        "nodes": [15268] * 17,
    },
    "exact-adult": {
        "table": "9b5f755fce8de08f",
        "rules": 2,
        "L%": 95.81,
        "nodes": [152169] * 2,
        "evaluations": [57972, 76023],
        "backend": ["native"],
    },
    "select-house": {
        "table": "d7f2d88245960284",
        "rules": 18,
        "L%": 76.95,
    },
    "serve-predict": {
        "table": "b46e7fa0310a1933",
        "rules": 47,
        "L%": 81.97,
    },
}

#: select-house candidate mining, seen by the traced run's auto_minsup span.
PINNED_CANDIDATES = {"minsup": 27, "count": 8751, "digest": "f11da2476ce369fb"}


def make_data(workload: str, seed: int):
    """The workload's dataset, rows permuted by ``seed`` (0 = as generated)."""
    import numpy as np

    from repro import TwoViewDataset, make_dataset

    name, scale = DATASETS[workload]
    data = make_dataset(name, scale=scale)
    if seed == 0:
        return data
    order = np.random.default_rng(seed).permutation(data.n_transactions)
    return TwoViewDataset(
        data.left[order],
        data.right[order],
        data.left_names,
        data.right_names,
        name=data.name,
        left_schema=data.left_schema,
        right_schema=data.right_schema,
    )


def make_translator(workload: str):
    """A fresh translator for one op of ``workload`` (the serving model's for serve-predict)."""
    from repro import TranslatorExact, TranslatorGreedy, TranslatorSelect

    if workload == "exact-car":
        return TranslatorExact(max_rule_size=4)
    if workload == "exact-adult":
        return TranslatorExact(max_rule_size=3, max_iterations=2)
    if workload == "select-house":
        return TranslatorSelect(k=1)
    if workload == "serve-predict":
        return TranslatorGreedy(minsup=27)
    raise ValueError(f"unknown workload {workload!r}")


def digest(payload) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table_digest(table) -> str:
    """Digest of a translation table's rules in insertion order."""
    return digest(
        [[list(rule.lhs), list(rule.rhs), rule.direction.value] for rule in table]
    )


def candidates_digest(candidates) -> str:
    """Digest of a candidate list (order, itemsets and supports)."""
    return digest(
        [[list(c.lhs), list(c.rhs), int(c.support)] for c in candidates]
    )


def fingerprint(workload: str, result) -> dict:
    """The fields of a fit result that ``PINNED`` fixes for ``workload``."""
    found = {
        "table": table_digest(result.table),
        "rules": result.n_rules,
        "L%": round(100.0 * result.compression_ratio, 2),
    }
    stats = result.search_stats
    if workload in ("exact-car", "exact-adult"):
        found["nodes"] = [s.nodes_visited for s in stats]
    if workload == "exact-adult":
        found["evaluations"] = [s.evaluations for s in stats]
        found["backend"] = sorted({s.backend for s in stats})
    return found


def check_fit(workload: str, result, first: dict | None) -> tuple[dict, list[str]]:
    """Fingerprint ``result``; list how it differs from the pin and the run's first op."""
    found = fingerprint(workload, result)
    problems = [
        f"{key}: expected {value!r}, got {found.get(key)!r}"
        for key, value in PINNED[workload].items()
        if found.get(key) != value
    ]
    if first is not None and found != first:
        problems.append("differs from the run's first result")
    return found, problems
