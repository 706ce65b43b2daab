"""Sharded experiment sweeps: ``datasets x params x seeds`` grids.

The paper's evaluation (Tables 1-3, Figs. 2-7) is dozens of *independent*
translator fits — every (dataset, method, parameter setting, seed) cell
can run on its own worker.  This module turns such a grid into:

1. a flat list of declarative :class:`SweepTask` cells
   (:func:`expand_grid`),
2. a sharded execution over a :class:`~repro.runtime.executor.ParallelExecutor`
   with any backend (:func:`run_sweep`), and
3. a content-hashed on-disk cache
   (:class:`~repro.runtime.cache.ResultCache`) so repeated or refined
   sweeps only pay for new cells.

Tasks are *data*, not closures: a dataset is named by a registry name, a
``.2v`` path, or a ``{"synthetic": {...}} / {"noise": {...}}`` generator
spec, and a translator by its method name plus constructor parameters.
That keeps every cell picklable (process backend), hashable (cache key)
and serialisable (the ``repro-translator sweep`` CLI writes grids and
results as plain JSON).

Result ordering is deterministic: ``report.results[i]`` always belongs
to ``tasks[i]``, whatever backend ran the sweep and in whatever order
the shards finished.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import repro
from repro.data.dataset import TwoViewDataset
from repro.data.io import load_dataset
from repro.data.registry import make_dataset
from repro.data.synthetic import SyntheticSpec, generate_planted, random_dataset
from repro.runtime.cache import ResultCache, content_key
from repro.runtime.executor import ParallelExecutor

__all__ = [
    "SweepTask",
    "SweepReport",
    "build_translator",
    "expand_grid",
    "resolve_dataset_spec",
    "run_sweep",
]

_METHODS = ("exact", "select", "greedy", "beam")


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """One independent cell of a sweep grid.

    Args:
        dataset: Registry name (``"house"``), path to a ``.2v`` file, or
            a generator spec — ``{"synthetic": {...}}`` with
            :class:`~repro.data.synthetic.SyntheticSpec` fields, or
            ``{"noise": {...}}`` with
            :func:`~repro.data.synthetic.random_dataset` arguments.
        method: Translator to fit: ``"exact"``, ``"select"``,
            ``"greedy"`` or ``"beam"``.
        params: Constructor keyword arguments for the translator (e.g.
            ``{"k": 25, "minsup": 5}`` for SELECT).
        seed: Dataset seed.  Forwarded to generator specs that do not
            pin their own ``seed`` and to registry stand-ins; ``None``
            keeps each dataset's own default (stable per-name) seed.
        scale: Transaction-count scale for registry datasets.
        fallback_auto: When ``True``, a ``RuntimeError`` from candidate
            mining (e.g. ``minsup=1`` explodes) retries the fit with the
            method's auto-tuned defaults instead of failing the cell.
        tag: Free-form label echoed into the result row.

    Example::

        >>> task = SweepTask(dataset={"noise": {"n_transactions": 60,
        ...                                     "n_left": 4, "n_right": 4}},
        ...                  method="greedy", seed=1)
        >>> task.key() == task.key()
        True
    """

    dataset: str | Mapping[str, object]
    method: str = "select"
    params: Mapping[str, object] = dataclasses.field(default_factory=dict)
    seed: int | None = None
    scale: float | None = None
    fallback_auto: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {_METHODS}"
            )

    def payload(self) -> dict[str, object]:
        """The canonical (JSON-serialisable) identity of this cell."""
        dataset = self.dataset
        if isinstance(dataset, Mapping):
            dataset = {kind: dict(spec) for kind, spec in dataset.items()}
        return {
            "dataset": dataset,
            "method": self.method,
            "params": dict(self.params),
            "seed": self.seed,
            "scale": self.scale,
            "fallback_auto": self.fallback_auto,
        }

    def key(self) -> str:
        """Content-hash cache key (library version folded in)."""
        return content_key(self.payload(), salt=f"repro-sweep/{repro.__version__}")


@dataclasses.dataclass
class SweepReport:
    """Outcome of :func:`run_sweep`.

    ``results[i]`` is the summary row of ``tasks[i]``: the translator's
    ``summary()`` dict plus ``seed``, ``tag``, ``converged``, ``notes``
    and ``cached`` fields.  ``cache_hits``/``cache_misses`` count cells
    served from / added to the on-disk cache (both zero when no cache
    directory was given).
    """

    tasks: list[SweepTask]
    results: list[dict[str, object]]
    elapsed_seconds: float
    n_jobs: int
    backend: str
    cache_hits: int = 0
    cache_misses: int = 0

    def rows(self) -> list[dict[str, object]]:
        """The result rows (alias used by table formatting helpers)."""
        return self.results


def build_translator(method: str, **params):
    """Construct a translator by method name.

    Args:
        method: ``"exact"``, ``"select"``, ``"greedy"`` or ``"beam"``.
        **params: Constructor keyword arguments of the chosen class
            (e.g. ``k``, ``minsup``, ``max_candidates`` for SELECT;
            ``max_rule_size``, ``n_jobs``, ``max_nodes_per_search`` for
            EXACT).

    Returns:
        A ready-to-``fit`` translator instance.

    Example::

        >>> translator = build_translator("select", k=2, minsup=5)
        >>> type(translator).__name__
        'TranslatorSelect'
    """
    from repro.core.beam import TranslatorBeam
    from repro.core.translator import (
        TranslatorExact,
        TranslatorGreedy,
        TranslatorSelect,
    )

    classes = {
        "exact": TranslatorExact,
        "select": TranslatorSelect,
        "greedy": TranslatorGreedy,
        "beam": TranslatorBeam,
    }
    if method not in classes:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    return classes[method](**params)


def resolve_dataset_spec(
    spec: str | Mapping[str, object],
    scale: float | None = None,
    seed: int | None = None,
) -> TwoViewDataset:
    """Materialise a declarative dataset spec into a :class:`TwoViewDataset`.

    Args:
        spec: A registry name, a path to a ``.2v`` file, or a one-key
            mapping ``{"synthetic": {...}}`` /  ``{"noise": {...}}``.
        scale: Transaction-count scale for registry stand-ins.
        seed: Seed applied to generator specs that do not pin their own
            and to registry stand-ins (``None`` keeps their defaults).

    Returns:
        The materialised dataset.

    Example::

        >>> data = resolve_dataset_spec({"noise": {"n_transactions": 50,
        ...                                        "n_left": 4, "n_right": 4}})
        >>> data.n_transactions
        50
    """
    if isinstance(spec, str):
        if Path(spec).exists():
            return load_dataset(spec)
        return make_dataset(spec, scale=scale, seed=seed)
    if isinstance(spec, Mapping):
        if len(spec) != 1:
            raise ValueError(
                "generator specs must be a one-key mapping "
                "{'synthetic': {...}} or {'noise': {...}}"
            )
        kind, args = next(iter(spec.items()))
        args = dict(args)
        if seed is not None and "seed" not in args:
            args["seed"] = seed
        if kind == "synthetic":
            dataset, __ = generate_planted(SyntheticSpec(**args))
            return dataset
        if kind == "noise":
            return random_dataset(**args)
        raise ValueError(f"unknown dataset generator {kind!r}")
    raise TypeError(f"cannot resolve dataset spec of type {type(spec).__name__}")


def _execute_task(task: SweepTask) -> dict[str, object]:
    """Fit one sweep cell and return its summary row (picklable worker)."""
    dataset = resolve_dataset_spec(task.dataset, scale=task.scale, seed=task.seed)
    translator = build_translator(task.method, **dict(task.params))
    notes = ""
    start = time.perf_counter()
    try:
        result = translator.fit(dataset)
    except RuntimeError:
        if not task.fallback_auto:
            raise
        # Candidate mining overflowed under the requested threshold; the
        # paper's recipe is to fall back to an auto-tuned minsup.
        result = build_translator(task.method).fit(dataset)
        notes = "auto minsup fallback"
    row = result.summary()
    if not getattr(result, "converged", True):
        notes = (notes + "; " if notes else "") + "node budget hit"
    row.update(
        {
            "seed": task.seed,
            "params": dict(task.params),
            "tag": task.tag,
            "converged": bool(getattr(result, "converged", True)),
            "notes": notes,
            "cached": False,
            "task_seconds": time.perf_counter() - start,
            "rules": [str(rule) for rule in result.table],
        }
    )
    return row


def expand_grid(
    datasets: Sequence[str | Mapping[str, object]],
    methods: Sequence[str] = ("select",),
    params: Mapping[str, Sequence[object]] | None = None,
    seeds: Iterable[int | None] = (None,),
    scale: float | None = None,
    fallback_auto: bool = False,
) -> list[SweepTask]:
    """Cartesian-product a grid definition into a flat task list.

    Args:
        datasets: Dataset specs (see :class:`SweepTask`).
        methods: Translator method names.
        params: Mapping from constructor parameter name to the list of
            values to sweep; the cross product of all value lists is
            taken.  ``None`` means a single empty parameter setting.
        seeds: Dataset seeds (``None`` = each dataset's default).
        scale: Registry transaction-count scale applied to every task.
        fallback_auto: Forwarded to every task.

    Returns:
        Tasks ordered dataset-major, then method, then parameter
        combination, then seed — the order ``run_sweep`` reports in.

    Example::

        >>> tasks = expand_grid(["house"], methods=["greedy", "select"],
        ...                     params={"minsup": [2, 5]}, seeds=[0, 1])
        >>> len(tasks)
        8
    """
    grid_names = sorted(params) if params else []
    value_lists = [list(params[name]) for name in grid_names] if params else []
    combos = list(itertools.product(*value_lists)) if grid_names else [()]
    tasks = []
    for dataset in datasets:
        for method in methods:
            for combo in combos:
                for seed in seeds:
                    tasks.append(
                        SweepTask(
                            dataset=dataset,
                            method=method,
                            params=dict(zip(grid_names, combo)),
                            seed=seed,
                            scale=scale,
                            fallback_auto=fallback_auto,
                        )
                    )
    return tasks


def run_sweep(
    tasks: Sequence[SweepTask],
    n_jobs: int | None = 1,
    backend: str = "auto",
    cache_dir: str | Path | None = None,
    executor: ParallelExecutor | None = None,
) -> SweepReport:
    """Run a sweep grid, sharded across workers, through the result cache.

    Args:
        tasks: The cells to run (see :func:`expand_grid`).
        n_jobs: Worker count (``None``/``-1`` = all CPUs).
        backend: Executor backend; ``"auto"`` resolves to ``"serial"``
            for one worker and ``"process"`` otherwise (sweep cells are
            coarse, CPU-bound and picklable).
        cache_dir: Optional directory for the content-hashed result
            cache; cells whose key is present are served from disk.
        executor: Pre-built :class:`ParallelExecutor` overriding
            ``n_jobs``/``backend``.

    Returns:
        A :class:`SweepReport` whose ``results`` align one-to-one with
        ``tasks`` regardless of execution order.

    Example::

        >>> noise = {"noise": {"n_transactions": 40, "n_left": 3, "n_right": 3}}
        >>> report = run_sweep(expand_grid([noise], methods=["greedy"]))
        >>> len(report.results)
        1
    """
    start = time.perf_counter()
    tasks = list(tasks)
    if executor is None:
        if backend == "auto":
            resolved = ParallelExecutor(n_jobs=n_jobs)
            backend = "serial" if resolved.n_jobs == 1 else "process"
        # chunk_size=1: sweep cells are coarse and heterogeneous (grid
        # order groups expensive cells together), so even per-worker
        # chunks would serialize the slow ones behind each other.
        executor = ParallelExecutor(n_jobs=n_jobs, backend=backend, chunk_size=1)
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    results: list[dict[str, object] | None] = [None] * len(tasks)
    pending: list[tuple[int, SweepTask, str | None]] = []
    hits = 0
    for index, task in enumerate(tasks):
        key = task.key() if cache is not None else None
        if cache is not None:
            value = cache.get(key)
            if value is not None:
                value = dict(value)
                value["cached"] = True
                # tag is a display label outside the cache key: restore
                # this run's, not the storing run's.
                value["tag"] = task.tag
                results[index] = value
                hits += 1
                continue
        pending.append((index, task, key))

    fresh = executor.map(_execute_task, [task for __, task, __key in pending])
    for (index, __task, key), row in zip(pending, fresh):
        results[index] = row
        if cache is not None:
            cache.put(key, row)

    return SweepReport(
        tasks=tasks,
        results=[row for row in results if row is not None],
        elapsed_seconds=time.perf_counter() - start,
        n_jobs=executor.n_jobs,
        backend=executor.backend,
        cache_hits=hits,
        cache_misses=len(pending) if cache is not None else 0,
    )
