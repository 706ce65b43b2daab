"""Command-line interface.

Subcommands mirroring the library's main entry points::

    repro-translator stats [dataset ...]          Table 1 statistics
    repro-translator fit DATASET [options]        induce a translation table
    repro-translator fit-multiview DATASET [opts] pairwise k-view translation
    repro-translator compare DATASET [options]    Table 3 comparison
    repro-translator trace DATASET [options]      Fig. 2 construction trace
    repro-translator predict DATASET [options]    held-out prediction
    repro-translator randomize DATASET [options]  swap-randomization test
    repro-translator describe DATASET [options]   full model report
    repro-translator stability DATASET [options]  bootstrap stability
    repro-translator encoding DATASET [options]   refined-encoding check
    repro-translator cluster DATASET [options]    k-tables clustering
    repro-translator convert SRC DST              .2v <-> ARFF conversion
    repro-translator sweep DATASET... [options]   parallel experiment grids
    repro-translator publish DATASET [options]    fit + publish a model artifact
    repro-translator serve [options]              async prediction server
    repro-translator predict-batch [options]      offline batched prediction
    repro-translator stream [options]             streaming model maintenance
    repro-translator trace-dump PATH [options]    render request-trace spans

``DATASET`` is either a registry name (``house``, ``cal500``, ...) or a
path to a ``.2v`` file.  Also runnable as ``python -m repro``.

``sweep`` shards a ``datasets x methods x params x seeds`` grid across
workers (:mod:`repro.runtime`) with an optional content-hashed result
cache, e.g.::

    repro-translator sweep house tictactoe --method select --method greedy \
        --param minsup=2,5 --seeds 0,1 --n-jobs 4 --cache-dir .repro-cache

The fit-family commands accept ``--n-jobs`` for intra-fit parallelism
(sharded exact search, parallel beam expansion); results are identical
to ``--n-jobs 1`` by construction.

The serving commands (:mod:`repro.serve`) work against a model
registry directory: ``publish`` fits (or takes ``--table``) and writes
a new immutable version, ``serve`` exposes ``/predict`` with
micro-batching, ``predict-batch`` answers a file of requests offline::

    repro-translator publish car --name car-select --registry ./registry
    repro-translator serve --registry ./registry --port 8100
    repro-translator predict-batch --registry ./registry --model car-select \
        --target R --input rows.json

``stream`` (:mod:`repro.stream`) tails a row source (JSONL or packed
binary frames), maintains a sliding/tumbling window incrementally,
refits when drift is detected, and publishes fresh versions into the
registry — a running ``serve`` process hot-swaps them via the
``latest`` pointer without a restart::

    repro-translator stream rows.jsonl --registry ./registry --name live \
        --vocab-from car --window 512 --check-every 128
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.data.arff import arff_to_two_view, load_arff, save_arff, two_view_to_arff
from repro.data.dataset import TwoViewDataset
from repro.data.io import load_dataset, save_dataset
from repro.data.registry import dataset_names, make_dataset, paper_stats
from repro.core.encoding import CodeLengthModel
from repro.core.predict import holdout_evaluation, predict_view, prediction_scores
from repro.core.table import TranslationTable
from repro.core.clustering import cluster_two_view
from repro.core.pruning import prune_table
from repro.core.refined import refined_lengths
from repro.core.beam import TranslatorBeam
from repro.core.translator import TranslatorExact, TranslatorGreedy, TranslatorSelect
from repro.eval.comparison import compare_methods
from repro.eval.randomization import randomization_test
from repro.eval.report import describe_result
from repro.eval.stability import bootstrap_stability
from repro.eval.tables import format_table
from repro.eval.trace import format_trace

__all__ = ["main", "build_parser"]


def _resolve_dataset(
    spec: str,
    scale: float | None,
    discretize: str = "mdl",
    n_bins: int = 5,
) -> TwoViewDataset:
    if Path(spec).exists():
        return load_dataset(spec)
    return make_dataset(spec, scale=scale, discretize=discretize, n_bins=n_bins)


def _dataset_from_args(spec: str, args: argparse.Namespace) -> TwoViewDataset:
    """Resolve a dataset spec honouring the ``--discretize``/``--n-bins``
    options (used by the mixed-type registry datasets; Boolean datasets
    ignore them)."""
    return _resolve_dataset(
        spec,
        args.scale,
        discretize=getattr(args, "discretize", "mdl"),
        n_bins=getattr(args, "n_bins", 5),
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    names = args.datasets or dataset_names()
    rows = []
    for name in names:
        dataset = _dataset_from_args(name, args)
        codes = CodeLengthModel(dataset)
        row = dataset.summary()
        row["L(D,empty)"] = round(codes.baseline_length(), 0)
        if name in dataset_names():
            stats = paper_stats(name)
            row["paper_n"] = stats.n_transactions
            row["paper_L(D,empty)"] = stats.baseline_bits
        rows.append(row)
    print(format_table(rows, float_digits=3, title="Dataset statistics (Table 1)"))
    return 0


def _make_translator(args: argparse.Namespace):
    n_jobs = getattr(args, "n_jobs", 1)
    max_nodes = getattr(args, "max_nodes", None)
    time_budget = getattr(args, "time_budget", None)
    if args.method != "exact" and (max_nodes is not None or time_budget is not None):
        raise SystemExit(
            "--max-nodes/--time-budget are anytime budgets of the exact "
            "search; use --method exact"
        )
    if args.method == "exact":
        return TranslatorExact(
            max_iterations=args.max_iterations,
            max_rule_size=args.max_rule_size,
            max_nodes_per_search=max_nodes,
            n_jobs=n_jobs,
            time_budget_per_search=time_budget,
        )
    if args.method == "select":
        return TranslatorSelect(
            k=args.k,
            minsup=args.minsup,
            max_iterations=args.max_iterations,
        )
    if args.method == "greedy":
        return TranslatorGreedy(minsup=args.minsup)
    if args.method == "beam":
        return TranslatorBeam(
            max_iterations=args.max_iterations,
            max_rule_size=args.max_rule_size or 6,
            n_jobs=n_jobs,
        )
    raise ValueError(f"unknown method {args.method!r}")


def _coerce(value: str):
    """Best-effort int/float/str coercion for --param values."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    if value.lower() in ("none", "null"):
        return None
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def _parse_param_grid(entries: list[str]) -> dict[str, list[object]]:
    """Parse repeated ``--param name=v1,v2`` options into a grid mapping."""
    grid: dict[str, list[object]] = {}
    for entry in entries:
        name, separator, values = entry.partition("=")
        if not separator or not name or not values:
            raise SystemExit(f"--param expects NAME=V1[,V2,...], got {entry!r}")
        grid[name] = [_coerce(value) for value in values.split(",")]
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runtime import expand_grid, run_sweep

    grid = expand_grid(
        datasets=args.datasets,
        methods=args.method or ["select"],
        params=_parse_param_grid(args.param or []),
        seeds=[
            None if seed.lower() in ("none", "default") else int(seed)
            for seed in args.seeds.split(",")
        ],
        scale=args.scale,
        fallback_auto=args.fallback_auto,
    )
    report = run_sweep(
        grid,
        n_jobs=args.n_jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
    )
    columns = [
        "dataset", "method", "params", "seed", "n_rules", "compression_ratio",
        "correction_fraction", "runtime_seconds", "cached", "notes",
    ]
    rows = []
    for row in report.results:
        cells = {key: row.get(key, "") for key in columns}
        cells["params"] = ",".join(
            f"{name}={value}" for name, value in (row.get("params") or {}).items()
        )
        rows.append(cells)
    print(
        format_table(
            rows,
            columns=columns,
            float_digits=4,
            title=f"sweep: {len(grid)} task(s), n_jobs={report.n_jobs} "
            f"({report.backend}), {report.elapsed_seconds:.2f}s, "
            f"cache {report.cache_hits} hit(s) / {report.cache_misses} miss(es)",
        )
    )
    if args.output:
        payload = {
            "tasks": [task.payload() for task in report.tasks],
            "results": report.results,
            "elapsed_seconds": report.elapsed_seconds,
            "n_jobs": report.n_jobs,
            "backend": report.backend,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
        }
        args.output.write_text(
            json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8"
        )
        print(f"# report written to {args.output}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.serve import ModelArtifact, ModelRegistry

    dataset = _dataset_from_args(args.dataset, args)
    if args.table is not None:
        table = TranslationTable.load(args.table)

        class _Loaded:
            def summary(self):
                return {"source": str(args.table), "n_rules": len(table)}

        result = _Loaded()
        result.table = table
        fit_params = {"source": "table-file", "path": str(args.table)}
        default_name = f"{dataset.name}-table"
    else:
        translator = _make_translator(args)
        result = translator.fit(dataset)
        fit_params = {
            "method": args.method,
            "minsup": args.minsup,
            "k": args.k,
            "max_iterations": args.max_iterations,
            "max_rule_size": args.max_rule_size,
        }
        default_name = f"{dataset.name}-{args.method}"
    name = args.name or default_name
    artifact = ModelArtifact.from_result(name, dataset, result, fit_params)
    registry = ModelRegistry(args.registry)
    published = registry.publish(artifact, sidecar=not args.no_sidecar)
    print(f"# published {published.name} v{published.version} "
          f"({len(published.table)} rules) to {args.registry}")
    print(f"# content hash: {published.content_hash}")
    sidecar_path = registry.sidecar_path(published.name, published.version)
    if sidecar_path.exists():
        print(f"# mmap sidecar: {sidecar_path} ({sidecar_path.stat().st_size} bytes)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs as _obs
    from repro.serve import ModelRegistry, PredictionServer, PredictionService

    registry = ModelRegistry(args.registry)
    models = registry.models()
    print(f"# serving {len(models)} model(s) {models} from {args.registry}")
    tracer = None
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        role = "router" if args.workers > 1 else "server"
        exporter = _obs.JsonlSpanExporter(trace_dir / f"spans-{role}.jsonl")
        tracer = _obs.Tracer(exporter)
        print(f"# tracing spans to {trace_dir} (header: {_obs.TRACE_HEADER})")
    if args.metrics:
        _obs.instrument(tracer=tracer)
        print("# engine instrumentation enabled (scrape GET /metrics)")
    if args.workers > 1:
        from repro.serve.router import ReplicaRouter, process_replica_factory

        factory = process_replica_factory(
            str(args.registry),
            service_config={
                "max_batch": args.max_batch,
                "max_delay_ms": args.max_delay_ms,
                "cache_size": args.cache_size,
            },
            server_config={
                "read_timeout": args.read_timeout,
                "drain_timeout": args.drain_timeout,
            },
            obs_config={
                "instrument": bool(args.metrics),
                "trace_dir": str(args.trace_dir) if args.trace_dir else None,
            },
        )
        router = ReplicaRouter(
            factory,
            workers=args.workers,
            registry=registry,
            host=args.host,
            port=args.port,
            probe_interval=args.probe_interval,
            read_timeout=args.read_timeout,
            tracer=tracer,
        )
        print(
            f"# router http://{args.host}:{args.port} over {args.workers} "
            f"worker process(es)  "
            f"(/healthz, /readyz, /statz, /metrics, /models, /predict)"
        )
        router.run()
        return 0
    service = PredictionService(
        registry,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        cache_size=args.cache_size,
        tracer=tracer,
    )
    server = PredictionServer(
        service,
        host=args.host,
        port=args.port,
        read_timeout=args.read_timeout,
        drain_timeout=args.drain_timeout,
    )
    print(
        f"# http://{args.host}:{args.port}  "
        f"(/healthz, /readyz, /metrics, /models, /predict)"
    )
    server.run()
    return 0


def _cmd_trace_dump(args: argparse.Namespace) -> int:
    from repro.obs.trace import build_span_tree, read_spans, span_files

    path = Path(args.path)
    if path.is_dir():
        files: list = []
        for base in sorted(path.glob("spans-*.jsonl")):
            files.extend(span_files(str(base)))
    else:
        files = span_files(str(path)) if path.exists() else []
    if not files:
        print(f"# no span files under {path}", file=sys.stderr)
        return 1
    spans: list[dict] = []
    for file in files:
        spans.extend(read_spans(file))
    if args.trace:
        spans = [span for span in spans if span.get("trace_id") == args.trace]
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
        return 0
    trees = build_span_tree(spans)
    print(f"# {len(spans)} span(s) in {len(trees)} trace(s) "
          f"from {len(files)} file(s)")
    for trace_id in sorted(trees):
        records = trees[trace_id]
        children: dict[object, list[dict]] = {}
        ids = {record.get("span_id") for record in records}
        for record in records:
            parent = record.get("parent_id")
            # Orphans (parent exported elsewhere or lost) print as roots.
            children.setdefault(parent if parent in ids else None, []).append(record)
        print(f"trace {trace_id}")
        stack = [(span, 1) for span in reversed(children.get(None, []))]
        while stack:
            span, depth = stack.pop()
            start, end = span.get("start_time"), span.get("end_time")
            timing = (
                f"{(end - start) * 1000.0:.3f}ms"
                if isinstance(start, (int, float)) and isinstance(end, (int, float))
                else "?"
            )
            attrs = span.get("attributes") or {}
            extra = "".join(f" {key}={attrs[key]}" for key in sorted(attrs))
            print(f"{'  ' * depth}{span['name']}  [{timing}]"
                  f"  span={span['span_id']}{extra}")
            stack.extend(
                (child, depth + 1)
                for child in reversed(children.get(span.get("span_id"), []))
            )
    return 0


def _cmd_predict_batch(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ModelRegistry, PredictionService

    registry = ModelRegistry(args.registry)
    service = PredictionService(
        registry,
        max_delay_ms=0.0,
        cache_size=0,
    )
    rows = json.loads(Path(args.input).read_text(encoding="utf-8"))
    request = {
        "model": args.model,
        "version": args.version,
        "target": args.target,
        "rows": rows,
    }
    response = asyncio.run(service.predict(request))
    payload = json.dumps(response, indent=2) + "\n"
    if args.output:
        args.output.write_text(payload, encoding="utf-8")
        print(f"# {len(rows)} row(s) predicted with {args.model} "
              f"v{response['version']}; written to {args.output}")
    else:
        print(payload, end="")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.beam import TranslatorBeam
    from repro.serve import ModelRegistry
    from repro.stream import (
        DriftMonitor,
        JsonlSource,
        MaintenanceLoop,
        PackedSource,
        RefitPolicy,
        StreamBuffer,
    )

    if args.vocab_from is not None:
        vocab = _dataset_from_args(args.vocab_from, args)
        n_left, n_right = vocab.n_left, vocab.n_right
        left_names, right_names = vocab.left_names, vocab.right_names
    elif args.n_left is not None and args.n_right is not None:
        n_left, n_right = args.n_left, args.n_right
        left_names = right_names = None
    else:
        print(
            "stream requires --vocab-from DATASET or both --n-left and --n-right",
            file=sys.stderr,
        )
        return 2
    if args.method == "beam":
        translator = TranslatorBeam(
            max_rule_size=args.max_rule_size or 6, n_jobs=args.n_jobs
        )
    else:
        translator = TranslatorExact(
            max_rule_size=args.max_rule_size, n_jobs=args.n_jobs
        )
    source_path = Path(args.source)
    if source_path.suffix in (".2vp", ".bin", ".packed") and args.follow:
        print(
            "--follow is only supported for JSONL sources "
            "(packed files are read once)",
            file=sys.stderr,
        )
        return 2
    registry = ModelRegistry(args.registry)

    # Sources, buffers and loops are built per supervised attempt: a
    # crashed loop must restart with a fresh source iterator and an
    # empty buffer restored from its checkpoint, not the half-dead
    # originals.
    def build_loop() -> MaintenanceLoop:
        if source_path.suffix in (".2vp", ".bin", ".packed"):
            source = PackedSource(source_path, max_rows=args.max_rows)
        else:
            source = JsonlSource(
                source_path,
                follow=args.follow,
                max_rows=args.max_rows,
                strict=args.strict_source,
            )
        buffer = StreamBuffer(
            n_left,
            n_right,
            left_names=left_names,
            right_names=right_names,
            capacity=args.window,
        )
        return MaintenanceLoop(
            source,
            buffer,
            registry,
            args.name,
            translator,
            policy=RefitPolicy(
                window=args.window,
                policy=args.policy,
                check_every=args.check_every,
                min_rows=args.min_rows,
                always_publish=args.always_publish,
            ),
            monitor_factory=lambda table: DriftMonitor(
                table,
                min_degradation=args.min_degradation,
                significance=args.significance,
                n_permutations=args.permutations,
                seed=args.seed,
            ),
            checkpoint_dir=args.checkpoint_dir,
        )

    print(
        f"# streaming {args.source} into model {args.name!r} "
        f"({args.policy} window of {args.window}, registry {args.registry})"
    )
    loops: list[MaintenanceLoop] = []

    def attempt_run(attempt: int):
        loop = build_loop()
        loops.append(loop)
        return loop.run()

    if args.max_restarts > 0:
        from repro.resilience import Supervisor

        supervisor = Supervisor(attempt_run, max_restarts=args.max_restarts)
        asyncio.run(supervisor.run())
        for event in supervisor.events:
            print(
                f"# restart {event.attempt}/{args.max_restarts} after "
                f"{event.error} (backoff {event.delay:.2f}s)"
            )
    else:
        loops.append(build_loop())
        asyncio.run(loops[-1].run())
    loop = loops[-1]
    if loop.checkpoint_recovery_error:
        print(f"# checkpoint ignored: {loop.checkpoint_recovery_error}")
    if loop.resumed_rows:
        print(f"# resumed from checkpoint at row {loop.resumed_rows}")
    malformed = getattr(loop.source, "malformed_rows", 0)
    if malformed:
        print(f"# {malformed} malformed source line(s) skipped")
    published = [event for event in loop.events if event.published]
    for event in loop.events:
        state = (
            f"published v{event.published_version}"
            if event.published
            else "no drift"
        )
        detail = ""
        if event.report is not None:
            detail = (
                f"  L%={100 * event.report.published_ratio:.2f} vs "
                f"refit {100 * event.report.refit_ratio:.2f}  "
                f"p={event.report.p_value:.3f}"
                + (f"  [{event.report.reason}]" if event.report.reason else "")
            )
        print(
            f"# rows={event.rows_seen:>6}  window={event.window_rows:>5}  "
            f"{state}{detail}"
        )
    print(
        f"# {loop.rows_seen} row(s) consumed, {len(loop.events)} check(s), "
        f"{len(published)} version(s) published; latest = "
        f"{loop.published_version}"
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    translator = _make_translator(args)
    if args.store is not None:
        if args.dataset is not None:
            raise SystemExit("pass either a dataset or --store, not both")
        if args.method != "exact":
            raise SystemExit("--store fitting requires --method exact")
        from repro.corpus import ColumnStore

        with ColumnStore(args.store) as store:
            result = translator.fit(store=store)
        dataset = result.state.dataset
        print(f"# loaded store {args.store} "
              f"({store.n_transactions} rows, {store.n_blocks} block(s))")
    elif args.dataset is not None:
        dataset = _dataset_from_args(args.dataset, args)
        result = translator.fit(dataset)
    else:
        raise SystemExit("fit needs a dataset argument or --store")
    print(f"# {result.method} on {dataset.name}")
    print(
        f"# |T|={result.n_rules}  L%={100 * result.compression_ratio:.2f}  "
        f"|C|%={100 * result.correction_fraction:.2f}  "
        f"runtime={result.runtime_seconds:.2f}s"
    )
    if getattr(args, "max_nodes", None) is not None or getattr(
        args, "time_budget", None
    ) is not None:
        achieved = sum(record.gain for record in result.history)
        print(
            f"# anytime: achieved gain {achieved:.2f} bits, "
            f"gap bound {result.gap_bound:.2f} bits "
            f"({'complete' if result.converged else 'budget-interrupted'})"
        )
    table = result.table
    if args.prune:
        pruned = prune_table(dataset, table)
        table = pruned.table
        print(
            f"# pruned {len(pruned.removed)} rule(s), "
            f"saving {pruned.improvement_bits:.1f} bits"
        )
    print(table.render(dataset, limit=args.limit))
    if args.output:
        table.save(args.output)
        print(f"# table written to {args.output}")
    return 0


def _resolve_multiview(spec: str, args: argparse.Namespace):
    """Build a ``k``-view dataset from a registry name or ``.2v`` path.

    ``--views 2`` keeps the dataset's own two views; for ``k > 2`` the
    joined item matrix is re-partitioned with the greedy density-balanced
    :func:`~repro.data.preprocessing.split_views` (schema-carrying
    datasets keep all bins of one source attribute in the same view).
    """
    from repro.data.preprocessing import split_views
    from repro.data.schema import ViewSchema
    from repro.multiview.dataset import MultiViewDataset

    dataset = _dataset_from_args(spec, args)
    n_views = args.views
    if n_views == 2:
        return MultiViewDataset(
            [dataset.left, dataset.right],
            view_names=["left", "right"],
            item_names=[list(dataset.left_names), list(dataset.right_names)],
            name=dataset.name,
            schemas=[dataset.left_schema, dataset.right_schema],
        )
    joint, names = dataset.joined()
    schema = None
    if dataset.left_schema is not None and dataset.right_schema is not None:
        schema = ViewSchema(list(dataset.left_schema) + list(dataset.right_schema))
    origins = [item.source for item in schema] if schema is not None else None
    parts = split_views(joint, names, origins, rng=args.seed, n_views=n_views)
    return MultiViewDataset(
        [joint[:, columns] for columns in parts],
        item_names=[[names[column] for column in columns] for columns in parts],
        name=f"{dataset.name}[k={n_views}]",
        schemas=(
            [schema.subset(list(columns)) for columns in parts]
            if schema is not None
            else None
        ),
    )


def _cmd_fit_multiview(args: argparse.Namespace) -> int:
    from repro.multiview.translator import MultiViewTranslator

    if args.method not in ("select", "exact"):
        raise SystemExit(
            "fit-multiview supports --method select or exact "
            "(the pairwise decomposition has no greedy/beam variant)"
        )
    dataset = _resolve_multiview(args.dataset, args)
    translator = MultiViewTranslator(
        k=args.k,
        minsup=args.minsup,
        method=args.method,
        conditional=args.conditional,
        max_iterations=args.max_iterations,
        max_rule_size=args.max_rule_size,
    )
    result = translator.fit(dataset)
    print(
        f"# multiview {result.method} on {dataset.name} "
        f"({dataset.n_views} views, {len(result.pair_results)} pair(s)"
        f"{', conditional' if result.conditional else ''})"
    )
    print(
        f"# |T|={result.n_rules}  L%={100 * result.compression_ratio:.2f}  "
        f"runtime={result.runtime_seconds:.2f}s"
    )
    for (first, second), pair_result in result.pair_results.items():
        pair_name = (
            f"{dataset.view_names[first]}~{dataset.view_names[second]}"
        )
        rows = result.pair_rows.get((first, second), dataset.n_transactions)
        print(
            f"\n## pair {pair_name}: |T|={pair_result.n_rules}  "
            f"L%={100 * pair_result.compression_ratio:.2f}  rows={rows}"
        )
        print(pair_result.table.render(pair_result.state.dataset, limit=args.limit))
    if args.output:
        summary = result.summary()
        summary["per_pair"] = {
            f"{first}~{second}": cells
            for (first, second), cells in summary["per_pair"].items()
        }
        args.output.write_text(
            json.dumps(summary, indent=2, default=str) + "\n", encoding="utf-8"
        )
        print(f"# summary written to {args.output}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.corpus import ColumnStore, ingest_dataset

    dataset = _dataset_from_args(args.dataset, args)
    digest = ingest_dataset(
        dataset,
        args.output,
        chunk_rows=args.chunk_rows,
        block_words=args.block_words,
        sample_size=args.sample_rows,
        n_hashes=args.minhash_hashes,
        seed=args.seed,
    )
    size = args.output.stat().st_size
    with ColumnStore(args.output) as store:
        print(f"# ingested {dataset.name} -> {args.output} ({size} bytes)")
        print(
            f"# {store.n_transactions} rows x "
            f"({store.n_left}+{store.n_right}) items in {store.n_blocks} "
            f"block(s) of {store.rows_per_block} rows; quant_bits="
            f"{store.quant_bits}"
        )
        print(f"# header digest: {digest}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.data.dataset import Side

    dataset = _dataset_from_args(args.dataset, args)
    if args.table is not None:
        # Score a saved/published table on a held-out split directly,
        # skipping the (potentially expensive) refit.
        table = TranslationTable.load(args.table)
        __, test = dataset.split(args.train_fraction, rng=args.seed)
        scores = {
            "left_to_right": prediction_scores(
                predict_view(test.left, table, Side.RIGHT, dataset.n_right),
                test.right,
                Side.RIGHT,
            ),
            "right_to_left": prediction_scores(
                predict_view(test.right, table, Side.LEFT, dataset.n_left),
                test.left,
                Side.LEFT,
            ),
        }
        print(f"# prediction on {dataset.name} with saved table "
              f"{args.table} ({len(table)} rules)")
    else:
        translator = _make_translator(args)
        scores = holdout_evaluation(
            dataset, translator, train_fraction=args.train_fraction, rng=args.seed
        )
        print(f"# held-out prediction on {dataset.name} "
              f"(train fraction {args.train_fraction})")
    rows = [
        {
            "direction": direction,
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
        }
        for direction, score in scores.items()
    ]
    print(format_table(rows, float_digits=3))
    return 0


def _cmd_randomize(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    translator = _make_translator(args)
    result = randomization_test(
        dataset, translator, n_permutations=args.permutations, rng=args.seed
    )
    print(f"# swap-randomization test on {dataset.name}")
    print(f"observed L%:  {100 * result.observed_ratio:.2f}")
    null_mean = sum(result.null_ratios) / len(result.null_ratios)
    print(f"null mean L%: {100 * null_mean:.2f} over {args.permutations} permutations")
    print(f"empirical p-value: {result.p_value:.3f}   z-score: {result.z_score:.2f}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    translator = _make_translator(args)
    result = translator.fit(dataset)
    print(describe_result(dataset, result, max_rules=args.limit))
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    translator = _make_translator(args)
    report = bootstrap_stability(
        dataset,
        translator,
        n_resamples=args.resamples,
        sample_fraction=args.sample_fraction,
        replace=not args.no_replacement,
        rng=args.seed,
    )
    print(f"# bootstrap stability on {dataset.name}")
    print(report.render(dataset))
    return 0


def _cmd_encoding(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    translator = _make_translator(args)
    result = translator.fit(dataset)
    report = refined_lengths(dataset, result.table)
    print(f"# encoding comparison on {dataset.name} ({result.method})")
    print(format_table([report.summary()]))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    result = cluster_two_view(
        dataset,
        k=args.k_components,
        translator_factory=lambda: _make_translator(args),
        n_restarts=args.restarts,
        rng=args.seed,
    )
    print(f"# compression-based clustering of {dataset.name} "
          f"(k={result.k}, {'converged' if result.converged else 'round cap hit'})")
    print(f"total bits: {result.total_bits:.1f} "
          f"(labels {result.label_bits:.1f})")
    for component in range(result.k):
        size = int((result.labels == component).sum())
        print(f"\ncomponent {component}: {size} transactions, "
              f"{result.component_bits[component]:.1f} bits")
        print(result.tables[component].render(dataset, limit=args.limit))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    source, destination = Path(args.source), Path(args.destination)
    if source.suffix == ".2v" and destination.suffix == ".arff":
        save_arff(two_view_to_arff(load_dataset(source)), destination)
    elif source.suffix == ".arff" and destination.suffix == ".2v":
        relation = load_arff(source)
        left = [a.name for a in relation.attributes if a.name.startswith("L:")]
        right = [a.name for a in relation.attributes if a.name.startswith("R:")]
        if left and right:
            dataset = arff_to_two_view(
                relation, left_attributes=left, right_attributes=right
            )
        else:
            dataset = arff_to_two_view(relation)
        save_dataset(dataset, destination)
    else:
        print(
            "convert requires a .2v -> .arff or .arff -> .2v pair", file=sys.stderr
        )
        return 2
    print(f"# wrote {destination}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    results = compare_methods(dataset, minsup=args.minsup)
    print(
        format_table(
            [result.as_row() for result in results],
            title=f"Method comparison on {dataset.name} (Table 3)",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    dataset = _dataset_from_args(args.dataset, args)
    result = TranslatorSelect(k=1, minsup=args.minsup).fit(dataset)
    print(f"# construction trace of translator-select(1) on {dataset.name} (Fig. 2)")
    print(format_trace(result, every=args.every))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-translator",
        description="Association discovery in two-view data (TRANSLATOR reproduction)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale",
        type=float,
        default=None,
        help="transaction-count scale for registry datasets (default: REPRO_SCALE or 1.0)",
    )
    common.add_argument(
        "--discretize",
        choices=("mdl", "equal-height"),
        default="mdl",
        help="binning method for continuous columns of mixed-type registry "
        "datasets (abalone-mixed, winequality-mixed); Boolean datasets "
        "ignore it",
    )
    common.add_argument(
        "--n-bins",
        type=int,
        default=5,
        help="bin budget per continuous column for mixed-type datasets "
        "(the MDL method may merge below it)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser(
        "stats", help="dataset statistics (Table 1)", parents=[common]
    )
    stats.add_argument("datasets", nargs="*", help="registry names or .2v paths")
    stats.set_defaults(handler=_cmd_stats)

    method_options = argparse.ArgumentParser(add_help=False)
    method_options.add_argument(
        "--method", choices=("exact", "select", "greedy", "beam"), default="select"
    )
    method_options.add_argument(
        "--k", type=int, default=1, help="rules per iteration (select)"
    )
    method_options.add_argument(
        "--minsup", type=int, default=None, help="absolute minimum support"
    )
    method_options.add_argument("--max-iterations", type=int, default=None)
    method_options.add_argument("--max-rule-size", type=int, default=None)
    method_options.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="workers for intra-fit parallelism (exact search sharding, "
        "beam expansion); -1 = all CPUs; results identical to --n-jobs 1",
    )
    method_options.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="anytime node budget per best-rule search (exact method only); "
        "interrupted searches report an honest gap bound",
    )
    method_options.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="anytime wall-clock budget in seconds per best-rule search "
        "(exact method only), enforced as deterministic checkpointed "
        "node slices",
    )

    fit = subparsers.add_parser(
        "fit", help="induce a translation table", parents=[common, method_options]
    )
    fit.add_argument("dataset", nargs="?", default=None)
    fit.add_argument(
        "--store",
        type=Path,
        default=None,
        help="fit from an ingested column store (see `ingest`) instead of "
        "a dataset; exact method only",
    )
    fit.add_argument("--limit", type=int, default=30, help="rules to print")
    fit.add_argument("--output", type=Path, default=None, help="write table JSON here")
    fit.add_argument(
        "--prune", action="store_true", help="post-hoc prune the fitted table"
    )
    fit.set_defaults(handler=_cmd_fit)

    fit_multiview = subparsers.add_parser(
        "fit-multiview",
        help="pairwise k-view translation over shared packed bitsets",
        parents=[common, method_options],
    )
    fit_multiview.add_argument("dataset", help="registry name or .2v path")
    fit_multiview.add_argument(
        "--views",
        type=int,
        default=2,
        help="number of views: 2 keeps the dataset's own split, k > 2 "
        "re-partitions the joined items density-balanced",
    )
    fit_multiview.add_argument(
        "--conditional",
        action="store_true",
        help="score each pair residually on the transactions not yet "
        "covered by earlier pairs' rules",
    )
    fit_multiview.add_argument(
        "--seed", type=int, default=0, help="re-partition seed (--views > 2)"
    )
    fit_multiview.add_argument(
        "--limit", type=int, default=10, help="rules to print per pair"
    )
    fit_multiview.add_argument(
        "--output", type=Path, default=None, help="write the summary JSON here"
    )
    fit_multiview.set_defaults(handler=_cmd_fit_multiview)

    ingest = subparsers.add_parser(
        "ingest",
        help="pack a dataset into an out-of-core column store (RPROCOL1)",
        parents=[common],
    )
    ingest.add_argument("dataset", help="registry name or .2v path")
    ingest.add_argument(
        "--output", type=Path, required=True, help="column store file to write"
    )
    ingest.add_argument(
        "--chunk-rows", type=int, default=8192, help="rows streamed per chunk"
    )
    ingest.add_argument(
        "--block-words",
        type=int,
        default=128,
        help="uint64 words per column block (block = 64*words rows)",
    )
    ingest.add_argument(
        "--sample-rows",
        type=int,
        default=2048,
        help="row-sample size for the sound sketch bounds",
    )
    ingest.add_argument(
        "--minhash-hashes",
        type=int,
        default=8,
        help="minhash signature length (ordering heuristic; 0 disables)",
    )
    ingest.add_argument("--seed", type=int, default=0, help="sketch sampling seed")
    ingest.set_defaults(handler=_cmd_ingest)

    predict = subparsers.add_parser(
        "predict",
        help="held-out cross-view prediction",
        parents=[common, method_options],
    )
    predict.add_argument("dataset")
    predict.add_argument("--train-fraction", type=float, default=0.7)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument(
        "--table",
        type=Path,
        default=None,
        help="score this saved/published table JSON instead of refitting",
    )
    predict.set_defaults(handler=_cmd_predict)

    randomize = subparsers.add_parser(
        "randomize",
        help="swap-randomization significance test",
        parents=[common, method_options],
    )
    randomize.add_argument("dataset")
    randomize.add_argument("--permutations", type=int, default=19)
    randomize.add_argument("--seed", type=int, default=0)
    randomize.set_defaults(handler=_cmd_randomize)

    describe = subparsers.add_parser(
        "describe",
        help="full model report for a fitted table",
        parents=[common, method_options],
    )
    describe.add_argument("dataset")
    describe.add_argument("--limit", type=int, default=25, help="rules to print")
    describe.set_defaults(handler=_cmd_describe)

    stability = subparsers.add_parser(
        "stability",
        help="bootstrap stability of the fitted table",
        parents=[common, method_options],
    )
    stability.add_argument("dataset")
    stability.add_argument("--resamples", type=int, default=10)
    stability.add_argument("--sample-fraction", type=float, default=1.0)
    stability.add_argument(
        "--no-replacement",
        action="store_true",
        help="subsample without replacement (requires --sample-fraction < 1)",
    )
    stability.add_argument("--seed", type=int, default=0)
    stability.set_defaults(handler=_cmd_stability)

    encoding = subparsers.add_parser(
        "encoding",
        help="compare the paper's encoding to the refined (optimal) one",
        parents=[common, method_options],
    )
    encoding.add_argument("dataset")
    encoding.set_defaults(handler=_cmd_encoding)

    cluster = subparsers.add_parser(
        "cluster",
        help="compression-based clustering (k translation tables)",
        parents=[common, method_options],
    )
    cluster.add_argument("dataset")
    cluster.add_argument(
        "--k-components", type=int, default=2, help="number of components"
    )
    cluster.add_argument("--restarts", type=int, default=1)
    cluster.add_argument("--limit", type=int, default=10, help="rules to print per component")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.set_defaults(handler=_cmd_cluster)

    convert = subparsers.add_parser(
        "convert", help="convert between .2v and ARFF formats"
    )
    convert.add_argument("source")
    convert.add_argument("destination")
    convert.set_defaults(handler=_cmd_convert)

    compare = subparsers.add_parser(
        "compare", help="method comparison (Table 3)", parents=[common]
    )
    compare.add_argument("dataset")
    compare.add_argument("--minsup", type=int, default=None)
    compare.set_defaults(handler=_cmd_compare)

    trace = subparsers.add_parser(
        "trace", help="construction trace (Fig. 2)", parents=[common]
    )
    trace.add_argument("dataset")
    trace.add_argument("--minsup", type=int, default=None)
    trace.add_argument("--every", type=int, default=1, help="print every n-th iteration")
    trace.set_defaults(handler=_cmd_trace)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a datasets x methods x params x seeds grid across workers",
        parents=[common],
    )
    sweep.add_argument("datasets", nargs="+", help="registry names or .2v paths")
    sweep.add_argument(
        "--method",
        action="append",
        choices=("exact", "select", "greedy", "beam"),
        help="translator method; repeat for several (default: select)",
    )
    sweep.add_argument(
        "--param",
        action="append",
        metavar="NAME=V1[,V2,...]",
        help="sweep a translator constructor parameter over the given "
        "values; repeat for a grid (cross product)",
    )
    sweep.add_argument(
        "--seeds",
        default="default",
        help="comma-separated dataset seeds; 'default' keeps each "
        "dataset's own stable seed, matching `fit` (default: default)",
    )
    sweep.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="sweep workers; -1 = all CPUs (default: 1)",
    )
    sweep.add_argument(
        "--backend",
        choices=("auto", "serial", "thread", "process"),
        default="auto",
        help="executor backend (auto = process when n_jobs > 1)",
    )
    sweep.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="content-hashed result cache directory (re-runs are served "
        "from disk)",
    )
    sweep.add_argument(
        "--fallback-auto",
        action="store_true",
        help="on candidate-mining overflow, retry the cell with "
        "auto-tuned settings instead of failing",
    )
    sweep.add_argument(
        "--output", type=Path, default=None, help="write the JSON report here"
    )
    sweep.set_defaults(handler=_cmd_sweep)

    publish = subparsers.add_parser(
        "publish",
        help="fit a model (or take --table) and publish it to a registry",
        parents=[common, method_options],
    )
    publish.add_argument("dataset")
    publish.add_argument(
        "--registry", type=Path, required=True, help="model registry directory"
    )
    publish.add_argument(
        "--name", default=None, help="model name (default: <dataset>-<method>)"
    )
    publish.add_argument(
        "--table",
        type=Path,
        default=None,
        help="publish this saved table JSON instead of fitting",
    )
    publish.add_argument(
        "--no-sidecar",
        action="store_true",
        help="skip the binary mmap sidecar (compiled.bin) next to the JSON",
    )
    publish.set_defaults(handler=_cmd_publish)

    serve = subparsers.add_parser(
        "serve", help="run the async micro-batching prediction server"
    )
    serve.add_argument(
        "--registry", type=Path, required=True, help="model registry directory"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="rows that trigger an immediate micro-batch flush",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="longest time a request waits to be batched with others",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU response-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        help="per-connection budget (s) for receiving a request; slow "
        "clients get a 408",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="grace period (s) for in-flight requests on SIGINT/SIGTERM "
        "before stragglers are cancelled",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker replicas; >1 runs the replica router over N spawned "
        "processes sharing the mmap'd model artifacts",
    )
    serve.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        help="router health-probe sweep period (s); 0 disables probing",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="enable engine instrumentation (search/kernel/stream counters "
        "on GET /metrics; serving metrics are always exported)",
    )
    serve.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="directory for JSONL span exports (spans-<role>.jsonl per "
        "process); enables request tracing",
    )
    serve.set_defaults(handler=_cmd_serve)

    trace_dump = subparsers.add_parser(
        "trace-dump",
        help="render exported request-trace spans as linked trees",
    )
    trace_dump.add_argument(
        "path",
        help="a spans-*.jsonl file or a directory written via "
        "`serve --trace-dir`",
    )
    trace_dump.add_argument(
        "--trace", default=None, help="only show this 16-hex trace id"
    )
    trace_dump.add_argument(
        "--json",
        action="store_true",
        help="dump raw span records as JSON instead of trees",
    )
    trace_dump.set_defaults(handler=_cmd_trace_dump)

    predict_batch = subparsers.add_parser(
        "predict-batch",
        help="predict a JSON file of source-view rows from a published model",
    )
    predict_batch.add_argument(
        "--registry", type=Path, required=True, help="model registry directory"
    )
    predict_batch.add_argument("--model", required=True, help="published model name")
    predict_batch.add_argument(
        "--version", default=None, help="model version (default: latest)"
    )
    predict_batch.add_argument(
        "--target", choices=("L", "R"), default="R", help="view to predict"
    )
    predict_batch.add_argument(
        "--input",
        type=Path,
        required=True,
        help="JSON file: list of item-index lists over the source view",
    )
    predict_batch.add_argument(
        "--output", type=Path, default=None, help="write the JSON response here"
    )
    predict_batch.set_defaults(handler=_cmd_predict_batch)

    stream = subparsers.add_parser(
        "stream",
        help="ingest a row stream, refit on drift, hot-swap the registry",
        parents=[common],
    )
    stream.add_argument(
        "source",
        help="row source: a .jsonl file of {left, right} index lists, or a "
        ".2vp file of packed two-view frames",
    )
    stream.add_argument(
        "--registry", type=Path, required=True, help="model registry directory"
    )
    stream.add_argument("--name", required=True, help="registry model to maintain")
    stream.add_argument(
        "--vocab-from",
        default=None,
        help="dataset (registry name or .2v path) defining the vocabularies",
    )
    stream.add_argument("--n-left", type=int, default=None)
    stream.add_argument("--n-right", type=int, default=None)
    stream.add_argument("--window", type=int, default=512)
    stream.add_argument(
        "--policy", choices=("sliding", "tumbling"), default="sliding"
    )
    stream.add_argument("--check-every", type=int, default=128)
    stream.add_argument("--min-rows", type=int, default=64)
    stream.add_argument(
        "--method", choices=("exact", "beam"), default="exact",
        help="refit engine (both skip the window repack)",
    )
    stream.add_argument("--max-rule-size", type=int, default=None)
    stream.add_argument("--n-jobs", type=int, default=1)
    stream.add_argument("--min-degradation", type=float, default=0.02)
    stream.add_argument("--significance", type=float, default=0.05)
    stream.add_argument("--permutations", type=int, default=19)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--follow", action="store_true",
        help="tail a growing JSONL source instead of stopping at EOF",
    )
    stream.add_argument(
        "--max-rows", type=int, default=None, help="stop after this many rows"
    )
    stream.add_argument(
        "--always-publish", action="store_true",
        help="publish every refit candidate regardless of drift",
    )
    stream.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="directory for crash-recovery window checkpoints; a "
        "restarted loop resumes from the last check boundary",
    )
    stream.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        help="supervise the loop: restart it up to this many times on a "
        "crash (resuming from --checkpoint-dir when set)",
    )
    stream.add_argument(
        "--strict-source", action="store_true",
        help="fail on the first malformed JSONL line instead of "
        "skipping and counting it",
    )
    stream.set_defaults(handler=_cmd_stream)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
