"""Model serving: artifacts, registry, server.

The paper's TRANSLATE application (Section 2.3) turns a fitted
translation table into a cross-view *predictor*
(:class:`~repro.core.compiled.CompiledPredictor`, re-exported here,
which compiles a table into packed-bitset antecedent/consequent
matrices); this package turns that predictor into a deployable
service, in three layers:

* :mod:`~repro.serve.artifact` / :mod:`~repro.serve.registry` —
  schema-versioned, content-hashed JSON model artifacts organised into
  named models with immutable versions and a ``latest`` pointer;
  :mod:`~repro.serve.binfmt` adds the binary ``compiled.bin`` sidecar
  written at publish time — a hash-verified mmap layout that workers
  map zero-copy, sharing one page-cache copy of each model;
* :mod:`~repro.serve.server` — an asyncio HTTP service with a
  micro-batcher that coalesces concurrent requests into single
  compiled-predictor calls, an LRU response cache and per-model stats;
* :mod:`~repro.serve.router` — the horizontal front tier:
  ``serve --workers N`` puts N worker replicas behind one address with
  least-loaded fan-out, breaker-driven ejection/re-admission and
  drain-and-swap rollouts keyed off the registry's ``latest`` pointer.

CLI: ``repro-translator publish | serve | predict-batch``.  See
``docs/serving.md`` for the artifact format and the endpoint/knob
reference, ``docs/scaling.md`` for the binary layout and router
topology, and ``benchmarks/bench_serve.py`` / ``bench_cluster.py`` for
throughput numbers (``BENCH_serve.json`` / ``BENCH_cluster.json``).
"""

from repro.core.compiled import CompiledPredictor
from repro.serve.artifact import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCorruptError,
    ArtifactError,
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from repro.serve.binfmt import (
    SIDECAR_NAME,
    MappedArtifact,
    map_artifact,
    verify_sidecar,
    write_compiled,
)
from repro.serve.registry import ModelRegistry
from repro.serve.router import (
    Replica,
    ReplicaRouter,
    local_replica_factory,
    process_replica_factory,
)
from repro.serve.server import (
    LRUCache,
    MicroBatcher,
    ModelStats,
    PredictionServer,
    PredictionService,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCorruptError",
    "ArtifactError",
    "CompiledPredictor",
    "LRUCache",
    "MappedArtifact",
    "MicroBatcher",
    "ModelArtifact",
    "ModelRegistry",
    "ModelStats",
    "PredictionServer",
    "PredictionService",
    "Replica",
    "ReplicaRouter",
    "SIDECAR_NAME",
    "load_artifact",
    "local_replica_factory",
    "map_artifact",
    "process_replica_factory",
    "save_artifact",
    "verify_sidecar",
    "write_compiled",
]
