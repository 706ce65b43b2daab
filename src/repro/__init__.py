"""repro — a reproduction of *Association Discovery in Two-View Data*.

Translation tables, MDL-based model selection and the TRANSLATOR
algorithms of van Leeuwen & Galbrun (IEEE TKDE 27(12), 2015), plus the
baselines the paper compares against (cross-view association rules,
significant rule discovery, redescription mining, KRIMP), a parallel
experiment runtime (:mod:`repro.runtime`) for sharded sweeps with
result caching, a model-serving subsystem (:mod:`repro.serve`) with a
compiled bitset predictor, versioned artifacts and an async
micro-batching prediction server, a streaming subsystem
(:mod:`repro.stream`) that ingests live rows into an incrementally
packed window buffer, detects drift and hot-swaps refitted models into
the running server, a resilience toolkit (:mod:`repro.resilience`) with
retry/circuit-breaker policies, programmable fault injection,
supervised restarts and crash-safe window checkpoints, a corpus-scale
discovery layer (:mod:`repro.corpus`) with an out-of-core packed column
store, sound sketch-based candidate pruning and anytime budgeted search
with reported gap bounds, an optional C kernel (:mod:`repro.native`,
compiled on demand with the system C compiler, used wherever it builds
and bit-identical to the numpy paths it accelerates), and a benchmark
harness regenerating every table and figure of the evaluation section.

Quickstart::

    from repro import TwoViewDataset, TranslatorSelect

    data = TwoViewDataset.from_transactions(
        [({"rock"}, {"loud"}), ({"rock", "fast"}, {"loud", "energy"})])
    result = TranslatorSelect(k=1).fit(data)
    print(result.table.render(data))
    print(f"compression: {result.compression_ratio:.1%}")

See ``README.md`` and ``docs/`` for the full tour (architecture, paper
mapping, benchmarks, the parallel runtime).
"""

from repro.data import (
    PAPER_DATASETS,
    ItemSchema,
    Side,
    SyntheticSpec,
    TwoViewDataset,
    ViewSchema,
    dataset_names,
    generate_planted,
    load_dataset,
    make_dataset,
    save_dataset,
)
from repro.core import (
    BitMatrix,
    CodeLengthModel,
    CompiledPredictor,
    TranslatorBeam,
    CorrectionTables,
    CoverState,
    Direction,
    ExactRuleSearch,
    SearchCache,
    TranslationRule,
    TranslationTable,
    TranslatorExact,
    TranslatorGreedy,
    TranslatorResult,
    TranslatorSelect,
    corrections,
    reconstruct,
    translate_transaction,
    translate_view,
)

__version__ = "1.9.0"

from repro.multiview import MultiViewDataset, MultiViewTranslator
from repro.runtime import (
    ParallelExecutor,
    ResultCache,
    SweepReport,
    SweepTask,
    expand_grid,
    run_sweep,
)
from repro.serve import (
    ModelArtifact,
    ModelRegistry,
    PredictionServer,
    PredictionService,
)
from repro.stream import (
    DriftMonitor,
    MaintenanceLoop,
    RefitPolicy,
    StreamBuffer,
)

__all__ = [
    "PAPER_DATASETS",
    "ItemSchema",
    "MultiViewDataset",
    "MultiViewTranslator",
    "Side",
    "SyntheticSpec",
    "TwoViewDataset",
    "ViewSchema",
    "dataset_names",
    "generate_planted",
    "load_dataset",
    "make_dataset",
    "save_dataset",
    "BitMatrix",
    "CodeLengthModel",
    "CorrectionTables",
    "CoverState",
    "Direction",
    "ExactRuleSearch",
    "SearchCache",
    "TranslationRule",
    "TranslationTable",
    "TranslatorBeam",
    "TranslatorExact",
    "TranslatorGreedy",
    "TranslatorResult",
    "TranslatorSelect",
    "CompiledPredictor",
    "DriftMonitor",
    "MaintenanceLoop",
    "ModelArtifact",
    "ModelRegistry",
    "ParallelExecutor",
    "PredictionServer",
    "PredictionService",
    "RefitPolicy",
    "ResultCache",
    "StreamBuffer",
    "SweepReport",
    "SweepTask",
    "expand_grid",
    "run_sweep",
    "corrections",
    "reconstruct",
    "translate_transaction",
    "translate_view",
    "__version__",
]
