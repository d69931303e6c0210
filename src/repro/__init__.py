"""repro — Pattern-Fusion: mining colossal frequent patterns by core pattern fusion.

A from-scratch reproduction of Zhu, Yan, Han, Yu & Cheng (ICDE 2007),
including every substrate the paper relies on: a transaction-database layer,
the complete-mining baselines it competes against (Apriori, Eclat, FP-growth,
closed/maximal miners, TFP top-k, CARPENTER), the Pattern-Fusion core, the
quality-evaluation model of Section 5, and generators for the paper's
datasets — all behind one unified miner API (:mod:`repro.api`).

Quickstart::

    from repro import Pipeline, create_miner
    from repro.datasets import diag_plus

    db = diag_plus()                       # the paper's 60 x 39 example
    miner = create_miner("pattern_fusion", minsup=20, k=10, seed=0)
    print(miner.mine(db).patterns[0])      # -> part of the colossal pattern

    report = (Pipeline().dataset("diag-plus")
              .miner("pattern_fusion", minsup=20, k=10, seed=0).run())
    print(report.format())

Every algorithm is listed by ``repro miners`` / :func:`repro.api.miner_names`
and follows the same ``Miner(config).mine(db)`` lifecycle; the original
function entry points (``pattern_fusion``, ``eclat``, …) remain as thin,
stable wrappers.
"""

from repro.api import (
    BUILTIN_DATASETS,
    Capabilities,
    Miner,
    MinerConfig,
    MinerSpec,
    MINERS,
    Pipeline,
    PipelineReport,
    create_miner,
    get_miner_spec,
    load_dataset,
    miner_names,
    register,
)
from repro.core import (
    PatternFusion,
    PatternFusionConfig,
    PatternFusionResult,
    ball_radius,
    pattern_distance,
    pattern_fusion,
)
from repro.db import TransactionDatabase, dataset_fingerprint
from repro.engine import (
    ParallelExecutor,
    SerialExecutor,
    ShardedDatabase,
    make_executor,
    parallel_pattern_fusion,
)
from repro.evaluation import approximate, approximation_error, edit_distance
from repro.kernels import TidsetMatrix
from repro.obs import (
    MetricsRegistry,
    TRACER,
    Tracer,
    get_logger,
    setup_logging,
)
from repro.mining import (
    MiningResult,
    Pattern,
    apriori,
    closed_patterns,
    eclat,
    fpgrowth,
    maximal_patterns,
    mine_up_to_size,
    top_k_closed,
)
from repro.resilience import (
    CheckpointManager,
    FaultInjected,
    FaultSchedule,
    RetryPolicy,
    fault_points,
    set_fault_schedule,
)
from repro.serve import PatternServer
from repro.sequences import (
    SequenceDatabase,
    SequenceFusionResult,
    SequenceMiningResult,
    SequencePattern,
    prefixspan,
    sequence_pattern_fusion,
)
from repro.store import (
    CachedMine,
    InvertedItemIndex,
    LRUCache,
    PatternStore,
    Query,
    StoredRun,
    mine_cached,
    run_query,
)
from repro.streaming import (
    DriftingPatternSource,
    DriftReport,
    FimiReplaySource,
    IncrementalPatternFusion,
    ReplaySource,
    SlideStats,
    SlidingWindowDatabase,
    TransactionSource,
    slide_seed,
)

__version__ = "1.0.0"

__all__ = [
    "TransactionDatabase",
    "Pattern",
    "MiningResult",
    # unified miner API
    "Miner",
    "MinerConfig",
    "MinerSpec",
    "Capabilities",
    "MINERS",
    "register",
    "create_miner",
    "get_miner_spec",
    "miner_names",
    "Pipeline",
    "PipelineReport",
    "load_dataset",
    "BUILTIN_DATASETS",
    # Pattern-Fusion core
    "pattern_fusion",
    "PatternFusion",
    "PatternFusionConfig",
    "PatternFusionResult",
    "pattern_distance",
    "ball_radius",
    # engine
    "ShardedDatabase",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "parallel_pattern_fusion",
    # tidset kernels
    "TidsetMatrix",
    # evaluation
    "edit_distance",
    "approximate",
    "approximation_error",
    # complete/closed/maximal baselines
    "apriori",
    "eclat",
    "fpgrowth",
    "closed_patterns",
    "maximal_patterns",
    "top_k_closed",
    "mine_up_to_size",
    # streaming
    "SlidingWindowDatabase",
    "IncrementalPatternFusion",
    "slide_seed",
    "DriftReport",
    "SlideStats",
    "TransactionSource",
    "ReplaySource",
    "FimiReplaySource",
    "DriftingPatternSource",
    # pattern store + serving
    "PatternStore",
    "StoredRun",
    "Query",
    "run_query",
    "InvertedItemIndex",
    "mine_cached",
    "CachedMine",
    "LRUCache",
    "dataset_fingerprint",
    "PatternServer",
    # resilience
    "RetryPolicy",
    "CheckpointManager",
    "FaultSchedule",
    "FaultInjected",
    "fault_points",
    "set_fault_schedule",
    # observability
    "MetricsRegistry",
    "TRACER",
    "Tracer",
    "get_logger",
    "setup_logging",
    # sequences
    "SequenceDatabase",
    "SequencePattern",
    "SequenceMiningResult",
    "prefixspan",
    "sequence_pattern_fusion",
    "SequenceFusionResult",
    "__version__",
]
