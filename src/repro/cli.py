"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``mine``
    Run any registered miner on a FIMI ``.dat`` file (or a named built-in
    dataset): ``--miner <name>`` picks it, ``--set key=value`` tunes it.
``miners``
    List every registered miner with its capabilities (``--json`` for the
    machine-readable form including each config schema).
``fuse``
    Run Pattern-Fusion and print the mined colossal patterns.
``evaluate``
    Score one mined pattern file against another under Δ(AP_Q).
``experiment``
    Reproduce a paper figure (fig6…fig10) and print its table.
``datasets``
    Generate a built-in dataset and write it in FIMI format.
``stream``
    Maintain Pattern-Fusion incrementally over a sliding-window stream
    (FIMI replay or a drifting synthetic source) and print the drift report.
``store``
    Inspect a pattern store: ``ls`` the runs (``--json`` adds format
    version and on-disk bytes; orphaned temp files from interrupted
    writes are garbage-collected), ``show`` one run, ``query`` a run's
    pool with the composable operators, ``migrate`` runs from before the
    binary format (v1 text) to it (idempotent, run ids unchanged), ``verify``
    every on-disk checksum of one or all runs.
``chaos``
    Run Pattern-Fusion under a deterministic fault schedule
    (:mod:`repro.resilience.faults`) and check the mined pool against a
    clean serial reference — the resilience layer's acceptance drill.
    ``--list-points`` names the injection points.
``serve``
    Serve a pattern store over the HTTP JSON API — one in-process worker
    by default (:class:`repro.serve.PatternServer`), or ``--workers N``
    for the pre-forked production tier with crash-respawn supervision
    (:class:`repro.serve.PreforkServer`).  Both modes run the same worker
    loop, with a bounded request queue (``--queue-depth``; overflow is
    answered 503) and ``--threads`` handler threads, and both drain on
    SIGTERM/Ctrl-C.  Either mode exposes the live diagnostics endpoints
    (``/debug/vars``, ``/debug/trace``, ``/debug/profile``) and honors
    ``--trace`` / ``--trace-file`` in every worker process.
``bench``
    Perf-regression tooling over the committed ``BENCH_*.json``
    trajectories: ``bench diff <old> <new>`` compares metric-by-metric
    with per-suite thresholds and exits nonzero on a regression.

Every mining subcommand dispatches through the central registry
(:mod:`repro.api.registry`); the legacy ``mine --algorithm`` spelling is
kept as an alias for ``--miner``.  ``mine``, ``fuse``, and ``stream`` can
persist what they mine: ``--out FILE`` writes a standalone JSON run
document, ``--store DIR`` saves a run into a pattern store (both at once is
fine).  The same three commands take ``--checkpoint FILE [--resume]`` to
make a long run crash-resumable round by round (slide by slide for
``stream``); a resumed run reproduces the uninterrupted pool and run id
exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.api import (
    BUILTIN_DATASETS,
    MinerSpec,
    get_miner_spec,
    load_dataset,
    miner_names,
)
from repro.core.pattern_fusion import FusionMiner, pattern_fusion
from repro.db import TransactionDatabase, describe, read_fimi, write_fimi
from repro.engine import make_executor
from repro.evaluation import approximate, summarize_approximation
from repro.mining.results import (
    MiningResult,
    Pattern,
    colossal_rank_key,
    make_pattern,
)
from repro.resilience.checkpoint import CheckpointError
from repro.sequences.fusion import SequenceFusionMiner

__all__ = ["main", "build_parser"]

#: Legacy ``--algorithm`` values; ``pool`` was the pre-registry spelling of
#: the bounded-size complete miner.
_LEGACY_ALGORITHMS = ("closed", "eclat", "maximal", "pool", "topk")
_LEGACY_NAME_ALIASES = {"pool": "levelwise"}


def _minsup_arg(text: str) -> float | int:
    """Parse --minsup preserving the int/float distinction.

    ``1`` means absolute support 1; ``1.0`` means relative support 100%.
    The database's absolute_minsup() applies the same rule downstream.
    """
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for tests and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pattern-Fusion (ICDE 2007) reproduction toolkit",
    )
    telemetry = parser.add_argument_group(
        "telemetry", "observability (give these before the subcommand; "
                     "results never depend on them)"
    )
    telemetry.add_argument("--log-level", default="info",
                           choices=["debug", "info", "warning", "error"],
                           help="threshold for the repro logger tree "
                                "(default: info)")
    telemetry.add_argument("--log-json", action="store_true",
                           help="emit log records as JSON lines instead of text")
    telemetry.add_argument("--trace", action="store_true",
                           help="enable span tracing to stderr "
                                "(also via env REPRO_TRACE)")
    telemetry.add_argument("--trace-file", type=Path, default=None,
                           metavar="FILE",
                           help="enable span tracing to a JSON-lines file")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="run a registered miner on a dataset")
    _add_dataset_args(mine)
    mine.add_argument("--miner", metavar="NAME", default=None,
                      help="registered miner name (see `repro miners`); "
                           "default: closed")
    mine.add_argument("--algorithm", choices=_LEGACY_ALGORITHMS, default=None,
                      help="legacy alias for --miner")
    mine.add_argument("--set", dest="assignments", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="set a miner config knob (value parsed as JSON, "
                           "bare strings allowed); repeatable")
    mine.add_argument("--minsup", type=_minsup_arg, default=None,
                      help="relative in (0,1] or absolute >= 1 (required by "
                           "every miner with a minsup knob)")
    mine.add_argument("--top-k", type=int, default=None,
                      help="k for --miner topk")
    mine.add_argument("--min-size", type=int, default=None,
                      help="min pattern size for topk; max size for levelwise")
    mine.add_argument("--limit", type=int, default=20,
                      help="print at most this many patterns")
    _add_persist_args(mine)
    _add_checkpoint_args(mine)
    # No --jobs: miners with a jobs knob take `--set jobs=N`.
    _add_engine_args(mine, jobs_help=None)

    miners = sub.add_parser(
        "miners", help="list registered miners and their capabilities"
    )
    miners.add_argument("--json", action="store_true",
                        help="machine-readable listing incl. config schemas")

    fuse = sub.add_parser("fuse", help="run Pattern-Fusion")
    _add_dataset_args(fuse)
    fuse.add_argument("--minsup", type=_minsup_arg, required=True)
    fuse.add_argument("--k", type=int, default=100)
    fuse.add_argument("--tau", type=float, default=0.5)
    fuse.add_argument("--pool-size", type=int, default=3,
                      help="initial pool max pattern size")
    fuse.add_argument("--seed", type=int, default=0)
    fuse.add_argument("--limit", type=int, default=20)
    _add_persist_args(fuse)
    _add_checkpoint_args(fuse)
    _add_engine_args(fuse)

    evaluate = sub.add_parser(
        "evaluate", help="score mined patterns against a reference set"
    )
    _add_dataset_args(evaluate)
    evaluate.add_argument("--mined", type=Path, required=True,
                          help="FIMI-format file of mined itemsets")
    evaluate.add_argument("--reference", type=Path, required=True,
                          help="FIMI-format file of reference itemsets")

    experiment = sub.add_parser("experiment", help="reproduce a paper figure")
    experiment.add_argument("id", help="fig6|fig7|fig8|fig9|fig10|all")
    experiment.add_argument("--jobs", type=_positive_int, default=1,
                            help="worker processes for Pattern-Fusion runs "
                                 "(results are identical for any value)")

    datasets = sub.add_parser("datasets", help="generate a built-in dataset")
    datasets.add_argument("name", choices=list(BUILTIN_DATASETS))
    datasets.add_argument("--n", type=int, default=40, help="size for diag")
    datasets.add_argument("--seed", type=int, default=7)
    datasets.add_argument("--out", type=Path, required=True)

    stream = sub.add_parser(
        "stream",
        help="incremental Pattern-Fusion over a sliding-window stream",
    )
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=Path,
                        help="FIMI .dat trace to replay lazily")
    source.add_argument("--drift", action="store_true",
                        help="drifting synthetic QUEST-style source")
    stream.add_argument("--minsup", type=_minsup_arg, required=True,
                        help="relative in (0,1] or absolute >= 1, resolved "
                             "against the window each slide")
    stream.add_argument("--window", type=_positive_int, required=True,
                        help="sliding-window capacity (transactions)")
    stream.add_argument("--batch-size", type=_positive_int, default=50,
                        help="transactions per slide")
    stream.add_argument("--max-slides", type=_positive_int, default=None,
                        help="stop after this many slides")
    stream.add_argument("--transactions", type=_positive_int, default=None,
                        help="--input: replay at most this many transactions")
    stream.add_argument("--batches", type=_positive_int, default=None,
                        help="--drift: batches to generate (default 20)")
    stream.add_argument("--drift-every", type=_non_negative_int, default=None,
                        help="--drift: resample part of the pattern pool "
                             "every N batches (0 = stationary; default 5)")
    stream.add_argument("--k", type=int, default=100)
    stream.add_argument("--tau", type=float, default=0.5)
    stream.add_argument("--pool-size", type=int, default=3,
                        help="initial pool max pattern size")
    stream.add_argument("--seed", type=int, default=0,
                        help="anchors the per-slide RNG schedule "
                             "(and the --drift generator)")
    stream.add_argument("--limit", type=int, default=10,
                        help="print at most this many final patterns")
    stream.add_argument("--json", type=Path, default=None,
                        help="write the per-slide telemetry as JSON")
    stream.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="pattern store: append the per-slide telemetry "
                             "to a stream and save the final pool as a run")
    stream.add_argument("--stream-name", default="stream",
                        help="store stream the slides append to "
                             "(default: stream)")
    _add_checkpoint_args(stream)
    _add_engine_args(
        stream,
        jobs_help="worker processes for each slide's fusion rounds "
                  "(results are identical for any value)",
    )

    store = sub.add_parser("store", help="inspect a pattern store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    ls = store_sub.add_parser("ls", help="list runs and streams")
    _add_store_arg(ls)
    ls.add_argument("--json", action="store_true",
                    help="print runs as JSON records with on-disk format "
                         "version and byte sizes")
    migrate = store_sub.add_parser(
        "migrate",
        help="upgrade runs written before the binary format: write "
             "patterns.bin, then remove their v1 patterns.txt",
    )
    _add_store_arg(migrate)
    migrate.add_argument("--run", default=None, metavar="RUN_ID",
                         help="migrate one run (default: every run still "
                              "holding patterns.txt); idempotent, run ids "
                              "unchanged")
    verify = store_sub.add_parser(
        "verify",
        help="check on-disk run integrity (meta and every binary CRC, "
             "including the mmap-deferred word checksum)",
    )
    _add_store_arg(verify)
    verify.add_argument("run_id", nargs="?", default=None,
                        help="verify one run (default: every run)")
    verify.add_argument("--json", action="store_true",
                        help="print the per-run reports as JSON")
    show = store_sub.add_parser("show", help="print one run")
    _add_store_arg(show)
    show.add_argument("run_id", help="content-hashed run id (see `store ls`)")
    show.add_argument("--limit", type=int, default=20,
                      help="print at most this many patterns")
    query = store_sub.add_parser(
        "query", help="query a run's pool with composable operators"
    )
    _add_store_arg(query)
    query.add_argument("--run", required=True, metavar="RUN_ID",
                       help="run to query (see `store ls`)")
    query.add_argument("--contains", type=_items_arg, default=None,
                       metavar="ITEMS",
                       help="keep patterns sharing any of these items "
                            "(space/comma separated ids)")
    query.add_argument("--superset-of", type=_items_arg, default=None,
                       metavar="ITEMS",
                       help="keep patterns containing all of these items")
    query.add_argument("--min-support", type=_positive_int, default=None)
    query.add_argument("--min-size", type=_positive_int, default=None)
    query.add_argument("--top", type=_positive_int, default=None,
                       help="keep the k most colossal matches")
    query.add_argument("--center", type=_items_arg, default=None,
                       metavar="ITEMS",
                       help="itemset of a stored pattern anchoring a "
                            "distance ball (requires --radius)")
    query.add_argument("--radius", type=float, default=None,
                       help="ball radius in pattern distance (Definition 6)")
    query.add_argument("--json", action="store_true",
                       help="print matches as JSON records instead of a table")
    query.add_argument("--limit", type=int, default=20,
                       help="print at most this many patterns (table mode)")

    serve = sub.add_parser(
        "serve", help="serve a pattern store over the HTTP JSON API"
    )
    _add_store_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8753,
                       help="0 binds an ephemeral port (printed at startup)")
    serve.add_argument("--cache-size", type=_non_negative_int, default=256,
                       help="in-process LRU capacity for hot query results")
    serve.add_argument("--no-mine", action="store_true",
                       help="disable the POST /mine endpoint (read-only)")
    serve.add_argument("--workers", type=_non_negative_int, default=0,
                       help="pre-fork this many worker processes sharing the "
                            "socket (0 = one in-process worker; POSIX only)")
    serve.add_argument("--queue-depth", type=_positive_int, default=64,
                       help="per-worker bounded request queue; overflow is "
                            "answered 503")
    serve.add_argument("--threads", type=_positive_int, default=8,
                       help="handler threads per worker")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injected Pattern-Fusion run checked against a clean "
             "serial reference (the resilience layer's acceptance drill)",
    )
    chaos_source = chaos.add_mutually_exclusive_group()
    chaos_source.add_argument("--input", type=Path,
                              help="FIMI .dat transaction file")
    chaos_source.add_argument("--dataset", choices=list(BUILTIN_DATASETS),
                              help="built-in generated dataset")
    chaos.add_argument("--n", type=int, default=40,
                       help="size for --dataset diag")
    chaos.add_argument("--dataset-seed", type=int, default=7)
    chaos.add_argument("--minsup", type=_minsup_arg, default=None,
                       help="relative in (0,1] or absolute >= 1")
    chaos.add_argument("--k", type=int, default=100)
    chaos.add_argument("--tau", type=float, default=0.5)
    chaos.add_argument("--pool-size", type=int, default=3,
                       help="initial pool max pattern size")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--jobs", type=_positive_int, default=2,
                       help="worker processes for the faulted run (default 2)")
    chaos.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault schedule, e.g. "
                            "'kill@executor.chunk:first=1,every=2' "
                            "(default: env REPRO_FAULTS)")
    chaos.add_argument("--list-points", action="store_true",
                       help="list the registered injection points and exit")

    bench = sub.add_parser(
        "bench", help="perf-regression tooling over BENCH_*.json trajectories"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_diff = bench_sub.add_parser(
        "diff",
        help="compare two BENCH files; exit nonzero on regression "
             "or missing metric",
    )
    bench_diff.add_argument("old", type=Path,
                            help="baseline BENCH_<suite>.json (committed)")
    bench_diff.add_argument("new", type=Path,
                            help="candidate BENCH_<suite>.json (fresh run)")
    bench_diff.add_argument("--threshold", type=float, default=None,
                            metavar="FRAC",
                            help="allowed slowdown fraction (e.g. 0.25 = 25%%); "
                                 "default: the suite's own threshold")
    bench_diff.add_argument("--json", action="store_true",
                            help="print the diff as JSON instead of a table")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _items_arg(text: str) -> list[int]:
    """Parse an itemset argument: ids separated by spaces and/or commas."""
    try:
        items = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected item ids like '3 7 12' or '3,7,12', got {text!r}"
        ) from None
    if not items:
        raise argparse.ArgumentTypeError("itemset must name at least one item")
    return items


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=Path, required=True, metavar="DIR",
                        help="pattern store root directory")


def _add_persist_args(parser: argparse.ArgumentParser) -> None:
    persist = parser.add_argument_group(
        "persistence", "save the mined result (both flags may be combined)"
    )
    persist.add_argument("--out", type=Path, default=None, metavar="FILE",
                         help="write the result as a standalone JSON run "
                              "document")
    persist.add_argument("--store", type=Path, default=None, metavar="DIR",
                         help="save the result as a run in a pattern store "
                              "(prints the content-hashed run id)")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "checkpointing",
        "crash-resumable driver state (results never depend on these)",
    )
    group.add_argument("--checkpoint", type=Path, default=None, metavar="FILE",
                       help="persist driver state here after every "
                            "--checkpoint-every rounds/slides (atomic writes; "
                            "removed once the run completes)")
    group.add_argument("--checkpoint-every", type=_positive_int, default=1,
                       metavar="N", help="checkpoint every N rounds/slides "
                                         "(default 1)")
    group.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint if it exists (otherwise "
                            "an existing file is discarded and the run starts "
                            "fresh); the resumed run reproduces the "
                            "uninterrupted pool and run id exactly")


def _make_checkpoint(args: argparse.Namespace):
    """Build the CheckpointManager for --checkpoint/--resume (or None)."""
    if getattr(args, "checkpoint", None) is None:
        if getattr(args, "resume", False):
            raise _CliError("--resume requires --checkpoint FILE")
        return None
    from repro.resilience import CheckpointManager

    if not args.resume and args.checkpoint.exists():
        args.checkpoint.unlink()  # a fresh run must not adopt stale state
    return CheckpointManager(args.checkpoint, interval=args.checkpoint_every)


def _add_engine_args(
    parser: argparse.ArgumentParser,
    jobs_help: str | None = "worker processes; 1 = serial (default)",
) -> None:
    """The engine group; ``jobs_help=None`` leaves out ``--jobs``."""
    engine = parser.add_argument_group(
        "engine", "execution (results never depend on these)"
    )
    if jobs_help is not None:
        engine.add_argument("--jobs", type=_positive_int, default=1,
                            help=jobs_help)
    engine.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top "
                             "cumulative functions (hot-path diagnosis)")
    engine.add_argument("--profile-limit", type=_positive_int, default=25,
                        metavar="N",
                        help="rows of profile output with --profile "
                             "(default 25)")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=Path, help="FIMI .dat transaction file")
    group.add_argument(
        "--dataset",
        choices=list(BUILTIN_DATASETS),
        help="built-in generated dataset",
    )
    parser.add_argument("--n", type=int, default=40, help="size for --dataset diag")
    parser.add_argument("--dataset-seed", type=int, default=7)


def _load_database(args: argparse.Namespace) -> TransactionDatabase:
    if args.input is not None:
        return read_fimi(args.input)
    return load_dataset(args.dataset, n=args.n, seed=args.dataset_seed)


def _print_result(result: MiningResult, limit: int) -> None:
    print(
        f"{result.algorithm}: {len(result)} patterns at minsup "
        f"{result.minsup} in {result.elapsed_seconds:.3f}s"
    )
    shown = sorted(result.patterns, key=colossal_rank_key)[:limit]
    for pattern in shown:
        print(f"  size {pattern.size:>3}  support {pattern.support:>6}  {pattern}")
    if len(result) > limit:
        print(f"  ... and {len(result) - limit} more")


def _persist_result(
    result: MiningResult,
    db: TransactionDatabase,
    args: argparse.Namespace,
    miner: str,
    config: dict[str, Any],
) -> None:
    """Handle ``--out`` (JSON document) and ``--store`` (pattern-store run)."""
    if args.out is None and args.store is None:
        return
    # Local import: the store is optional machinery for the mining commands.
    from repro.db.stats import dataset_fingerprint
    from repro.store import PatternStore, result_to_document, write_document

    fingerprint = dataset_fingerprint(db)
    if args.out is not None:
        document = result_to_document(
            result,
            miner=miner,
            config=config,
            dataset={
                "fingerprint": fingerprint,
                "n_transactions": db.n_transactions,
                "n_items": db.n_items,
            },
        )
        write_document(args.out, document)
        print(f"wrote {len(result)} patterns to {args.out}")
    if args.store is not None:
        run_id = PatternStore(args.store).save(
            result, db=db, miner=miner, config=config, fingerprint=fingerprint
        )
        print(f"stored run {run_id} in {args.store}")


class _CliError(Exception):
    """A user-input problem with a message fit to print as-is (exit 2)."""


def _parse_assignments(pairs: list[str]) -> dict[str, Any]:
    """``--set key=value`` pairs → knob dict (values parsed as JSON)."""
    values: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise _CliError(
                f"--set expects KEY=VALUE, got {pair!r} "
                "(e.g. --set tau=0.4, --set seed=7, --set window=200)"
            )
        try:
            values[key] = json.loads(raw)
        except json.JSONDecodeError:
            values[key] = raw  # bare strings are fine
    return values


def _build_mine_config(spec: MinerSpec, args: argparse.Namespace):
    """Assemble a miner config from --minsup/--top-k/--min-size/--set.

    Raises :class:`_CliError` with a crisp message on unknown knobs or
    invalid values — the registry config's own validation does the checking.
    """
    knobs = spec.config_type.knob_names()
    values: dict[str, Any] = {}
    if "minsup" in knobs and args.minsup is not None:
        values["minsup"] = args.minsup
    if spec.name == "topk":
        if args.top_k is not None:
            values["k"] = args.top_k
        if args.min_size is not None:
            values["min_size"] = args.min_size
    if spec.name == "levelwise":
        if args.min_size is not None:
            values["max_size"] = max(1, args.min_size)
        elif args.legacy_pool:
            values["max_size"] = 1  # the pre-registry `--algorithm pool` default
    values.update(_parse_assignments(args.assignments))
    if "minsup" in knobs and "minsup" not in values:
        raise _CliError(f"miner {spec.name!r} requires --minsup (or --set minsup=...)")
    try:
        return spec.config_type.from_dict(values)
    except (TypeError, ValueError) as error:
        raise _CliError(f"invalid config for miner {spec.name!r}: {error}") from None


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.miner is not None and args.algorithm is not None:
        print("pass either --miner or --algorithm, not both", file=sys.stderr)
        return 2
    name = args.miner or args.algorithm or "closed"
    args.legacy_pool = args.algorithm == "pool"
    name = _LEGACY_NAME_ALIASES.get(name, name)
    try:
        spec = get_miner_spec(name)
        config = _build_mine_config(spec, args)
        checkpoint = _make_checkpoint(args)
        if checkpoint is not None and not issubclass(
            spec.cls, (FusionMiner, SequenceFusionMiner)
        ):
            raise _CliError(
                "--checkpoint is supported for the round-based fusion miners "
                f"pattern_fusion and sequence_fusion, not {spec.name!r}"
            )
    except (_CliError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    db = _load_database(args)
    print(describe(db))
    miner = spec.cls(config)
    result = miner.mine(db) if checkpoint is None else miner.mine(db, checkpoint)
    _print_result(result, args.limit)
    _persist_result(result, db, args, spec.name, config.identity_dict())
    return 0


def _cmd_miners(args: argparse.Namespace) -> int:
    specs = [get_miner_spec(name) for name in miner_names()]
    if args.json:
        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    name_width = max(len(spec.name) for spec in specs)
    caps_width = max(len(spec.capabilities.describe()) for spec in specs)
    print(f"{'MINER':<{name_width}}  {'CAPABILITIES':<{caps_width}}  SUMMARY")
    for spec in specs:
        print(
            f"{spec.name:<{name_width}}  "
            f"{spec.capabilities.describe():<{caps_width}}  {spec.summary}"
        )
    print()
    print("run one with: repro mine --miner NAME [--minsup S] [--set KEY=VALUE]")
    print("config knobs: repro miners --json")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    try:
        checkpoint = _make_checkpoint(args)
    except _CliError as error:
        print(error, file=sys.stderr)
        return 2
    db = _load_database(args)
    print(describe(db))
    spec = get_miner_spec("pattern_fusion")
    miner = spec.cls(
        spec.config_type.from_dict({
            "minsup": args.minsup,
            "k": args.k,
            "tau": args.tau,
            "initial_pool_max_size": args.pool_size,
            "seed": args.seed,
            "jobs": args.jobs,
        })
    )
    result = miner.fuse(db, checkpoint=checkpoint)
    engine_note = f" [engine: {args.jobs} jobs]" if args.jobs > 1 else ""
    print(
        f"pattern-fusion: {len(result)} patterns after {result.iterations} "
        f"iterations (initial pool {result.initial_pool_size}) in "
        f"{result.elapsed_seconds:.3f}s{engine_note}"
    )
    _print_result(result.as_mining_result(), args.limit)
    _persist_result(
        result.as_mining_result(), db, args, type(miner).name,
        miner.config.identity_dict(),
    )
    return 0


def _read_patterns(db: TransactionDatabase, path: Path) -> list[Pattern]:
    itemset_db = read_fimi(path)
    return [make_pattern(db, row) for row in itemset_db.transactions if row]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    db = _load_database(args)
    mined = _read_patterns(db, args.mined)
    reference = _read_patterns(db, args.reference)
    if not mined or not reference:
        print("both --mined and --reference must contain itemsets", file=sys.stderr)
        return 2
    approximation = approximate(mined, reference)
    print(summarize_approximation(approximation))
    worst = approximation.worst_cluster()
    print(f"worst cluster: center {worst.center}, max edit {worst.max_edit}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import experiment_ids, run_experiment

    known = experiment_ids()
    if args.id != "all" and args.id not in known:
        print(f"unknown experiment {args.id!r}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    ids = known if args.id == "all" else [args.id]
    for experiment_id in ids:
        result = run_experiment(experiment_id, jobs=args.jobs)
        print(result.format())
        print()
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    db = load_dataset(args.name, n=args.n, seed=args.seed)
    write_fimi(db, args.out)
    print(f"wrote {describe(db)} to {args.out}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.streaming import DriftingPatternSource, FimiReplaySource

    try:
        checkpoint = _make_checkpoint(args)
    except _CliError as error:
        print(error, file=sys.stderr)
        return 2

    # Flags that belong to the other source are rejected, not ignored — a
    # silently dropped --transactions or --batches means the telemetry
    # describes a different stream than the one asked for.
    if args.input is not None:
        misplaced = [
            flag for flag, value in
            (("--batches", args.batches), ("--drift-every", args.drift_every))
            if value is not None
        ]
        if misplaced:
            print(f"{', '.join(misplaced)} only applies to --drift",
                  file=sys.stderr)
            return 2
        source = FimiReplaySource(
            args.input, batch_size=args.batch_size, limit=args.transactions
        )
    else:
        if args.transactions is not None:
            print("--transactions only applies to --input", file=sys.stderr)
            return 2
        source = DriftingPatternSource(
            batch_size=args.batch_size,
            n_batches=20 if args.batches is None else args.batches,
            drift_every=5 if args.drift_every is None else args.drift_every,
            seed=args.seed,
        )
    spec = get_miner_spec("stream_fusion")
    config = spec.config_type.from_dict({
        "minsup": args.minsup,
        "window": args.window,
        "k": args.k,
        "tau": args.tau,
        "initial_pool_max_size": args.pool_size,
        "seed": args.seed,
    })
    with make_executor(args.jobs) as executor:
        miner = spec.cls(config, executor=executor, checkpoint=checkpoint)
        max_slides = args.max_slides
        done = miner.driver.slides if checkpoint is not None else 0
        if done:
            # Resume: the checkpointed driver already consumed `done`
            # batches, so skip them in the replayed source — the remaining
            # slides then land on the exact stream positions of the
            # uninterrupted run.
            import itertools

            source = itertools.islice(iter(source), done, None)
            if max_slides is not None:
                max_slides = max(0, max_slides - done)
            print(f"resumed from {args.checkpoint} at slide {done}")
        report = miner.run(source, max_slides=max_slides)
        if not len(report):
            print("stream produced no transactions", file=sys.stderr)
            return 2
        print(report.format())
        print(report.summary())
        driver = miner.driver
        shown = driver.largest(args.limit)
        for pattern in shown:
            print(
                f"  size {pattern.size:>3}  support {pattern.support:>6}  {pattern}"
            )
        if args.json is not None:
            args.json.write_text(json.dumps(
                {"slides": report.as_dicts(), "summary": report.summary()},
                indent=2,
            ))
            print(f"wrote telemetry to {args.json}")
        if args.store is not None:
            from repro.store import PatternStore

            store = PatternStore(args.store)
            appended = store.append_slides(args.stream_name, report.as_dicts())
            run_id = store.save(
                miner.result(),
                db=driver.window.snapshot(),
                miner=type(miner).name,
                config=miner.config.identity_dict(),
            )
            print(
                f"appended {appended} slides to stream "
                f"{args.stream_name!r}; stored final pool as run {run_id} "
                f"in {args.store}"
            )
        if checkpoint is not None:
            checkpoint.clear()
    return 0


def _open_store(args: argparse.Namespace):
    """Open the --store directory, requiring it to already be a store."""
    from repro.store import PatternStore

    if not (args.store / "store.json").exists():
        raise _CliError(
            f"{args.store} is not a pattern store (no store.json); "
            "create one with `repro mine --store`, `repro fuse --store`, "
            "or Pipeline.store()"
        )
    return PatternStore(args.store)


def _cmd_store(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args)
        if args.store_command == "ls":
            return _store_ls(store, args)
        if args.store_command == "migrate":
            return _store_migrate(store, args)
        if args.store_command == "verify":
            return _store_verify(store, args)
        if args.store_command == "show":
            return _store_show(store, args)
        return _store_query(store, args)
    except (_CliError, KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2


def _store_ls(store, args: argparse.Namespace) -> int:
    # Crash debris from interrupted atomic writes; stderr keeps --json clean.
    removed = store.gc_temp_files()
    if removed:
        print(f"gc: removed {len(removed)} orphaned temp file(s)",
              file=sys.stderr)
    if args.json:
        records = [store.run_info(run_id) for run_id in store.run_ids()]
        print(json.dumps(
            {
                "store": str(store.root),
                "runs": records,
                "streams": {
                    name: len(store.read_slides(name))
                    for name in store.stream_names()
                },
            },
            indent=2,
        ))
        return 0
    metas = list(store.metas())
    if not metas:
        print(f"empty store at {store.root}")
        return 0
    print(f"{'RUN':<16}  {'MINER':<24}  {'MINSUP':>6}  {'PATTERNS':>8}  "
          f"{'FINGERPRINT':<12}  SECONDS")
    for meta in metas:
        dataset = meta.get("dataset") or {}
        fingerprint = (dataset.get("fingerprint") or "")[:12] or "-"
        print(
            f"{meta['run_id']:<16}  {meta.get('miner') or '-':<24}  "
            f"{meta.get('minsup', 0):>6}  {meta.get('n_patterns', 0):>8}  "
            f"{fingerprint:<12}  {meta.get('elapsed_seconds', 0.0):.3f}"
        )
    for name in store.stream_names():
        print(f"stream {name!r}: {len(store.read_slides(name))} slides")
    return 0


def _store_migrate(store, args: argparse.Namespace) -> int:
    migrated = store.migrate(args.run)
    for run_id in migrated:
        print(f"migrated run {run_id} -> patterns.bin")
    scope = f"run {args.run}" if args.run else f"{len(store)} runs"
    print(
        f"{len(migrated)} migrated, checked {scope} in {store.root} "
        "(run ids unchanged)"
    )
    return 0


def _store_verify(store, args: argparse.Namespace) -> int:
    reports = store.verify(args.run_id)
    corrupt = [report for report in reports if not report["ok"]]
    if args.json:
        print(json.dumps({"store": str(store.root), "runs": reports}, indent=2))
        return 1 if corrupt else 0
    for report in reports:
        if report["ok"]:
            print(f"run {report['run_id']}: OK ({', '.join(report['checks'])})")
        else:
            print(f"run {report['run_id']}: CORRUPT")
            for error in report["errors"]:
                print(f"  {error}")
    print(f"{len(reports)} run(s) checked, {len(corrupt)} corrupt")
    return 1 if corrupt else 0


def _store_show(store, args: argparse.Namespace) -> int:
    run = store.load(args.run_id)
    meta = dict(run.meta)
    dataset = meta.get("dataset") or {}
    print(f"run {run.run_id}: {meta.get('miner') or meta['algorithm']}")
    if meta.get("config"):
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(meta["config"].items()))
        print(f"  config: {knobs}")
    if dataset:
        print(
            f"  dataset: fingerprint {(dataset.get('fingerprint') or '?')[:12]}"
            + (
                f", {dataset['n_transactions']} transactions x "
                f"{dataset['n_items']} items"
                if "n_transactions" in dataset else ""
            )
        )
    _print_result(run.result, args.limit)
    return 0


def _build_query(args: argparse.Namespace):
    from repro.store import Query

    if (args.center is None) != (args.radius is None):
        raise _CliError("--center and --radius must be given together")
    query = Query()
    if args.contains is not None:
        query = query.contains(*args.contains)
    if args.superset_of is not None:
        query = query.superset(args.superset_of)
    if args.min_support is not None:
        query = query.support_at_least(args.min_support)
    if args.min_size is not None:
        query = query.size_at_least(args.min_size)
    if args.top is not None:
        query = query.limit(args.top)
    if args.center is not None:
        query = query.within(args.center, args.radius)
    return query


def _store_query(store, args: argparse.Namespace) -> int:
    from repro.serve.app import pattern_record

    query = _build_query(args)
    run = store.load(args.run)
    matches = query.evaluate(run.patterns)
    if args.json:
        print(json.dumps(
            {
                "run": run.run_id,
                "query": query.to_dict(),
                "count": len(matches),
                "patterns": [pattern_record(p) for p in matches],
            },
            indent=2,
        ))
        return 0
    operators = query.to_dict()
    described = (
        ", ".join(f"{k}={v}" for k, v in operators.items()) if operators
        else "match-all"
    )
    print(
        f"query [{described}] over run {run.run_id}: "
        f"{len(matches)} of {len(run)} patterns"
    )
    shown = matches[: args.limit]
    for pattern in shown:
        print(f"  size {pattern.size:>3}  support {pattern.support:>6}  {pattern}")
    if len(matches) > len(shown):
        print(f"  ... and {len(matches) - len(shown)} more")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args)
    except _CliError as error:
        print(error, file=sys.stderr)
        return 2
    from repro.serve import PatternServer, PreforkServer

    loop = dict(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        threads=args.threads,
        cache_size=args.cache_size,
        allow_mine=not args.no_mine,
    )
    if args.workers:
        try:
            server = PreforkServer(
                store,
                workers=args.workers,
                trace_stderr=args.trace,
                trace_file=args.trace_file,
                **loop,
            )
        except RuntimeError as error:  # no os.fork on this platform
            print(error, file=sys.stderr)
            return 2
        mode = f"{args.workers} pre-forked workers"
    else:
        server = PatternServer(store, **loop)
        mode = "1 in-process worker"
    print(
        f"serving {len(store)} runs from {args.store} on {server.url} "
        f"({mode}, queue depth {args.queue_depth}, {args.threads} threads "
        "each; GET /health /metrics /miners /runs /runs/<id> /debug/vars "
        "/debug/trace, POST /mine /query /debug/profile; SIGTERM/Ctrl-C "
        "drains)",
        flush=True,
    )
    server.serve_forever()
    print("drained and stopped", flush=True)
    return 0


def _pool_digest(patterns) -> str:
    """Content hash of a mined pool: items + exact tidsets, order-free."""
    import hashlib

    key = sorted(
        (sorted(pattern.items), format(pattern.tidset, "x"))
        for pattern in patterns
    )
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.obs import metrics
    from repro.resilience import FaultSchedule, fault_points, set_fault_schedule

    if args.list_points:
        width = max(len(point) for point in fault_points())
        for point, where in sorted(fault_points().items()):
            print(f"{point:<{width}}  {where}")
        return 0
    if args.input is None and args.dataset is None:
        print("chaos needs --input or --dataset (or --list-points)",
              file=sys.stderr)
        return 2
    if args.minsup is None:
        print("chaos requires --minsup", file=sys.stderr)
        return 2
    spec = args.faults if args.faults is not None else os.environ.get(
        "REPRO_FAULTS", ""
    )
    try:
        faults = FaultSchedule.parse(spec)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if not faults:
        print(
            "no fault rules given (use --faults or REPRO_FAULTS, e.g. "
            "--faults 'kill@executor.chunk:first=1,every=2'); "
            "see --list-points",
            file=sys.stderr,
        )
        return 2
    db = _load_database(args)
    print(describe(db))
    from repro.core.config import PatternFusionConfig

    config = PatternFusionConfig(
        k=args.k, tau=args.tau, initial_pool_max_size=args.pool_size,
        seed=args.seed,
    )
    # Clean serial reference first, with injection explicitly disabled so an
    # exported REPRO_FAULTS cannot leak into the baseline.
    set_fault_schedule(FaultSchedule.parse(""))
    try:
        reference = pattern_fusion(db, args.minsup, config, jobs=1)
        set_fault_schedule(faults)
        chaotic = pattern_fusion(db, args.minsup, config, jobs=args.jobs)
    finally:
        set_fault_schedule(None)  # back to the environment's schedule
    ref_digest = _pool_digest(reference.patterns)
    chaos_digest = _pool_digest(chaotic.patterns)
    print(
        f"reference (serial, no faults): {len(reference.patterns)} patterns "
        f"in {reference.elapsed_seconds:.3f}s  pool {ref_digest}"
    )
    print(
        f"chaos ({args.jobs} jobs, {spec!r}): {len(chaotic.patterns)} "
        f"patterns in {chaotic.elapsed_seconds:.3f}s  pool {chaos_digest}"
    )
    families = (
        "repro_faults_injected_total", "repro_retries_total",
        "repro_chunk_failures_total", "repro_chunk_serial_fallbacks_total",
        "repro_checkpoint_saves_total",
    )
    lines = [
        line for line in metrics.REGISTRY.render().splitlines()
        if line.startswith(families) and not line.startswith("#")
    ]
    if lines:
        print("resilience counters:")
        for line in lines:
            print(f"  {line}")
    if ref_digest == chaos_digest:
        print("PASS: faulted pool is bit-identical to the clean reference")
        return 0
    print("FAIL: faulted pool diverged from the clean reference",
          file=sys.stderr)
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench_diff import diff_files

    try:
        diff = diff_files(args.old, args.new, threshold=args.threshold)
    except (OSError, ValueError, KeyError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.format())
    return 0 if diff.ok else 1


_COMMANDS = {
    "mine": _cmd_mine,
    "miners": _cmd_miners,
    "fuse": _cmd_fuse,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "datasets": _cmd_datasets,
    "stream": _cmd_stream,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "bench": _cmd_bench,
}


def _setup_telemetry(args: argparse.Namespace) -> None:
    """Wire the obs layer from the global flags (execution-only concerns)."""
    from repro.obs import logs, trace

    logs.setup_logging(args.log_level, json_mode=args.log_json)
    sinks = []
    if args.trace:
        sinks.append(trace.StderrSink())
    if args.trace_file is not None:
        sinks.append(trace.JsonlSink(args.trace_file))
    if sinks:
        trace.configure(enabled=True, sinks=trace.TRACER.sinks + sinks)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_telemetry(args)
    command = _COMMANDS[args.command]
    try:
        if getattr(args, "profile", False):
            return _profiled(command, args)
        return command(args)
    except CheckpointError as error:
        # A --resume checkpoint of another run, or a corrupt one.
        print(error, file=sys.stderr)
        return 2


def _profiled(command, args: argparse.Namespace) -> int:
    """Run ``command`` under cProfile and print the top cumulative functions."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    code = profiler.runcall(command, args)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.profile_limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
