"""Composable pipelines: dataset → miner → evaluation → report.

The declarative surface the quickstart builds on::

    report = (
        Pipeline()
        .dataset("diag-plus")
        .miner("pattern_fusion", minsup=20, k=10, initial_pool_max_size=2, seed=0)
        .evaluate_against("closed")          # optional Δ(AP_Q) scoring stage
        .store("runs/")                      # optional persistence stage
        .run()
    )
    print(report.format())
    print(report.run_id)                     # set by the store stage

Each stage stores *what* to run; :meth:`Pipeline.run` resolves miners through
the central registry (:mod:`repro.api.registry`) and executes the stages in
order.  A pipeline is reusable: ``run()`` re-executes from scratch each time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.api.base import Miner, MinerConfig
from repro.api.registry import create_miner
from repro.db import TransactionDatabase, describe, read_fimi
from repro.evaluation import approximate, summarize_approximation
from repro.evaluation.approximation import Approximation
from repro.mining.results import MiningResult, colossal_rank_key

__all__ = ["load_dataset", "Pipeline", "PipelineReport", "BUILTIN_DATASETS"]

#: Built-in generated datasets accepted by :func:`load_dataset` (and the CLI).
BUILTIN_DATASETS: tuple[str, ...] = ("diag", "diag-plus", "replace", "all", "quest")


def load_dataset(
    spec: Any, n: int = 40, seed: int = 7
) -> TransactionDatabase:
    """Resolve a dataset spec into a database.

    Accepts a ready database (returned as-is), the name of a built-in
    generator (``diag``, ``diag-plus``, ``replace``, ``all``, ``quest``;
    ``n`` sizes the diag family, ``seed`` drives the generators), a path to
    a FIMI ``.dat`` file, or a zero-argument callable producing a database.
    """
    if isinstance(spec, TransactionDatabase):
        return spec
    if callable(spec):
        return spec()
    if isinstance(spec, Path):
        return read_fimi(spec)
    if isinstance(spec, str):
        # Local import: repro.datasets imports repro.mining, which imports
        # this package — resolving the cycle at call time keeps module
        # import order irrelevant.
        from repro.datasets import all_like, diag, diag_plus, quest_like, replace_like

        if spec == "diag":
            return diag(n)
        if spec == "diag-plus":
            return diag_plus(n)
        if spec == "replace":
            return replace_like(seed=seed)[0]
        if spec == "all":
            return all_like(seed=seed)[0]
        if spec == "quest":
            return quest_like(seed=seed)
        path = Path(spec)
        if path.exists():
            return read_fimi(path)
        raise ValueError(
            f"unknown dataset {spec!r}; built-ins: {', '.join(BUILTIN_DATASETS)} "
            "(or pass a FIMI file path, a TransactionDatabase, or a callable)"
        )
    raise TypeError(f"cannot load a dataset from {type(spec).__name__}")


@dataclass
class PipelineReport:
    """Everything a pipeline run produced, with a formatted rendering."""

    dataset: str
    """Human description of the mined database."""
    result: MiningResult
    """The mining stage's output."""
    reference: MiningResult | None = None
    """The evaluation stage's reference result (None when not evaluated)."""
    approximation: Approximation | None = None
    """Δ(AP_Q) of ``result`` against ``reference`` (None when not evaluated)."""
    elapsed_seconds: float = 0.0
    """Wall-clock for the whole pipeline run."""
    run_id: str | None = None
    """Pattern-store run id of the persisted result (None when not stored)."""
    store_path: str | None = None
    """Root of the pattern store the result was saved to (None when not)."""

    def format(self, limit: int = 10) -> str:
        """Multi-line report: dataset, result summary, top patterns, score."""
        lines = [
            f"dataset: {self.dataset}",
            f"{self.result.algorithm}: {len(self.result)} patterns at "
            f"minsup {self.result.minsup} "
            f"({self.result.elapsed_seconds:.3f}s mining, "
            f"{self.elapsed_seconds:.3f}s pipeline)",
        ]
        shown = sorted(self.result.patterns, key=colossal_rank_key)[:limit]
        lines.extend(
            f"  size {p.size:>3}  support {p.support:>6}  {p}" for p in shown
        )
        if len(self.result) > limit:
            lines.append(f"  ... and {len(self.result) - limit} more")
        if self.approximation is not None and self.reference is not None:
            lines.append(
                f"reference ({self.reference.algorithm}): "
                f"{len(self.reference)} patterns"
            )
            lines.append(summarize_approximation(self.approximation))
        if self.run_id is not None:
            lines.append(f"stored: run {self.run_id} in {self.store_path}")
        return "\n".join(lines)


class Pipeline:
    """Builder for dataset → miner → evaluation → report runs.

    Stage methods return ``self`` so pipelines read as one chained
    expression; every stage except :meth:`miner` is optional (a dataset
    must be set before :meth:`run`).
    """

    def __init__(self) -> None:
        self._dataset_spec: Any = None
        self._dataset_kwargs: dict[str, int] = {}
        self._miner: Miner | None = None
        self._reference: Miner | None = None
        self._transform: Callable[[MiningResult], MiningResult] | None = None
        self._store_path: Path | None = None

    def dataset(self, spec: Any, *, n: int = 40, seed: int = 7) -> "Pipeline":
        """Set the data stage (see :func:`load_dataset` for accepted specs)."""
        self._dataset_spec = spec
        self._dataset_kwargs = {"n": n, "seed": seed}
        return self

    def miner(
        self,
        miner: str | Miner,
        config: MinerConfig | None = None,
        **overrides: Any,
    ) -> "Pipeline":
        """Set the mining stage: a registry name (+ knobs) or a ready miner."""
        self._miner = self._resolve(miner, config, overrides)
        return self

    def evaluate_against(
        self,
        miner: str | Miner,
        config: MinerConfig | None = None,
        **overrides: Any,
    ) -> "Pipeline":
        """Add an evaluation stage: mine a reference set and score Δ(AP_Q)."""
        self._reference = self._resolve(miner, config, overrides)
        return self

    def transform(
        self, fn: Callable[[MiningResult], MiningResult]
    ) -> "Pipeline":
        """Post-process the mining result (filtering, re-ranking) before
        evaluation and reporting."""
        self._transform = fn
        return self

    def store(self, path: str | Path) -> "Pipeline":
        """Add a persistence stage: save the mined result to a pattern store.

        ``path`` is a :class:`repro.store.PatternStore` root (created when
        missing).  The run is saved with full provenance — miner name,
        config, dataset fingerprint — so later ``mine_cached`` calls with
        the same dataset and config hit it; the report carries the run id.
        The transformed result is what gets stored (the stage order is
        mine → transform → store → evaluate).
        """
        self._store_path = Path(path)
        return self

    @staticmethod
    def _resolve(
        miner: str | Miner, config: MinerConfig | None, overrides: dict[str, Any]
    ) -> Miner:
        if isinstance(miner, Miner):
            if config is not None or overrides:
                raise ValueError(
                    "pass knobs with a miner *name*; a ready Miner instance "
                    "already carries its config"
                )
            return miner
        return create_miner(miner, config, **overrides)

    def run(self) -> PipelineReport:
        """Execute the configured stages and return the report."""
        if self._dataset_spec is None:
            raise ValueError("pipeline has no dataset stage; call .dataset(...)")
        if self._miner is None:
            raise ValueError("pipeline has no mining stage; call .miner(...)")
        start = time.perf_counter()
        db = load_dataset(self._dataset_spec, **self._dataset_kwargs)
        result = self._miner.mine(db)
        if self._transform is not None:
            result = self._transform(result)
        run_id = None
        if self._store_path is not None:
            # Local import: repro.store imports the registry this module
            # also imports — resolving at call time keeps import order free.
            from repro.store import PatternStore

            run_id = PatternStore(self._store_path).save(
                result,
                db=db,
                miner=type(self._miner).name,
                config=self._miner.config.identity_dict(),
            )
        reference = approximation = None
        if self._reference is not None:
            reference = self._reference.mine(db)
            approximation = approximate(result.patterns, reference.patterns)
        return PipelineReport(
            dataset=describe(db),
            result=result,
            reference=reference,
            approximation=approximation,
            elapsed_seconds=time.perf_counter() - start,
            run_id=run_id,
            store_path=(
                str(self._store_path) if self._store_path is not None else None
            ),
        )
