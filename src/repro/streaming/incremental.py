"""Pattern-Fusion over a sliding window: one cold run per slide.

Every slide of :class:`IncrementalPatternFusion` runs what the paper runs
once, on the slide's window snapshot:

* **Phase 1** mines the complete set of frequent patterns of size ≤ L (the
  columnar :func:`repro.mining.levelwise.mine_pool`).  Its births and deaths
  are the itemsets it gained and lost against the previous slide's pool.
* **Algorithm 2** fuses that pool, seeded by the slide's entry in a
  deterministic per-slide RNG schedule (:func:`slide_seed`).  An empty ≤L
  pool gives an empty fused pool.

So each slide's fused pool is bit-identical to a cold
:func:`repro.core.pattern_fusion.pattern_fusion` run on the current window
with that slide's seed, for any executor job count.  The agreement tests
assert exactly this.  The fused pool's births and deaths are the itemsets
it gained and lost against the previous slide's fused pool.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from typing import Any

from repro.api.base import Capabilities, Miner
from repro.api.registry import register
from repro.core.config import PatternFusionConfig
from repro.core.pattern_fusion import PatternFusion, PatternFusionMinerConfig
from repro.core.pool import Pool
from repro.db.transaction_db import TransactionDatabase
from repro.engine.executor import Executor, SerialExecutor, make_executor
from repro.mining.levelwise import mine_pool
from repro.mining.results import MiningResult, Pattern, largest_patterns
from repro.obs import clock, metrics, trace
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    decode_patterns,
    encode_patterns,
)
from repro.streaming.report import DriftReport, SlideStats
from repro.streaming.window import SlidingWindowDatabase

__all__ = [
    "IncrementalPatternFusion",
    "slide_seed",
    "StreamFusionConfig",
    "StreamFusionMiner",
]

_MASK64 = (1 << 64) - 1

_SLIDE_SECONDS = metrics.histogram(
    "repro_stream_slide_seconds", "End-to-end latency of one window slide"
)


def slide_seed(seed: int | None, slide: int) -> int:
    """The per-slide fusion seed: splitmix64 of (base seed, slide index).

    A pure integer mix, so the schedule is reproducible across platforms and
    job counts; distinct slides get decorrelated Algorithm 2 RNG streams
    even for adjacent indices.  ``seed=None`` maps to base 0 (the streaming
    driver is always deterministic — an unseeded config pins the schedule
    rather than randomizing it).
    """
    if slide < 0:
        raise ValueError(f"slide must be >= 0, got {slide}")
    base = 0 if seed is None else seed
    x = (base + (slide + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x & ((1 << 63) - 1)


class IncrementalPatternFusion:
    """Run Pattern-Fusion on every slide of a sliding transaction window.

    Parameters
    ----------
    capacity:
        Window capacity; arrivals beyond it evict the oldest rows (FIFO).
        ``None`` grows the window without bound (a full-replay accumulator).
    minsup:
        Relative (float in (0,1]) or absolute (int ≥ 1) minimum support,
        resolved against the window length on every slide.
    config:
        Algorithm parameters.  ``config.seed`` anchors the per-slide RNG
        schedule; every other knob applies to each slide's run unchanged.
    executor:
        Optional engine executor for the fusion rounds.  Defaults to a
        :class:`SerialExecutor`; results are identical for any executor,
        so jobs is purely a speed knob.
    window:
        Optional pre-built :class:`SlidingWindowDatabase` to adopt (its
        capacity wins); by default a fresh window of ``capacity`` is created.
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`.  Driver state
        — window rows, slide count, the fused pool — is durably persisted
        every ``checkpoint.interval`` slides, and a matching checkpoint on
        disk is restored at construction, so a killed stream continues from
        its last slide.  The per-slide RNG schedule is stateless
        (:func:`slide_seed`), so the resumed stream's pools stay
        bit-identical to an uninterrupted run fed the same batches.
    """

    def __init__(
        self,
        capacity: int | None,
        minsup: float | int,
        config: PatternFusionConfig | None = None,
        executor: Executor | None = None,
        window: SlidingWindowDatabase | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        self.window = window if window is not None else SlidingWindowDatabase(capacity)
        self.minsup = minsup
        self.config = config or PatternFusionConfig()
        self.executor = executor if executor is not None else SerialExecutor()
        self.report = DriftReport()
        self._initial = Pool.from_patterns([])
        self._patterns: list[Pattern] = []
        self._slides = 0
        self._minsup_abs: int | None = None
        self._checkpoint = checkpoint
        if checkpoint is not None:
            # Always the driver's identity: a caller-set one would let this
            # stream resume a checkpoint written under another config.
            checkpoint.identity = self._checkpoint_identity()
            state = checkpoint.load()
            if state is not None:
                self.load_state(state)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def patterns(self) -> list[Pattern]:
        """The current fused (colossal) pool."""
        return list(self._patterns)

    @property
    def initial_pool(self) -> list[Pattern]:
        """The window's complete ≤L pool, in cold (lexicographic) order."""
        return list(self._initial)

    @property
    def slides(self) -> int:
        """Number of slides processed so far."""
        return self._slides

    def largest(self, k: int = 1) -> list[Pattern]:
        """The ``k`` largest patterns in the fused pool (cold-run ranking)."""
        return largest_patterns(self._patterns, k)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(
        self,
        source: Iterable[list[list[int]]],
        max_slides: int | None = None,
    ) -> DriftReport:
        """Process every batch of ``source`` (up to ``max_slides``)."""
        for index, batch in enumerate(source):
            if max_slides is not None and index >= max_slides:
                break
            self.slide(batch)
        return self.report

    def slide(self, batch: Iterable[Iterable[int]]) -> SlideStats:
        """Ingest one batch, run Pattern-Fusion on the window, record telemetry."""
        started = clock.monotonic()
        with trace.span("stream_slide", index=self._slides):
            arrivals = list(batch)
            window = self.window
            evicted = window.extend(arrivals)
            snapshot = window.snapshot()
            minsup_abs = window.absolute_minsup(self.minsup) if len(window) else 1
            initial = mine_pool(
                snapshot, minsup_abs, self.config.initial_pool_max_size
            )
            shared = initial.shared_itemsets(self._initial)
            initial_births = len(initial) - shared
            initial_deaths = len(self._initial) - shared
            self._initial = initial

            before_items = {p.items for p in self._patterns}
            if len(initial):
                config = self.config.reseeded(
                    slide_seed(self.config.seed, self._slides)
                )
                runner = PatternFusion(
                    snapshot, minsup_abs, config, executor=self.executor
                )
                self._patterns = list(runner.run(initial_pool=initial).patterns)
            else:
                self._patterns = []  # nothing frequent: the pool is empty

            after_items = {p.items for p in self._patterns}
            top = self.largest(1)
            seconds = clock.monotonic() - started
            _SLIDE_SECONDS.observe(seconds)
            stats = SlideStats(
                index=self._slides,
                arrived=len(arrivals),
                evicted=evicted,
                window_size=len(window),
                minsup=minsup_abs,
                initial_pool_size=len(initial),
                initial_births=initial_births,
                initial_deaths=initial_deaths,
                pool_size=len(self._patterns),
                births=len(after_items - before_items),
                deaths=len(before_items - after_items),
                largest_size=top[0].size if top else 0,
                largest_support=top[0].support if top else 0,
                seconds=seconds,
            )
            self.report.record(stats)
            self._slides += 1
            self._minsup_abs = minsup_abs
            if self._checkpoint is not None:
                self._checkpoint.offer(self.state_dict)
            return stats

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _checkpoint_identity(self) -> dict:
        """What stream a checkpoint belongs to (algorithm + window)."""
        return {
            "algorithm": "stream_fusion",
            "config": asdict(self.config),
            "minsup": self.minsup,
            "capacity": self.window.capacity,
        }

    def state_dict(self) -> dict:
        """The complete driver state, JSON-shaped.

        Window rows are stored oldest-first, exactly the arrival order of
        the current window, so window-local tidsets (bit ``i`` = row ``i``)
        stay valid against the rebuilt window.  The ≤L pool is not stored:
        :meth:`load_state` mines it again from the rows.
        """
        return {
            "kind": "stream",
            "rows": [sorted(row) for row in self.window.transactions],
            "slides": self._slides,
            "minsup_abs": self._minsup_abs,
            "patterns": encode_patterns(self._patterns),
            "report": [asdict(stats) for stats in self.report.slides],
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (fresh) driver.

        The last slide's ≤L pool is mined again from the stored rows at the
        stored threshold.  A stored ``initial`` pool, which older
        checkpoints carry, is ignored.  A missing or malformed field raises
        :class:`CheckpointError` naming it, and leaves the driver as it was.
        """
        if not isinstance(state, dict) or state.get("kind") != "stream":
            kind = state.get("kind") if isinstance(state, dict) else type(state)
            raise CheckpointError(f"not a stream checkpoint: kind={kind!r}")
        capacity = self.window.capacity

        def rows(value) -> SlidingWindowDatabase:
            window = SlidingWindowDatabase(capacity)
            window.extend(value)
            return window

        window = _decode(state, "rows", rows)
        slides = _decode(state, "slides", int)
        minsup_abs = _decode(
            state, "minsup_abs", lambda value: None if value is None else int(value)
        )
        patterns = _decode(state, "patterns", decode_patterns)
        report = _decode(state, "report", DriftReport.from_dicts)
        self.window = window
        self._slides = slides
        self._minsup_abs = minsup_abs
        if minsup_abs is not None:
            self._initial = mine_pool(
                window.snapshot(), minsup_abs, self.config.initial_pool_max_size
            )
        self._patterns = patterns
        self.report = report


def _decode(state: dict, field: str, decode: Callable[[Any], Any]) -> Any:
    """``decode(state[field])``, any failure a :class:`CheckpointError`."""
    if field not in state:
        raise CheckpointError(f"stream checkpoint has no {field!r} field")
    try:
        return decode(state[field])
    except (TypeError, ValueError) as error:
        raise CheckpointError(
            f"stream checkpoint field {field!r} is malformed: {error}"
        ) from None


@dataclass(frozen=True, slots=True)
class StreamFusionConfig(PatternFusionMinerConfig):
    """Streaming-driver knobs: the fusion miner's config + the window.

    ``window`` is the sliding-window capacity in transactions (``None``
    grows without bound); ``minsup`` is resolved against the window on every
    slide, exactly as :class:`IncrementalPatternFusion` documents.
    """

    window: int | None = None

    def __post_init__(self) -> None:
        # Explicit base call: zero-arg super() is broken inside slots=True
        # dataclasses (the decorator rebuilds the class, orphaning the
        # __class__ cell).
        PatternFusionMinerConfig.__post_init__(self)
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1 or None, got {self.window}")


@register
class StreamFusionMiner(Miner):
    """Unified-API adapter over :class:`IncrementalPatternFusion`.

    The streaming lifecycle: :meth:`update` ingests one batch (one window
    slide), :meth:`partial_mine` ingests and returns the current pool, and
    :meth:`run` drains a batch source.  The one-shot :meth:`mine` treats the
    whole database as a single arriving batch on a *fresh* driver — for a
    database no larger than ``config.window`` that is exactly a cold
    Pattern-Fusion run with the slide-0 seed
    (``slide_seed(config.seed, 0)``), which the agreement tests pin.

    Pass ``executor=`` to drive the fusion rounds through a shared worker pool
    (it takes precedence over ``config.jobs`` and its lifetime stays with
    the caller); otherwise one is created from ``config.jobs`` and closed by
    :meth:`close`.
    """

    name = "stream_fusion"
    summary = "incremental Pattern-Fusion over a sliding transaction window"
    capabilities = Capabilities(colossal=True, streaming=True, parallel=True)
    config_type = StreamFusionConfig

    def __init__(
        self,
        config=None,
        *,
        executor: Executor | None = None,
        checkpoint: CheckpointManager | None = None,
        **overrides,
    ):
        super().__init__(config, **overrides)
        self._executor = executor
        self._checkpoint = checkpoint
        self._owns_executor = False
        self._driver: IncrementalPatternFusion | None = None

    def _new_driver(self, executor: Executor) -> IncrementalPatternFusion:
        """A fresh driver wired to this miner's config (single source)."""
        config: StreamFusionConfig = self.config  # type: ignore[assignment]
        return IncrementalPatternFusion(
            config.window,
            config.minsup,
            config.fusion_config(),
            executor=executor,
            checkpoint=self._checkpoint,
        )

    @staticmethod
    def _result_of(driver: IncrementalPatternFusion) -> MiningResult:
        """A driver's current fused pool as a uniform :class:`MiningResult`."""
        window = driver.window
        return MiningResult(
            algorithm="stream-fusion",
            minsup=window.absolute_minsup(driver.minsup) if len(window) else 0,
            patterns=driver.patterns,
            elapsed_seconds=sum(s.seconds for s in driver.report.slides),
        )

    @property
    def driver(self) -> IncrementalPatternFusion:
        """The underlying incremental driver (created on first use)."""
        if self._driver is None:
            config: StreamFusionConfig = self.config  # type: ignore[assignment]
            executor = self._executor
            if executor is None:
                executor = make_executor(config.jobs)
                self._executor = executor
                self._owns_executor = True
            self._driver = self._new_driver(executor)
        return self._driver

    @property
    def report(self) -> DriftReport:
        """Per-slide telemetry recorded so far."""
        return self.driver.report

    def update(self, batch: Iterable[Iterable[int]]) -> SlideStats:
        """Ingest one batch (one window slide); returns its telemetry."""
        return self.driver.slide(batch)

    def partial_mine(self, batch: Iterable[Iterable[int]]) -> MiningResult:
        """Ingest one batch and return the current fused pool."""
        self.update(batch)
        return self.result()

    def run(
        self,
        source: Iterable[list[list[int]]],
        max_slides: int | None = None,
    ) -> DriftReport:
        """Drain a batch source through the driver (see its ``run``)."""
        return self.driver.run(source, max_slides=max_slides)

    def result(self) -> MiningResult:
        """The current fused pool as a uniform :class:`MiningResult`."""
        return self._result_of(self.driver)

    def mine(self, db: TransactionDatabase) -> MiningResult:
        """One-shot run: the whole database arrives as a single batch."""
        config: StreamFusionConfig = self.config  # type: ignore[assignment]
        executor = self._executor
        owns = executor is None
        executor = executor if executor is not None else make_executor(config.jobs)
        try:
            driver = self._new_driver(executor)
            driver.slide(db.transactions)
            return self._result_of(driver)
        finally:
            if owns:
                executor.close()

    def close(self) -> None:
        """Release the worker pool, if this miner created one."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
            self._executor = None
            self._owns_executor = False
