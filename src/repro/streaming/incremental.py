"""Incremental Pattern-Fusion over a sliding window.

A naive streaming deployment re-runs Algorithm 1 from cold on every window
slide: re-mine the complete ≤L initial pool, then iterate Algorithm 2 until
the pool fits in K.  :class:`IncrementalPatternFusion` maintains the state a
slide actually changes:

* The **initial pool** (the complete set of frequent patterns of size ≤ L,
  the paper's phase-1 output) is carried across slides.  Supports are
  *revalidated against the delta*: each carried tidset is shifted past the
  evicted rows and extended with the batch's containment bits — O(pool ×
  batch) work, batched through an :class:`~repro.engine.executor.Executor`,
  instead of O(pool × window) re-counting.  Deaths are the entries that fell
  below threshold; births are re-seeded from the *invalidated region only* —
  by support monotonicity, a pattern newly frequent after a slide must be
  contained in an arriving transaction (evictions only lose support), so
  candidate enumeration walks subsets of the arrival rows alone.
* The **fused pool** (the colossal output) is revalidated the same way.  A
  slide that changes no pool membership carries the fused pool forward with
  refreshed supports; a slide that *invalidates* (any birth or death)
  re-fuses — but warm: phase 1 is already maintained, so only Algorithm 2
  runs, seeded by the slide's entry in a deterministic per-slide RNG
  schedule (:func:`slide_seed`).

Because the maintained initial pool is kept *exactly* equal to the cold
phase-1 output — same patterns, same tidsets, same (Eclat DFS ≡
lexicographic) order — every re-fusion slide is bit-identical to a cold
:func:`repro.core.pattern_fusion.pattern_fusion` run on the current window
with that slide's seed, for any executor job count.  The agreement tests
assert exactly this.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass

from repro.api.base import Capabilities, Miner
from repro.api.registry import register
from repro.core.config import PatternFusionConfig
from repro.core.pattern_fusion import PatternFusion, PatternFusionMinerConfig
from repro.db.bitset import intersect_all
from repro.db.transaction_db import TransactionDatabase
from repro.engine.executor import (
    Executor,
    SerialExecutor,
    make_executor,
    map_chunks,
    worker_payload,
)
from repro.mining.levelwise import mine_up_to_size
from repro.mining.results import MiningResult, Pattern, largest_patterns
from repro.obs import clock, metrics, trace
from repro.resilience.checkpoint import (
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

# Slide telemetry: every slide lands exactly one decision sample, labelled
# with *why* the maintenance path was chosen — the reasons mirror the
# rebuild/refuse conditions in :meth:`IncrementalPatternFusion.slide`.
_SLIDE_DECISIONS = metrics.counter(
    "repro_stream_slide_decisions_total",
    "Window slides by maintenance decision (rebuild/refuse/carry) and reason",
    ("decision", "reason"),
)
_SLIDE_SECONDS = metrics.histogram(
    "repro_stream_slide_seconds", "End-to-end latency of one window slide"
)


def slide_seed(seed: int | None, slide: int) -> int:
    """The per-slide fusion seed: splitmix64 of (base seed, slide index).

    A pure integer mix, so the schedule is reproducible across platforms and
    job counts; distinct slides get decorrelated Algorithm 2 RNG streams
    even for adjacent indices.  ``seed=None`` maps to base 0 (the streaming
    driver is always deterministic — an unseeded config pins the schedule
    rather than randomizing it, matching the fusion round's ball-index
    convention).
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


def _shift_chunk(chunk: list[tuple[frozenset[int], int]]) -> list[int]:
    """Worker body: revalidate carried tidsets against the slide delta.

    The payload is ``(kept_rows, evicted, base_len)``: the batch rows that
    survived into the window, how many window-local positions the old rows
    shifted down, and the local position the first kept row landed on.
    Each carried ``(items, tidset)`` maps to its new-window tidset without
    touching the window itself.

    The kept rows are transposed once into per-item position masks (a
    miniature vertical database over the delta), so each carried itemset's
    bits are a Lemma-1 AND reduction instead of a scan over every kept row.
    """
    kept_rows, evicted, base_len = worker_payload()
    masks: dict[int, int] = {}
    for position, row in enumerate(kept_rows):
        bit = 1 << position
        for item in row:
            masks[item] = masks.get(item, 0) | bit
    universe = (1 << len(kept_rows)) - 1
    out: list[int] = []
    for items, tidset in chunk:
        # An item in no arriving row has an empty mask, emptying the AND.
        delta = intersect_all(
            (masks.get(item, 0) for item in items), start=universe
        )
        out.append((tidset >> evicted) | (delta << base_len))
    return out


class IncrementalPatternFusion:
    """Maintain Pattern-Fusion output over a sliding transaction window.

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
        schedule; every other knob applies to each re-fusion unchanged.
    executor:
        Optional engine executor for the batched revalidation and the
        re-fusion rounds.  Defaults to a :class:`SerialExecutor`; results
        are identical for any executor, so jobs is purely a speed knob.
    policy:
        ``"auto"`` (default) re-fuses only on invalidation — a slide that
        changes some pool membership — and otherwise carries the fused pool
        with refreshed supports.  ``"always"`` re-fuses every slide, making
        *each* slide's pool bit-identical to a cold run on that window.
    window:
        Optional pre-built :class:`SlidingWindowDatabase` to adopt (its
        capacity wins); by default a fresh window of ``capacity`` is created.
    checkpoint:
        Optional :class:`~repro.resilience.CheckpointManager`.  Driver state
        — window rows, slide count, both maintained pools — is durably
        persisted every ``checkpoint.interval`` slides, and a matching
        checkpoint on disk is restored at construction, so a killed stream
        continues from its last slide.  The per-slide RNG schedule is
        stateless (:func:`slide_seed`), so the resumed stream's pools stay
        bit-identical to an uninterrupted run fed the same batches.
    """

    def __init__(
        self,
        capacity: int | None,
        minsup: float | int,
        config: PatternFusionConfig | None = None,
        executor: Executor | None = None,
        policy: str = "auto",
        window: SlidingWindowDatabase | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> None:
        if policy not in ("auto", "always"):
            raise ValueError(f"policy must be 'auto' or 'always', got {policy!r}")
        self.window = window if window is not None else SlidingWindowDatabase(capacity)
        self.minsup = minsup
        self.config = config or PatternFusionConfig()
        self.executor = executor if executor is not None else SerialExecutor()
        self.policy = policy
        self.report = DriftReport()
        self._initial: dict[frozenset[int], int] = {}
        self._patterns: list[Pattern] = []
        self._slides = 0
        self._minsup_abs: int | None = None
        self._stream_span = (self.window.start, self.window.end)
        self._checkpoint = checkpoint
        if checkpoint is not None:
            if checkpoint.identity is None:
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
        """The maintained complete ≤L pool, in cold (lexicographic) order."""
        return self._initial_pool_ordered()

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
        """Ingest one batch, maintain both pools, and record telemetry."""
        started = clock.monotonic()
        with trace.span("stream_slide", index=self._slides) as slide_span:
            arrivals = [frozenset(row) for row in batch]
            window = self.window
            # Any append *or* evict outside slide() desynchronises carried
            # tidsets; both move one of the stream positions.
            out_of_band = (window.start, window.end) != self._stream_span
            w_before = len(window)
            capacity = window.capacity
            if capacity is not None:
                overflow = max(0, w_before + len(arrivals) - capacity)
                evicted_old = min(w_before, overflow)
            else:
                evicted_old = 0
            surviving_old = w_before - evicted_old
            # A batch larger than the capacity turns the whole window over
            # (surviving_old == 0), which takes the rebuild path below — so
            # the revalidation delta is always exactly the arrivals.
            kept = arrivals
            evicted_total = window.extend(arrivals)
            minsup_abs = window.absolute_minsup(self.minsup) if len(window) else 1

            # The decision taxonomy: each slide takes exactly one path, and
            # the first matching reason names why (ordering mirrors the
            # rebuild condition below).
            if out_of_band:
                reason = "out_of_band"
            elif self._minsup_abs is None:
                reason = "cold_start"
            elif surviving_old == 0:
                reason = "window_turnover"
            elif minsup_abs < self._minsup_abs:
                reason = "minsup_drop"
            else:
                reason = None
            rebuild = reason is not None
            before_items = {p.items for p in self._patterns}
            if rebuild:
                initial, revalidated, initial_births, initial_deaths, pool_deaths = (
                    self._rebuild(minsup_abs)
                )
            else:
                initial, revalidated, initial_births, initial_deaths, pool_deaths = (
                    self._revalidate(kept, evicted_old, surviving_old, minsup_abs)
                )
            self._initial = initial

            invalidated = bool(
                rebuild or initial_births or initial_deaths or pool_deaths
            )
            refused = self.policy == "always" or invalidated
            if rebuild:
                decision = "rebuild"
            elif refused:
                decision = "refuse"
                reason = "invalidated" if invalidated else "policy_always"
            else:
                decision, reason = "carry", "validated"
            _SLIDE_DECISIONS.inc(decision=decision, reason=reason)
            slide_span.set(decision=decision, reason=reason)
            if refused and initial:
                config = self.config.reseeded(
                    slide_seed(self.config.seed, self._slides)
                )
                runner = PatternFusion(
                    window.snapshot(), minsup_abs, config, executor=self.executor
                )
                result = runner.run(initial_pool=self._initial_pool_ordered())
                self._patterns = list(result.patterns)
            elif refused:
                self._patterns = []  # nothing frequent: the pool is empty
            else:
                self._patterns = revalidated

            after_items = {p.items for p in self._patterns}
            top = self.largest(1)
            seconds = clock.monotonic() - started
            _SLIDE_SECONDS.observe(seconds)
            stats = SlideStats(
                index=self._slides,
                arrived=len(arrivals),
                evicted=evicted_total,
                window_size=len(window),
                minsup=minsup_abs,
                initial_pool_size=len(initial),
                initial_births=initial_births,
                initial_deaths=initial_deaths,
                pool_size=len(self._patterns),
                births=len(after_items - before_items),
                deaths=len(before_items - after_items),
                refused=refused,
                rebuilt=rebuild,
                largest_size=top[0].size if top else 0,
                largest_support=top[0].support if top else 0,
                seconds=seconds,
            )
            self.report.record(stats)
            self._slides += 1
            self._minsup_abs = minsup_abs
            self._stream_span = (window.start, window.end)
            if self._checkpoint is not None:
                self._checkpoint.offer(self.state_dict)
            return stats

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _checkpoint_identity(self) -> dict:
        """What stream a checkpoint belongs to (algorithm + window policy)."""
        return {
            "algorithm": "stream_fusion",
            "config": asdict(self.config),
            "minsup": self.minsup,
            "capacity": self.window.capacity,
            "policy": self.policy,
        }

    def state_dict(self) -> dict:
        """The complete driver state, JSON-shaped.

        Window rows are stored oldest-first, exactly the arrival order of
        the current window — window-local tidsets (bit ``i`` = row ``i``)
        stay valid against the rebuilt window, and the original stream span
        is carried so the out-of-band check remains coherent after resume.
        """
        return {
            "kind": "stream",
            "rows": [sorted(row) for row in self.window.transactions],
            "span": [self.window.start, self.window.end],
            "slides": self._slides,
            "minsup_abs": self._minsup_abs,
            "initial": [
                [sorted(items), format(tidset, "x")]
                for items, tidset in self._initial.items()
            ],
            "patterns": encode_patterns(self._patterns),
            "report": [asdict(stats) for stats in self.report.slides],
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (fresh) driver."""
        if state.get("kind") != "stream":
            raise ValueError(
                f"not a streaming checkpoint: kind={state.get('kind')!r}"
            )
        window = SlidingWindowDatabase(self.window.capacity)
        window.extend(state["rows"])
        self.window = window
        self._slides = int(state["slides"])
        minsup_abs = state["minsup_abs"]
        self._minsup_abs = None if minsup_abs is None else int(minsup_abs)
        self._initial = {
            frozenset(items): int(tidset_hex, 16)
            for items, tidset_hex in state["initial"]
        }
        self._patterns = decode_patterns(state["patterns"])
        self.report = DriftReport()
        for entry in state["report"]:
            self.report.record(SlideStats(**entry))
        # The rebuilt window restarts its global positions at zero; adopting
        # its span keeps the next slide's out-of-band check consistent.
        self._stream_span = (window.start, window.end)

    # ------------------------------------------------------------------
    # Pool maintenance
    # ------------------------------------------------------------------

    def _initial_pool_ordered(self) -> list[Pattern]:
        """The maintained ≤L pool in the cold miner's output order.

        Eclat descends items in ascending id order, so its DFS preorder is
        exactly lexicographic order on sorted item tuples — which is what
        makes a re-fusion from this list bit-identical to a cold run.
        """
        return [
            Pattern(items=items, tidset=tidset)
            for items, tidset in sorted(
                self._initial.items(), key=lambda entry: tuple(sorted(entry[0]))
            )
        ]

    def _rebuild(
        self, minsup_abs: int
    ) -> tuple[dict[frozenset[int], int], list[Pattern], int, int, int]:
        """Cold path: re-mine the ≤L pool and re-count the fused pool.

        Taken on the first slide, when the whole window turned over, when
        the absolute threshold dropped (a shrinking window can newly qualify
        patterns with *no* arrival support, breaking the delta-only re-seed
        argument), or when the window was mutated outside ``slide()``.
        """
        mined = mine_up_to_size(
            self.window.snapshot(), minsup_abs, self.config.initial_pool_max_size
        ) if len(self.window) else None
        initial = (
            {p.items: p.tidset for p in mined.patterns} if mined is not None else {}
        )
        births = sum(1 for items in initial if items not in self._initial)
        deaths = sum(1 for items in self._initial if items not in initial)
        revalidated: list[Pattern] = []
        pool_deaths = 0
        for pattern in self._patterns:
            tidset = self.window.tidset(pattern.items) if len(self.window) else 0
            if tidset.bit_count() >= minsup_abs:
                revalidated.append(Pattern(items=pattern.items, tidset=tidset))
            else:
                pool_deaths += 1
        return initial, revalidated, births, deaths, pool_deaths

    def _revalidate(
        self,
        kept: list[frozenset[int]],
        evicted_old: int,
        surviving_old: int,
        minsup_abs: int,
    ) -> tuple[dict[frozenset[int], int], list[Pattern], int, int, int]:
        """Incremental path: shift carried tidsets past the delta, then re-seed.

        One batched executor pass revalidates the ≤L pool and the fused pool
        together (they share the slide's delta payload); births are then
        enumerated from the arrival rows only.
        """
        entries = list(self._initial.items())
        pool_entries = [(p.items, p.tidset) for p in self._patterns]
        combined = entries + pool_entries
        if combined:
            payload = (tuple(kept), evicted_old, surviving_old)
            shifted = map_chunks(self.executor, _shift_chunk, combined, payload)
        else:
            shifted = []
        initial: dict[frozenset[int], int] = {}
        initial_deaths = 0
        for (items, _), tidset in zip(entries, shifted[: len(entries)]):
            if tidset.bit_count() >= minsup_abs:
                initial[items] = tidset
            else:
                initial_deaths += 1
        revalidated: list[Pattern] = []
        pool_deaths = 0
        for (items, _), tidset in zip(pool_entries, shifted[len(entries) :]):
            if tidset.bit_count() >= minsup_abs:
                revalidated.append(Pattern(items=items, tidset=tidset))
            else:
                pool_deaths += 1
        initial_births = self._reseed(kept, initial, minsup_abs)
        return initial, revalidated, initial_births, initial_deaths, pool_deaths

    def _reseed(
        self,
        kept: list[frozenset[int]],
        initial: dict[frozenset[int], int],
        minsup_abs: int,
    ) -> int:
        """Restore ≤L-pool completeness by walking the invalidated region.

        Any itemset newly frequent after the slide gained support from the
        delta (evictions only lose support, and the threshold did not drop —
        that case rebuilds), so it is a subset of some arrival row.  A
        per-row DFS over frequent items with Apriori pruning therefore
        enumerates every possible birth; window tidsets confirm each one.
        """
        max_size = self.config.initial_pool_max_size
        frequent = set(self.window.frequent_items(minsup_abs))
        births = 0
        seen_rows: set[frozenset[int]] = set()
        for row in kept:
            candidates = sorted(row & frequent)
            row_key = frozenset(candidates)
            if not candidates or row_key in seen_rows:
                continue
            seen_rows.add(row_key)
            births += self._grow(
                (), self.window.universe, candidates, 0, initial, minsup_abs,
                max_size,
            )
        return births

    def _grow(
        self,
        prefix: tuple[int, ...],
        prefix_tidset: int,
        candidates: list[int],
        start: int,
        initial: dict[frozenset[int], int],
        minsup_abs: int,
        max_size: int,
    ) -> int:
        """DFS one row's subset lattice, pruning infrequent extensions."""
        births = 0
        for index in range(start, len(candidates)):
            item = candidates[index]
            tidset = prefix_tidset & self.window.item_tidset(item)
            if tidset.bit_count() < minsup_abs:
                continue  # Apriori: every superset through this branch is out
            items = prefix + (item,)
            key = frozenset(items)
            if key not in initial:
                initial[key] = tidset
                births += 1
            if len(items) < max_size:
                births += self._grow(
                    items, tidset, candidates, index + 1, initial, minsup_abs,
                    max_size,
                )
        return births


@dataclass(frozen=True, slots=True)
class StreamFusionConfig(PatternFusionMinerConfig):
    """Streaming-driver knobs: the fusion miner's config + window/policy.

    ``window`` is the sliding-window capacity in transactions (``None``
    grows without bound); ``minsup`` is resolved against the window on every
    slide, exactly as :class:`IncrementalPatternFusion` documents.
    """

    window: int | None = None
    policy: str = "auto"

    def __post_init__(self) -> None:
        # Explicit base call: zero-arg super() is broken inside slots=True
        # dataclasses (the decorator rebuilds the class, orphaning the
        # __class__ cell).
        PatternFusionMinerConfig.__post_init__(self)
        if self.window is not None and self.window < 1:
            raise ValueError(f"window must be >= 1 or None, got {self.window}")
        if self.policy not in ("auto", "always"):
            raise ValueError(f"policy must be 'auto' or 'always', got {self.policy!r}")


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

    Pass ``executor=`` to drive the batched revalidation and re-fusions
    through a shared worker pool (it takes precedence over ``config.jobs``
    and its lifetime stays with the caller); otherwise one is created from
    ``config.jobs`` and closed by :meth:`close`.
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
            policy=config.policy,
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
