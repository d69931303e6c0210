"""Row-partitioned transaction databases: the engine's data-parallel substrate.

A :class:`ShardedDatabase` splits one :class:`TransactionDatabase` into N
row shards, each itself a full ``TransactionDatabase`` over the *same* item
universe.  Because support is additive over any row partition —
``|D_α| = Σ_j |D_α ∩ shard_j|`` — every support query can be answered by
per-shard counting plus a sum, and a global tidset by repositioning each
shard's local tidset through its tid map.  The shard answers are exact, not
approximate: the property tests assert bit-for-bit equality with the
unsharded database for random itemsets across shard counts.

Two partitioners are provided:

* ``round-robin`` — transaction ``t`` goes to shard ``t mod N``; trivially
  balanced in row count and the layout miners' intuition expects.
* ``size-balanced`` — greedy longest-processing-time assignment on
  transaction *lengths*, so shards balance total item occurrences even when
  row lengths are skewed (microarray rows vs. noise rows).  Deterministic:
  ties break on transaction id, then lowest shard index.

The bulk :meth:`ShardedDatabase.supports` query accepts an
:class:`~repro.engine.executor.Executor`; the shard tuple is the warm-up
payload (shipped to each worker once), and only the itemset batch travels
per call.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.db import bitset
from repro.db.transaction_db import TransactionDatabase
from repro.engine.executor import Executor, split_chunks, worker_payload
from repro.obs import clock, metrics, trace

__all__ = [
    "PARTITIONERS",
    "ShardedDatabase",
    "round_robin_partition",
    "size_balanced_partition",
]


def round_robin_partition(n_rows: int, n_shards: int) -> list[list[int]]:
    """Assign transaction ``t`` to shard ``t mod n_shards``."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    assignment: list[list[int]] = [[] for _ in range(n_shards)]
    for tid in range(n_rows):
        assignment[tid % n_shards].append(tid)
    return assignment


def size_balanced_partition(
    row_sizes: Sequence[int], n_shards: int
) -> list[list[int]]:
    """Greedy LPT assignment balancing the total items per shard.

    Rows are placed longest-first onto the currently lightest shard (by item
    count, then row count, then shard index), and each shard's tid list is
    returned ascending — partitioning chooses *membership*, never order.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    assignment: list[list[int]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    order = sorted(range(len(row_sizes)), key=lambda tid: (-row_sizes[tid], tid))
    for tid in order:
        shard = min(
            range(n_shards), key=lambda j: (loads[j], len(assignment[j]), j)
        )
        assignment[shard].append(tid)
        loads[shard] += row_sizes[tid]
    for tids in assignment:
        tids.sort()
    return assignment


PARTITIONERS = ("round-robin", "size-balanced")

# Bulk-query telemetry.  Per-shard scan timings are observable only on the
# serial path; under an executor the scans run inside worker processes,
# whose registries never leave them (the driver still times the whole call).
_SUPPORTS_SECONDS = metrics.histogram(
    "repro_shard_supports_seconds",
    "Bulk supports() latency over a sharded database",
    ("mode",),
)
_SHARD_SCAN_SECONDS = metrics.histogram(
    "repro_shard_scan_seconds",
    "Per-shard batch scan latency (serial path only)",
)
_SHARD_SCANS = metrics.counter(
    "repro_shard_scans_total", "Shard batch scans performed on the driver"
)


def _partition(db: TransactionDatabase, n_shards: int, partitioner: str):
    if partitioner == "round-robin":
        return round_robin_partition(db.n_transactions, n_shards)
    if partitioner == "size-balanced":
        sizes = [len(row) for row in db.transactions]
        return size_balanced_partition(sizes, n_shards)
    raise ValueError(
        f"unknown partitioner {partitioner!r}; known: {', '.join(PARTITIONERS)}"
    )


def _shard_supports(chunk: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]):
    """Worker task: per-shard support counts for a batch of itemsets.

    The shard tuple is the warm-up payload; the chunk carries only the shard
    indices this worker owns plus the (shared) itemset batch.
    """
    shard_indices, itemsets = chunk
    shards: tuple[TransactionDatabase, ...] = worker_payload()
    totals = [0] * len(itemsets)
    for j in shard_indices:
        for position, count in enumerate(shards[j].supports(itemsets)):
            totals[position] += count
    return totals


def _sum_columns(per_chunk: list[list[int]]) -> list[int]:
    """Merge step: elementwise sum of the per-chunk count vectors."""
    if not per_chunk:
        return []
    totals = list(per_chunk[0])
    for counts in per_chunk[1:]:
        for position, count in enumerate(counts):
            totals[position] += count
    return totals


class ShardedDatabase:
    """A :class:`TransactionDatabase` row-partitioned into N shards.

    Answers the same support/tidset queries as the unsharded database, by
    per-shard counting plus merge.  Shards share the item universe, so any
    itemset valid against the original database is valid against every
    shard.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        n_shards: int,
        partitioner: str = "round-robin",
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > max(1, db.n_transactions):
            n_shards = max(1, db.n_transactions)
        assignment = _partition(db, n_shards, partitioner)
        self._partitioner = partitioner
        self._n_items = db.n_items
        self._n_transactions = db.n_transactions
        self._tid_maps: tuple[tuple[int, ...], ...] = tuple(
            tuple(tids) for tids in assignment
        )
        self._shards: tuple[TransactionDatabase, ...] = tuple(
            TransactionDatabase(
                [db.transaction(tid) for tid in tids], n_items=db.n_items
            )
            for tids in assignment
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n_transactions

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase({self.n_shards} x {self._partitioner} shards, "
            f"{self._n_transactions} transactions, {self._n_items} items)"
        )

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    @property
    def n_items(self) -> int:
        return self._n_items

    @property
    def partitioner(self) -> str:
        return self._partitioner

    @property
    def shards(self) -> tuple[TransactionDatabase, ...]:
        """The per-shard databases (each over the full item universe)."""
        return self._shards

    @property
    def tid_maps(self) -> tuple[tuple[int, ...], ...]:
        """Per shard, local row position → original transaction id."""
        return self._tid_maps

    def shard_sizes(self) -> list[int]:
        """Row count of each shard (round-robin keeps these within one)."""
        return [shard.n_transactions for shard in self._shards]

    # ------------------------------------------------------------------
    # Merged queries
    # ------------------------------------------------------------------

    def support(self, itemset: Iterable[int]) -> int:
        """|D_α| by per-shard counting plus sum — equals the unsharded value."""
        items = tuple(itemset)
        return sum(shard.support(items) for shard in self._shards)

    def relative_support(self, itemset: Iterable[int]) -> float:
        if self._n_transactions == 0:
            return 0.0
        return self.support(itemset) / self._n_transactions

    def tidset(self, itemset: Iterable[int]) -> int:
        """Global support bitset, reassembled through the shard tid maps."""
        items = tuple(itemset)
        merged = 0
        for shard, tids in zip(self._shards, self._tid_maps):
            local = shard.tidset(items)
            for position in bitset.iter_ids(local):
                merged |= 1 << tids[position]
        return merged

    def frequent_items(self, minsup: int) -> list[int]:
        """Item ids with merged support ≥ ``minsup``, ascending by id."""
        if minsup < 1:
            raise ValueError(f"minsup must be >= 1, got {minsup}")
        return [
            item
            for item in range(self._n_items)
            if sum(s.item_tidset(item).bit_count() for s in self._shards)
            >= minsup
        ]

    def supports(
        self,
        itemsets: Sequence[Iterable[int]],
        executor: Executor | None = None,
    ) -> list[int]:
        """Bulk |D_α| for a batch of itemsets, optionally fanned over workers.

        With an executor, shards are distributed across its jobs and each
        worker counts its shards' contribution to every itemset; the merge
        is an elementwise sum.  Identical to the serial answer by additivity.
        """
        batch = tuple(tuple(items) for items in itemsets)
        if not batch:
            return []
        if executor is None or executor.jobs == 1 or self.n_shards == 1:
            with trace.span(
                "sharded_supports", mode="serial", itemsets=len(batch),
                shards=self.n_shards,
            ), _SUPPORTS_SECONDS.time(mode="serial"):
                totals = [0] * len(batch)
                for shard in self._shards:
                    scan_start = clock.monotonic()
                    for position, count in enumerate(shard.supports(batch)):
                        totals[position] += count
                    _SHARD_SCAN_SECONDS.observe(clock.monotonic() - scan_start)
                _SHARD_SCANS.inc(self.n_shards)
            return totals
        shard_chunks = split_chunks(range(self.n_shards), executor.jobs)
        chunks = [(tuple(indices), batch) for indices in shard_chunks]
        with trace.span(
            "sharded_supports", mode="executor", itemsets=len(batch),
            shards=self.n_shards, jobs=executor.jobs,
        ), _SUPPORTS_SECONDS.time(mode="executor"):
            return executor.map_reduce(
                _shard_supports, chunks, _sum_columns, payload=self._shards
            )

    def verify_patterns(
        self,
        patterns: Sequence[tuple[Iterable[int], int]],
        executor: Executor | None = None,
    ) -> list[int]:
        """Audit (itemset, claimed support) pairs through the sharded path.

        Returns the positions whose merged count disagrees with the claim —
        empty means the shard merge reproduced every support exactly.
        """
        counts = self.supports([items for items, _ in patterns], executor)
        return [
            position
            for position, ((_, claimed), counted) in enumerate(
                zip(patterns, counts)
            )
            if claimed != counted
        ]
