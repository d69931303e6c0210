"""Tests for the parallel engine substrate: executors and sharded databases."""

import os
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import quest_like
from repro.db import TransactionDatabase
from repro.engine import (
    PARTITIONERS,
    ParallelExecutor,
    SerialExecutor,
    ShardedDatabase,
    make_executor,
    round_robin_partition,
    size_balanced_partition,
    split_chunks,
    worker_payload,
)


# Worker bodies must be top-level so the process pool can pickle them by
# reference.
def _square_chunk(chunk):
    return [x * x for x in chunk]


def _chunk_with_payload(chunk):
    offset = worker_payload()
    return [x + offset for x in chunk]


def _pid_chunk(chunk):
    return [os.getpid() for _ in chunk]


def _raise_oserror_chunk(chunk):
    raise FileNotFoundError("missing input for chunk")


def _flatten(per_chunk):
    return [value for chunk in per_chunk for value in chunk]


class TestSplitChunks:
    def test_preserves_order_and_items(self):
        items = list(range(17))
        for n in (1, 2, 3, 5, 17, 40):
            chunks = split_chunks(items, n)
            assert [x for c in chunks for x in c] == items
            assert all(chunks)
            assert len(chunks) <= n

    def test_near_even(self):
        chunks = split_chunks(range(10), 3)
        assert sorted(len(c) for c in chunks) == [3, 3, 4]

    def test_empty(self):
        assert split_chunks([], 4) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_chunks([1], 0)


class TestSerialExecutor:
    def test_map_reduce(self):
        out = SerialExecutor().map_reduce(
            _square_chunk, split_chunks(range(7), 3), _flatten
        )
        assert out == [x * x for x in range(7)]

    def test_payload_installed_and_restored(self):
        executor = SerialExecutor()
        out = executor.map_reduce(
            _chunk_with_payload, [[1, 2], [3]], _flatten, payload=100
        )
        assert out == [101, 102, 103]
        assert worker_payload() is None  # restored after the call

    def test_concurrent_threads_see_their_own_payload(self):
        # Every Pattern-Fusion run without an executor goes through a
        # SerialExecutor, and the threaded HTTP server runs mines
        # concurrently: one thread's payload must never leak into another's
        # call.  Thread "a" reads its payload while "b" is inside its call.
        a_inside, b_inside, a_read = (threading.Event() for _ in range(3))
        seen = {}

        def read_a(chunk):
            a_inside.set()
            assert b_inside.wait(5)
            seen["a"] = worker_payload()
            a_read.set()
            return chunk

        def hold_b(chunk):
            b_inside.set()
            assert a_read.wait(5)
            seen["b"] = worker_payload()
            return chunk

        def run_b():
            assert a_inside.wait(5)
            SerialExecutor().map_reduce(hold_b, [[0]], _flatten, payload="b")

        thread = threading.Thread(target=run_b)
        thread.start()
        SerialExecutor().map_reduce(read_a, [[0]], _flatten, payload="a")
        thread.join(5)
        assert not thread.is_alive()
        assert seen == {"a": "a", "b": "b"}


class TestParallelExecutor:
    def test_matches_serial(self):
        chunks = split_chunks(range(23), 4)
        serial = SerialExecutor().map_reduce(_square_chunk, chunks, _flatten)
        with ParallelExecutor(2) as executor:
            parallel = executor.map_reduce(_square_chunk, chunks, _flatten)
        assert parallel == serial

    def test_payload_ships_to_workers(self):
        with ParallelExecutor(2) as executor:
            out = executor.map_reduce(
                _chunk_with_payload, [[1], [2], [3], [4]], _flatten, payload=10
            )
        assert out == [11, 12, 13, 14]

    def test_single_chunk_stays_in_process(self):
        with ParallelExecutor(2) as executor:
            pids = executor.map_reduce(_pid_chunk, [[0, 0]], _flatten)
        assert set(pids) == {os.getpid()}

    def test_worker_errors_propagate_without_degrading(self):
        # An exception raised by fn inside a worker — even an OSError
        # subclass — is the caller's error, not pool failure: it must
        # re-raise as itself and leave the pool healthy (no serial
        # degradation, no RuntimeWarning).
        import warnings

        with ParallelExecutor(2) as executor:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FileNotFoundError):
                    executor.map_reduce(
                        _raise_oserror_chunk, [[1], [2]], _flatten
                    )
                out = executor.map_reduce(
                    _square_chunk, [[2], [3]], _flatten
                )
        assert out == [4, 9]

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_close_idempotent(self):
        executor = ParallelExecutor(2)
        executor.close()
        executor.close()


class TestMakeExecutor:
    def test_serial_for_one(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_above_one(self):
        executor = make_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3
        executor.close()

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_executor(0)


class TestPartitioners:
    def test_round_robin_covers_all_rows(self):
        assignment = round_robin_partition(10, 3)
        assert sorted(t for tids in assignment for t in tids) == list(range(10))
        assert [len(t) for t in assignment] == [4, 3, 3]

    def test_size_balanced_covers_all_rows(self):
        sizes = [9, 1, 1, 1, 9, 1, 1, 1]
        assignment = size_balanced_partition(sizes, 2)
        assert sorted(t for tids in assignment for t in tids) == list(range(8))
        loads = [sum(sizes[t] for t in tids) for tids in assignment]
        assert loads == [12, 12]  # the two long rows split across shards

    def test_size_balanced_deterministic(self):
        sizes = [3, 1, 4, 1, 5, 9, 2, 6]
        assert size_balanced_partition(sizes, 3) == size_balanced_partition(
            sizes, 3
        )

    def test_unknown_partitioner_rejected(self):
        db = TransactionDatabase([[0], [1]])
        with pytest.raises(ValueError, match="unknown partitioner"):
            ShardedDatabase(db, 2, "hash")

    def test_partitioner_names_exported(self):
        assert set(PARTITIONERS) == {"round-robin", "size-balanced"}


@pytest.fixture(scope="module")
def sharding_db():
    return quest_like(n_transactions=80, n_items=20, n_patterns=6, seed=9)


class TestShardedDatabase:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_support_equals_unsharded(self, sharding_db, n_shards, partitioner):
        sharded = ShardedDatabase(sharding_db, n_shards, partitioner)
        rng = random.Random(n_shards)
        for _ in range(40):
            items = rng.sample(range(sharding_db.n_items), rng.randint(1, 4))
            assert sharded.support(items) == sharding_db.support(items)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n_shards", [2, 5])
    def test_tidset_equals_unsharded(self, sharding_db, n_shards, partitioner):
        sharded = ShardedDatabase(sharding_db, n_shards, partitioner)
        rng = random.Random(n_shards)
        for _ in range(20):
            items = rng.sample(range(sharding_db.n_items), rng.randint(1, 3))
            assert sharded.tidset(items) == sharding_db.tidset(items)

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.sets(st.integers(min_value=0, max_value=9)),
            min_size=0,
            max_size=16,
        ),
        n_shards=st.integers(min_value=1, max_value=6),
        itemset=st.sets(
            st.integers(min_value=0, max_value=9), min_size=1, max_size=4
        ),
        partitioner=st.sampled_from(PARTITIONERS),
    )
    def test_support_property(self, rows, n_shards, itemset, partitioner):
        db = TransactionDatabase(rows, n_items=10)
        sharded = ShardedDatabase(db, n_shards, partitioner)
        assert sharded.support(itemset) == db.support(itemset)
        assert sharded.tidset(itemset) == db.tidset(itemset)

    def test_shards_partition_the_rows(self, sharding_db):
        sharded = ShardedDatabase(sharding_db, 3)
        assert sum(sharded.shard_sizes()) == sharding_db.n_transactions
        seen = [t for tids in sharded.tid_maps for t in tids]
        assert sorted(seen) == list(range(sharding_db.n_transactions))
        for shard, tids in zip(sharded.shards, sharded.tid_maps):
            for position, tid in enumerate(tids):
                assert shard.transaction(position) == sharding_db.transaction(tid)

    def test_frequent_items_equal(self, sharding_db):
        sharded = ShardedDatabase(sharding_db, 4)
        for minsup in (1, 5, 20):
            assert sharded.frequent_items(minsup) == sharding_db.frequent_items(
                minsup
            )

    def test_more_shards_than_rows_clamped(self):
        db = TransactionDatabase([[0, 1], [1, 2]])
        sharded = ShardedDatabase(db, 10)
        assert sharded.n_shards == 2
        assert sharded.support([1]) == 2

    def test_supports_bulk_serial(self, sharding_db):
        sharded = ShardedDatabase(sharding_db, 3)
        itemsets = [[0], [1, 2], [0, 3, 4], [5]]
        assert sharded.supports(itemsets) == [
            sharding_db.support(items) for items in itemsets
        ]

    def test_supports_bulk_parallel(self, sharding_db):
        sharded = ShardedDatabase(sharding_db, 4)
        rng = random.Random(1)
        itemsets = [
            rng.sample(range(sharding_db.n_items), rng.randint(1, 3))
            for _ in range(25)
        ]
        serial = sharded.supports(itemsets)
        with ParallelExecutor(2) as executor:
            parallel = sharded.supports(itemsets, executor=executor)
        assert parallel == serial

    def test_supports_empty_batch(self, sharding_db):
        assert ShardedDatabase(sharding_db, 2).supports([]) == []

    def test_verify_patterns(self, sharding_db):
        sharded = ShardedDatabase(sharding_db, 3)
        good = [([0], sharding_db.support([0])), ([1], sharding_db.support([1]))]
        assert sharded.verify_patterns(good) == []
        bad = good + [([2], sharding_db.support([2]) + 1)]
        assert sharded.verify_patterns(bad) == [2]

    def test_invalid_shard_count(self, sharding_db):
        with pytest.raises(ValueError):
            ShardedDatabase(sharding_db, 0)
