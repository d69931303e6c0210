"""Tests for the parallel engine substrate: executors and chunked dispatch."""

import os
import threading

import pytest

from repro.engine import (
    ParallelExecutor,
    SerialExecutor,
    make_executor,
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


def _pid_and_payload_chunk(chunk):
    offset = worker_payload()
    return [(os.getpid(), x + offset) for x in chunk]


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
        # SerialExecutor, and the HTTP server's handler threads run mines
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

    def test_one_warm_pool_serves_every_payload(self):
        # Each fusion round has a new payload; the workers must stay the
        # same and answer each call with that call's payload.
        from repro.obs import metrics

        warmups = metrics.REGISTRY.get("repro_executor_pool_warmups_total")
        before = sum(warmups.collect().values())
        pids = set()
        with ParallelExecutor(2) as executor:
            for payload in (10, 20, 30):
                out = executor.map_reduce(
                    _pid_and_payload_chunk, [[1], [2], [3], [4]], _flatten,
                    payload=payload,
                )
                assert [value for _, value in out] == [
                    x + payload for x in (1, 2, 3, 4)
                ]
                pids.update(pid for pid, _ in out)
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2  # the same two workers across the calls
        assert sum(warmups.collect().values()) - before == 1

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
