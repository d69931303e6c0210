"""Supervised chunk dispatch: retry, reshard, deadline, serial fallback.

:func:`run_supervised` is the failure-domain engine underneath
``ParallelExecutor.map_reduce``.  It dispatches chunks to a process pool in
waves and treats three failure kinds as *transient*:

* ``broken_pool`` — a worker died (killed, OOM'd, segfaulted) and took the
  pool with it;
* ``timeout`` — a dispatch wave outlived the policy's chunk deadline, so
  its unfinished chunks are presumed hung and the pool is hard-terminated;
* ``fault`` — an injected :class:`~repro.resilience.faults.FaultInjected`.

Transient failures cost only the chunks that were in flight: completed
results are banked and **never recomputed**.  Failed chunks are redispatched
(after deterministic backoff) to a fresh pool; a chunk that keeps failing is
reshard-split into halves so a poison element ends up isolated; only a chunk
that exhausts ``max_attempts`` runs serially in the driver.  Any other
exception raised by ``fn`` is a real bug and propagates unchanged — retrying
nondeterministic user errors would mask them.

Because chunk results are banked by *chunk identity* and reassembled in
original chunk order (reshard halves concatenate in order), the merged
output is bit-identical to a serial run for **any** failure schedule — the
property the recovery-determinism suite pins.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import Future, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.obs import metrics, trace
from repro.resilience.faults import FaultInjected, FaultSchedule
from repro.resilience.retry import RetryPolicy

__all__ = ["run_supervised"]

_RETRIES = metrics.counter(
    "repro_retries_total",
    "Chunk redispatches after a transient failure",
)
_FAILURES = metrics.counter(
    "repro_chunk_failures_total",
    "Transient chunk failures seen by the supervised dispatcher",
    ("kind",),
)
_RESHARDS = metrics.counter(
    "repro_chunk_reshards_total",
    "Chunks split in half after repeated failure",
)
_SERIAL_FALLBACKS = metrics.counter(
    "repro_chunk_serial_fallbacks_total",
    "Chunks that exhausted retries and ran serially in the driver",
)

#: Dispatch-side injection point (driver-consulted; action ships to worker).
CHUNK_POINT = "executor.chunk"


def _reshardable(chunk: Any) -> bool:
    return isinstance(chunk, list) and len(chunk) >= 2


def _split(chunk: list[Any]) -> tuple[list[Any], list[Any]]:
    mid = (len(chunk) + 1) // 2
    return chunk[:mid], chunk[mid:]


def _combine(left: Any, right: Any) -> Any:
    if not isinstance(left, list) or not isinstance(right, list):
        raise TypeError(
            "resharded chunk produced non-list results; reshard requires the "
            "map_chunks contract (list chunk -> list of per-element results)"
        )
    return left + right


class _Item:
    """One unit of pending work: a (possibly resharded) chunk."""

    __slots__ = ("path", "chunk", "attempt")

    def __init__(self, path: tuple[int, ...], chunk: Any, attempt: int) -> None:
        self.path = path
        self.chunk = chunk
        self.attempt = attempt


def run_supervised(
    *,
    pool_factory: Callable[[], Any],
    reset_pool: Callable[[bool], None],
    fn: Callable[[Any], Any],
    chunks: Sequence[Any],
    policy: RetryPolicy,
    faults: FaultSchedule | None = None,
    serial_fn: Callable[[Any], Any],
    invoke: Callable[..., Any],
    sleep: Callable[[float], None] = time.sleep,
) -> list[Any]:
    """Run ``fn`` over ``chunks`` on a supervised pool; per-chunk results in order.

    Parameters
    ----------
    pool_factory:
        Returns a warm ``ProcessPoolExecutor``-shaped pool (``submit``).
        Called at the top of every wave; after a reset it must build a
        fresh pool.  Exceptions propagate — a pool
        that cannot even be *created* is the caller's degrade case.
    reset_pool:
        ``reset_pool(kill)`` discards the current pool; ``kill=True`` means
        hard-terminate its processes first (deadline expiry — the workers
        are presumed hung and will not exit on their own).
    fn / chunks:
        The ``map_reduce`` arguments: pure top-level ``fn``, ordered chunks.
    policy:
        The :class:`RetryPolicy` in force.
    faults:
        Optional active :class:`FaultSchedule`; consulted *here*, in the
        driver, once per dispatch (point ``executor.chunk``) so kill rules
        stay bounded across pool generations.  The chosen action ships
        with the dispatch and is applied by ``invoke`` in the worker.
    serial_fn:
        Driver-side executor of one chunk, used for exhausted chunks.  It
        runs outside the fault envelope: the last-resort path always
        completes.
    invoke:
        The picklable worker entry ``invoke(fn, chunk, action)`` — supplied
        by the executor module so workers import it from a stable location;
        it carries the call's payload to the worker with each chunk.
    sleep:
        Backoff sleep hook (tests stub it out).
    """
    results: dict[tuple[int, ...], Any] = {}
    pending = [_Item((index,), chunk, 1) for index, chunk in enumerate(chunks)]
    retries = failures = reshards = serial_falls = 0

    with trace.span("supervised_dispatch", chunks=len(chunks)) as span:
        while pending:
            pool = pool_factory()
            futures: dict[Future, _Item] = {}
            failed: list[_Item] = []
            pool_broken = False
            for item in pending:
                action = (
                    faults.check(CHUNK_POINT, attempt=item.attempt)
                    if faults
                    else None
                )
                try:
                    futures[pool.submit(invoke, fn, item.chunk, action)] = item
                except (BrokenProcessPool, RuntimeError):
                    pool_broken = True
                    failed.append(item)
            pending = []

            done, not_done = wait(futures, timeout=policy.chunk_deadline)
            for future in done:
                item = futures[future]
                try:
                    results[item.path] = future.result()
                except FaultInjected:
                    failures += 1
                    _FAILURES.inc(kind="fault")
                    failed.append(item)
                except BrokenProcessPool:
                    failures += 1
                    pool_broken = True
                    _FAILURES.inc(kind="broken_pool")
                    failed.append(item)
            if not_done:
                # Deadline expired: the stragglers are presumed hung.  A
                # running future cannot be cancelled, so the pool is
                # hard-terminated and the stragglers redispatched.
                for future in not_done:
                    future.cancel()
                    failures += 1
                    _FAILURES.inc(kind="timeout")
                    failed.append(futures[future])
                reset_pool(True)
            elif pool_broken:
                reset_pool(False)

            if not failed:
                continue
            max_delay = 0.0
            for item in failed:
                next_attempt = item.attempt + 1
                if next_attempt > policy.max_attempts:
                    # Exhausted: the driver itself is the only executor
                    # left.  No fault envelope — this path always finishes.
                    results[item.path] = serial_fn(item.chunk)
                    serial_falls += 1
                    _SERIAL_FALLBACKS.inc()
                    continue
                retries += 1
                _RETRIES.inc()
                max_delay = max(
                    max_delay, policy.delay(next_attempt, salt=item.path[0])
                )
                if next_attempt > policy.reshard_after and _reshardable(item.chunk):
                    left, right = _split(item.chunk)
                    reshards += 1
                    _RESHARDS.inc()
                    pending.append(_Item(item.path + (0,), left, next_attempt))
                    pending.append(_Item(item.path + (1,), right, next_attempt))
                else:
                    pending.append(_Item(item.path, item.chunk, next_attempt))
            if max_delay > 0.0:
                sleep(max_delay)

        span.set(
            retries=retries,
            failures=failures,
            reshards=reshards,
            serial_fallbacks=serial_falls,
        )

    def collect(path: tuple[int, ...]) -> Any:
        if path in results:
            return results[path]
        return _combine(collect(path + (0,)), collect(path + (1,)))

    return [collect((index,)) for index in range(len(chunks))]
