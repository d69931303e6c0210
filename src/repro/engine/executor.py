"""Execution backends for the parallel engine.

Every parallel surface in :mod:`repro.engine` funnels through one tiny
abstraction: ``map_reduce(fn, chunks, merge, payload)``.  ``fn`` must be a
*pure, top-level* function of its chunk plus a read-only payload fetched via
:func:`worker_payload`; ``merge`` combines the per-chunk results, which are
always delivered in chunk order.  Purity plus ordered delivery is what makes
every driver built on top of this module *pool-equivalent across jobs*: the
work distribution changes with the worker count, the answer never does.

Two executors implement the interface:

* :class:`SerialExecutor` runs chunks in-process, in order.  It installs the
  payload through the same per-thread slot the workers use, so ``jobs=1`` runs
  the byte-identical code path a worker would — there is no separate serial
  re-implementation to drift.
* :class:`ParallelExecutor` fans chunks across a ``ProcessPoolExecutor``
  (processes, not threads: support counting and fusion are CPU-bound pure
  Python).  The payload ships **once per worker at warm-up** through the
  pool initializer — never per task — and the pool is kept alive and reused
  while the payload object is unchanged (a *changed* payload re-creates the
  worker pool: copy-on-write-cheap under ``fork``, worker startup cost under
  ``spawn``).  On hosts where process pools are
  unavailable (restricted sandboxes), it degrades to the serial path with a
  warning instead of failing, so callers never need their own fallback.

Dispatch is *supervised* (:mod:`repro.resilience.supervised`): a worker
death, injected fault, or deadline expiry fails only the chunks that were
in flight — completed results are banked, failed chunks retried on a fresh
pool under the executor's :class:`~repro.resilience.RetryPolicy`, reshard-
split on repeated failure, and only exhausted retries run serially.  The
merged output is bit-identical to serial for any failure schedule.  Only a
pool that cannot be (re)created at all — fork or semaphores forbidden —
takes the permanent serial degrade of earlier revisions.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, TypeVar

from repro.obs import metrics, trace
from repro.resilience.faults import apply_action, schedule as fault_schedule
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervised import run_supervised

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "map_chunks",
    "split_chunks",
    "worker_payload",
]

_T = TypeVar("_T")

# Scheduling telemetry.  The ``executor`` label separates the in-process
# reference path from real pool dispatch; a parallel run that degraded (or
# short-circuited on tiny inputs) shows up as ``serial`` samples.
_MAP_REDUCE_SECONDS = metrics.histogram(
    "repro_executor_map_reduce_seconds",
    "End-to-end map_reduce latency per executor kind",
    ("executor",),
)
_CHUNKS = metrics.counter(
    "repro_executor_chunks_total",
    "Chunks scheduled through map_reduce",
    ("executor",),
)
_POOL_WARMUPS = metrics.counter(
    "repro_executor_pool_warmups_total",
    "Worker-pool creations (payload warm-ups shipped)",
)
_DEGRADED = metrics.counter(
    "repro_executor_degraded_total",
    "Pool-infrastructure failures that forced the serial fallback",
)

# The one piece of protocol state: the payload of the current map_reduce
# call, per thread.  In a worker process the pool initializer sets it (tasks
# run on that same thread); under the serial executor, map_reduce itself
# sets and restores it.  Per thread, so concurrent in-process calls — the
# threaded HTTP server mines on many handler threads — never read each
# other's payload.
_PAYLOAD = threading.local()

_UNSET = object()


def _init_worker(payload: Any, fault_action: Any = None) -> None:
    """Pool initializer: install the shared payload in this worker.

    ``fault_action`` is a shipped ``executor.warmup`` fault (chaos testing):
    the driver consulted its schedule at pool creation and every worker of
    that pool generation applies the chosen action here.
    """
    _swap_payload(payload)
    apply_action(fault_action)


def _swap_payload(payload: Any) -> Any:
    """Install ``payload`` for this thread; returns the one it replaces."""
    previous = getattr(_PAYLOAD, "value", None)
    _PAYLOAD.value = payload
    return previous


def worker_payload() -> Any:
    """The payload of the enclosing ``map_reduce`` call (serial or worker)."""
    return getattr(_PAYLOAD, "value", None)


def _invoke_chunk(fn: Callable[[Any], Any], chunk: Any, fault_action: Any = None) -> Any:
    """Worker entry of a supervised dispatch: apply the shipped fault, run ``fn``.

    The fault action (if any) was chosen by the *driver's* schedule for this
    specific dispatch attempt — kill exits the worker, delay sleeps, raise
    throws ``FaultInjected`` — then the chunk runs exactly as unsupervised
    code would.
    """
    apply_action(fault_action)
    return fn(chunk)


def _run_chunk_inline(fn: Callable[[Any], Any], chunk: Any, payload: Any) -> Any:
    """Run one chunk in the driver with ``payload`` installed (serial fallback)."""
    previous = _swap_payload(payload)
    try:
        return fn(chunk)
    finally:
        _swap_payload(previous)


class _PoolUnavailable(Exception):
    """Internal: the worker pool could not be (re)created at all."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(str(error))
        self.error = error


class Executor:
    """Interface shared by the serial and process-pool backends."""

    #: Number of worker slots; drivers use it to size their chunking.
    jobs: int = 1

    def map_reduce(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        merge: Callable[[list[Any]], Any],
        payload: Any = None,
    ) -> Any:
        """Apply ``fn`` to every chunk and fold the ordered results."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker processes (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process execution, in chunk order — the reference semantics."""

    jobs = 1

    def map_reduce(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        merge: Callable[[list[Any]], Any],
        payload: Any = None,
    ) -> Any:
        previous = _swap_payload(payload)
        _CHUNKS.inc(len(chunks), executor="serial")
        try:
            with trace.span(
                "map_reduce", executor="serial", chunks=len(chunks)
            ), _MAP_REDUCE_SECONDS.time(executor="serial"):
                return merge([fn(chunk) for chunk in chunks])
        finally:
            _swap_payload(previous)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Process-pool execution with payload warm-up and payload-keyed reuse.

    Parameters
    ----------
    jobs:
        Worker process count (≥ 1).  ``jobs=1`` short-circuits to the serial
        path without ever forking.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (payload warm-up is then copy-on-write-cheap) and the
        platform default elsewhere.
    retry:
        The :class:`~repro.resilience.RetryPolicy` governing supervised
        dispatch (retries, backoff, reshard, deadline).  Defaults to the
        policy's defaults: 3 attempts, reshard after 2, no deadline.
    """

    def __init__(
        self,
        jobs: int,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.retry = retry if retry is not None else RetryPolicy()
        self._start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self._payload: Any = _UNSET
        self._serial = SerialExecutor()
        self._degraded = False

    def _context(self) -> multiprocessing.context.BaseContext:
        method = self._start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else None
        return multiprocessing.get_context(method)

    def _ensure_pool(self, payload: Any) -> ProcessPoolExecutor:
        """A warm pool whose workers hold ``payload`` (reused when unchanged)."""
        if self._pool is not None and payload is self._payload:
            return self._pool
        self._shutdown_pool()
        warmup_fault = fault_schedule().check("executor.warmup")
        pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=self._context(),
            initializer=_init_worker,
            initargs=(payload, warmup_fault),
        )
        _POOL_WARMUPS.inc()
        self._pool = pool
        self._payload = payload
        return pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._payload = _UNSET

    def _reset_pool(self, kill: bool = False) -> None:
        """Discard the current pool so the next dispatch builds a fresh one.

        ``kill=True`` hard-terminates the worker processes first: the
        supervised dispatcher calls it on deadline expiry, when the workers
        are presumed hung and a graceful shutdown would block forever.
        """
        pool = self._pool
        self._pool = None
        self._payload = _UNSET
        if pool is None:
            return
        if kill:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            for process in processes:
                process.terminate()
            for process in processes:
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    def map_reduce(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        merge: Callable[[list[Any]], Any],
        payload: Any = None,
    ) -> Any:
        chunks = list(chunks)
        if self.jobs == 1 or len(chunks) <= 1 or self._degraded:
            return self._serial.map_reduce(fn, chunks, merge, payload)
        _CHUNKS.inc(len(chunks), executor="process")
        faults = fault_schedule()
        with trace.span(
            "map_reduce", executor="process", chunks=len(chunks), jobs=self.jobs
        ), _MAP_REDUCE_SECONDS.time(executor="process"):
            try:
                results = run_supervised(
                    pool_factory=lambda: self._pool_or_unavailable(payload),
                    reset_pool=self._reset_pool,
                    fn=fn,
                    chunks=chunks,
                    policy=self.retry,
                    faults=faults if faults else None,
                    serial_fn=lambda chunk: _run_chunk_inline(fn, chunk, payload),
                    invoke=_invoke_chunk,
                )
            except _PoolUnavailable as error:
                # Only infrastructure failure degrades: worker deaths and
                # injected faults are absorbed by the supervised retry loop,
                # and an exception raised by ``fn`` inside a worker (even an
                # OSError subclass) propagates to the caller unchanged,
                # leaving the pool healthy.
                return self._degrade(error.error, fn, chunks, merge, payload)
        return merge(results)

    def _pool_or_unavailable(self, payload: Any) -> ProcessPoolExecutor:
        """``_ensure_pool`` with creation failures wrapped for the degrade path.

        The wrapper keeps ``run_supervised`` able to re-raise ``fn``'s own
        exceptions (even OSError subclasses) without the executor mistaking
        them for a missing pool.
        """
        try:
            return self._ensure_pool(payload)
        except (OSError, BrokenProcessPool) as error:
            raise _PoolUnavailable(error) from error

    def _degrade(self, error, fn, chunks, merge, payload):
        """Fall back to serial for good after a pool-infrastructure failure.

        Restricted sandboxes may forbid fork/semaphores; the engine's
        contract is pool-equivalence, so falling back is always safe.
        """
        self._degraded = True
        _DEGRADED.inc()
        self._shutdown_pool()
        warnings.warn(
            f"process pool unavailable ({error!r}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return self._serial.map_reduce(fn, chunks, merge, payload)

    def close(self) -> None:
        self._shutdown_pool()

    def __repr__(self) -> str:
        state = "degraded" if self._degraded else (
            "warm" if self._pool is not None else "cold"
        )
        return f"ParallelExecutor(jobs={self.jobs}, {state})"


def make_executor(
    jobs: int = 1,
    start_method: str | None = None,
    retry: RetryPolicy | None = None,
) -> Executor:
    """The canonical jobs→executor mapping used by the CLI and drivers."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs, start_method=start_method, retry=retry)


def map_chunks(
    executor: Executor,
    fn: Callable[[list[Any]], list[Any]],
    items: Iterable[Any],
    payload: Any = None,
) -> list[Any]:
    """Apply a per-chunk ``fn`` to ``items`` split across the executor's slots.

    The most common ``map_reduce`` shape, packaged once: items are split into
    ``executor.jobs`` ordered chunks, ``fn`` maps each chunk to a list of
    per-item results, and the chunk results are concatenated back into item
    order.  ``fn`` must be a pure top-level function (picklable) that returns
    one result per chunk element; the shared ``payload`` is fetched inside it
    via :func:`worker_payload`.
    """
    chunks = split_chunks(items, executor.jobs)
    return executor.map_reduce(fn, chunks, _concat_chunks, payload)


def _concat_chunks(per_chunk: list[list[Any]]) -> list[Any]:
    """Merge step of :func:`map_chunks`: restore item order by concatenation."""
    flat: list[Any] = []
    for chunk_results in per_chunk:
        flat.extend(chunk_results)
    return flat


def split_chunks(items: Iterable[_T], n_chunks: int) -> list[list[_T]]:
    """Split ``items`` into ≤ ``n_chunks`` contiguous, near-even, non-empty runs.

    Order is preserved within and across chunks, so flattening the per-chunk
    results restores item order — the property the determinism guarantees
    lean on.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    items = list(items)
    if not items:
        return []
    n_chunks = min(n_chunks, len(items))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[list[_T]] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks
