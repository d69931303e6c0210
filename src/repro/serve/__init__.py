"""Serving layer: the pattern store over a zero-dependency HTTP JSON API.

:class:`PatternApp` (see :mod:`repro.serve.app`) is the HTTP-free core —
store access, LRU caches, request dispatch.  One serving loop hosts it,
:class:`WorkerServer` (see :mod:`repro.serve.prefork`): accept, a bounded
request queue (503 on overflow), a handler-thread pool, and a graceful
drain.  Two servers run it:

- :class:`PatternServer` — one in-process worker; tests drive it on a
  background thread via ``with PatternServer(store) as server: ...``.
- :class:`PreforkServer` — the production tier: pre-forked workers
  sharing the listening socket and the warm mmap'd run matrices, with
  crash-respawn supervision.  Per-worker metrics merge at ``GET
  /metrics`` through :class:`MetricsSpool` (see :mod:`repro.serve.metrics`).

``repro serve`` is a thin shell around both: ``--workers 0`` (default)
serves in-process, ``--workers N`` forks; ``--queue-depth`` and
``--threads`` size the loop in either mode, and SIGTERM drains both.
"""

from repro.serve.app import PatternApp, pattern_record
from repro.serve.metrics import MetricsSpool
from repro.serve.prefork import PatternServer, PreforkServer, WorkerServer

__all__ = [
    "MetricsSpool",
    "PatternApp",
    "PatternServer",
    "PreforkServer",
    "WorkerServer",
    "pattern_record",
]
