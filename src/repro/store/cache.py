"""The mining cache: dataset fingerprint + config hash → persisted pool.

``mine_cached`` is the store-backed front door to every registered miner:
the first call mines and persists; every later call with the same dataset
content (by :func:`repro.db.stats.dataset_fingerprint` — rows in order:
tidsets name rows by position) and the same config loads the persisted
pool instead, *bit identically* — tidsets, pool order, timings and all.
Correct for every miner in the registry because each is deterministic given
its config (the RNG-driven fusion miners carry their seed in the config, so
the seed is part of the cache key).

Also home of the small :class:`LRUCache` the serving layer uses for hot
query results — plain ``OrderedDict`` mechanics with hit/miss telemetry, no
dependencies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.api.base import Miner, MinerConfig
from repro.api.registry import create_miner
from repro.db.stats import dataset_fingerprint
from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import MiningResult
from repro.obs import metrics, trace
from repro.store.store import PatternStore

__all__ = ["CachedMine", "mine_cached", "LRUCache"]

_MISSING = object()

_MINE_CACHED = metrics.counter(
    "repro_mine_cached_total",
    "mine_cached lookups by miner and outcome",
    ("miner", "outcome"),
)


@dataclass(frozen=True, slots=True)
class CachedMine:
    """Outcome of one :func:`mine_cached` call."""

    result: MiningResult
    """The pool — freshly mined on a miss, reloaded from the store on a hit."""
    run_id: str
    """The store run backing the result (saved on miss, found on hit)."""
    hit: bool
    """True when the pool came from the store without mining."""


def mine_cached(
    store: PatternStore,
    miner: str | Miner,
    db: TransactionDatabase,
    config: MinerConfig | None = None,
    **overrides: Any,
) -> CachedMine:
    """Mine through the store's cache: load on a warm hit, mine+save on a miss.

    ``miner`` is a registry name (with optional ``config``/knob overrides,
    exactly like :func:`repro.api.registry.create_miner`) or a ready
    :class:`Miner` instance.  The cache key is (dataset fingerprint, miner
    name, config ``to_dict`` image); a hit's pool is bit-identical to the
    run that populated it.
    """
    if isinstance(miner, Miner):
        if config is not None or overrides:
            raise ValueError(
                "pass knobs with a miner *name*; a ready Miner instance "
                "already carries its config"
            )
        instance = miner
    else:
        instance = create_miner(miner, config, **overrides)
    name = type(instance).name
    # Identity, not execution: jobs-style knobs are excluded, so a pool
    # mined at any worker count hits the same cache entry (the engine
    # guarantees the pools are identical).
    config_dict = instance.config.identity_dict()
    with trace.span("mine_cached", miner=name) as span:
        fingerprint = dataset_fingerprint(db)
        found = store.find(fingerprint, name, config_dict)
        if found is not None:
            _MINE_CACHED.inc(miner=name, outcome="hit")
            span.set(outcome="hit", run_id=found)
            return CachedMine(
                result=store.load(found).result, run_id=found, hit=True
            )
        _MINE_CACHED.inc(miner=name, outcome="miss")
        result = instance.mine(db)
        run_id = store.save(
            result, db=db, miner=name, config=config_dict, fingerprint=fingerprint
        )
        span.set(outcome="miss", run_id=run_id)
    return CachedMine(result=result, run_id=run_id, hit=False)


class LRUCache:
    """A bounded least-recently-used map with hit/miss telemetry.

    Thread-safe: the serving layer shares one instance across a worker's
    handler threads, so every operation holds one internal lock.
    ``capacity=0`` disables caching (every ``get`` misses, ``put`` is a
    no-op) so callers can turn the cache off without branching.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, marking it most recently used on a hit."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting the least recently used entry."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True when it was present.

        The serving layer calls this when a cached run turns out to have
        been deleted on disk — the entry must not shadow the 404.
        """
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Telemetry snapshot (the serving layer's ``/health`` payload)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
