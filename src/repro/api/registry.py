"""Central miner registry: the single dispatch point for every algorithm.

``MINERS`` maps a miner name to its :class:`MinerSpec` (class, capabilities,
config schema).  The CLI (``repro mine --miner``, ``repro miners``), the
experiment runners, and the :class:`repro.api.pipeline.Pipeline` builder all
resolve miners here instead of importing algorithm modules directly — adding
a backend means registering one adapter class, nothing else.

Adapter classes live next to the algorithms they wrap (e.g.
:class:`repro.mining.eclat.EclatMiner` in ``repro/mining/eclat.py``) and
self-register at import time via the :func:`register` decorator.  The
registry imports those host modules lazily, on first lookup, so importing
any single miner module never drags the whole package in — and so the host
modules can import :mod:`repro.api.base` without a cycle.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass
from typing import Any, Iterator

from repro.api.base import Capabilities, Miner, MinerConfig

__all__ = [
    "MinerSpec",
    "MINERS",
    "register",
    "create_miner",
    "get_miner_spec",
    "miner_names",
]

#: Modules that define (and therefore register) adapter classes.  Imported
#: on first registry access; order is irrelevant because listings sort.
_ADAPTER_MODULES: tuple[str, ...] = (
    "repro.mining.eclat",
    "repro.mining.closed",
    "repro.mining.maximal",
    "repro.mining.topk",
    "repro.mining.levelwise",
    "repro.core.pattern_fusion",
    "repro.engine.parallel_fusion",
    "repro.streaming.incremental",
    "repro.sequences.fusion",
)

_adapters_loaded = False
_adapters_lock = threading.RLock()
_adapters_loading = threading.local()


def _load_adapters() -> None:
    global _adapters_loaded
    if _adapters_loaded or getattr(_adapters_loading, "active", False):
        # The thread-local flag guards *same-thread* re-entrancy only: the
        # imports below touch the registry themselves.  Other threads block
        # on the lock instead of returning early, so none can observe a
        # partially populated table (the serving layer hits the registry
        # from many handler threads at once).  The done-latch is only set
        # after *all* modules imported, so a failed import surfaces again
        # (with its real cause) on the next registry access instead of
        # leaving a silently partial table.
        return
    with _adapters_lock:
        if _adapters_loaded:
            return
        _adapters_loading.active = True
        try:
            for module in _ADAPTER_MODULES:
                importlib.import_module(module)
            _adapters_loaded = True
        finally:
            _adapters_loading.active = False


@dataclass(frozen=True)
class MinerSpec:
    """One registered miner: everything a caller needs to dispatch to it."""

    name: str
    cls: type[Miner]
    capabilities: Capabilities
    config_type: type[MinerConfig]
    summary: str

    def describe(self) -> dict[str, Any]:
        """JSON-ready description (used by ``repro miners --json``)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "capabilities": self.capabilities.flags(),
            "config": self.config_type.schema(),
        }


class _MinerRegistry(dict):
    """A dict that imports the adapter modules on first access."""

    def __missing__(self, key: str) -> MinerSpec:
        _load_adapters()
        spec = dict.get(self, key)
        if spec is None:
            raise KeyError(key)
        return spec

    def __contains__(self, key: object) -> bool:
        _load_adapters()
        return dict.__contains__(self, key)

    def __iter__(self) -> Iterator[str]:
        _load_adapters()
        return dict.__iter__(self)

    def __len__(self) -> int:
        _load_adapters()
        return dict.__len__(self)

    def keys(self):  # noqa: D102 - dict interface
        _load_adapters()
        return dict.keys(self)

    def values(self):  # noqa: D102 - dict interface
        _load_adapters()
        return dict.values(self)

    def items(self):  # noqa: D102 - dict interface
        _load_adapters()
        return dict.items(self)

    def get(self, key, default=None):  # noqa: D102 - dict interface
        _load_adapters()
        return dict.get(self, key, default)


MINERS: _MinerRegistry = _MinerRegistry()


def register(cls: type[Miner]) -> type[Miner]:
    """Class decorator: validate a Miner subclass and add it to ``MINERS``."""
    for attribute in ("name", "capabilities", "config_type"):
        if not hasattr(cls, attribute):
            raise TypeError(f"{cls.__name__} lacks required attribute {attribute!r}")
    if not issubclass(cls, Miner):
        raise TypeError(f"{cls.__name__} must subclass Miner")
    if not issubclass(cls.config_type, MinerConfig):
        raise TypeError(f"{cls.__name__}.config_type must derive MinerConfig")
    name = cls.name
    existing = dict.get(MINERS, name)
    if existing is not None and existing.cls is not cls:
        raise ValueError(f"miner name {name!r} already registered by {existing.cls}")
    dict.__setitem__(
        MINERS,
        name,
        MinerSpec(
            name=name,
            cls=cls,
            capabilities=cls.capabilities,
            config_type=cls.config_type,
            summary=cls.summary,
        ),
    )
    return cls


def miner_names() -> list[str]:
    """All registered miner names, sorted (the stable listing order)."""
    _load_adapters()
    return sorted(dict.keys(MINERS))


def get_miner_spec(name: str) -> MinerSpec:
    """Resolve one miner by name; unknown names raise a crisp ``ValueError``."""
    _load_adapters()
    spec = dict.get(MINERS, name)
    if spec is None:
        raise ValueError(
            f"unknown miner {name!r}; registered miners: {', '.join(miner_names())}"
        )
    return spec


def create_miner(
    name: str, config: MinerConfig | None = None, **overrides: Any
) -> Miner:
    """Instantiate a registered miner from a config and/or knob overrides."""
    return get_miner_spec(name).cls(config, **overrides)
