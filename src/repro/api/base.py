"""The unified miner protocol: one lifecycle for every mining algorithm.

Every algorithm in the package — the complete baselines, the closed/maximal
miners, the Pattern-Fusion drivers, the sequence extension — is exposed
as a :class:`Miner` subclass with the same lifecycle::

    miner = SomeMiner(SomeConfig(minsup=2))   # or SomeMiner(minsup=2)
    result = miner.mine(db)                   # -> MiningResult

Streaming-capable miners additionally implement :meth:`Miner.update` (ingest
one batch) and :meth:`Miner.partial_mine` (ingest and return the current
result).  Configs are frozen dataclasses deriving :class:`MinerConfig`, which
contributes a lossless JSON round trip (``to_dict``/``from_dict``) — the
contract behind the CLI's ``--set key=value`` knobs and config persistence.

This module deliberately imports nothing from the rest of the package, so
any miner module can depend on it without creating an import cycle.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = ["Capabilities", "MinerConfig", "Miner"]


@dataclass(frozen=True, slots=True)
class Capabilities:
    """What a miner can do — the registry's filterable feature flags.

    The registry-completeness tests assert these are *accurate*, not
    aspirational: a ``complete`` miner's pattern set must equal Eclat's, a
    ``closed`` miner's must equal the closed set, a ``streaming`` miner must
    implement :meth:`Miner.update`, a ``parallel`` miner must expose a
    ``jobs`` knob, and so on.
    """

    complete: bool = False
    """Returns every frequent pattern (up to an optional size cap)."""
    closed: bool = False
    """Returns exactly the closed frequent patterns."""
    maximal: bool = False
    """Returns exactly the maximal frequent patterns."""
    colossal: bool = False
    """Targets the largest patterns (Pattern-Fusion family; approximate)."""
    top_k: bool = False
    """Bounds the result count instead of taking a support threshold."""
    streaming: bool = False
    """Maintains its result incrementally over transaction batches."""
    parallel: bool = False
    """Fans work across worker processes (``jobs`` knob / executor)."""
    sequences: bool = False
    """Mines ordered sequences rather than itemsets."""

    def flags(self) -> tuple[str, ...]:
        """The names of the set capabilities, in declaration order."""
        return tuple(
            f.name for f in dataclasses.fields(self) if getattr(self, f.name)
        )

    def describe(self) -> str:
        """Comma-joined flags for table display (``-`` when none set)."""
        return ",".join(self.flags()) or "-"


class MinerConfig:
    """Base for per-miner frozen config dataclasses.

    Subclasses are ``@dataclass(frozen=True, slots=True)`` declarations whose
    fields are the miner's knobs, every one with a default.  This base class
    contributes the JSON round trip and the introspection the CLI and the
    registry listing rely on; it holds no fields itself.
    """

    EXECUTION_KNOBS: ClassVar[tuple[str, ...]] = ()
    """Knobs that change *where/how fast* work runs, never its result
    (``jobs`` and friends).  Excluded from :meth:`identity_dict`, so the
    pattern store's content-hashed run ids and mining-cache keys treat runs
    mined at different worker counts as the same mine — which the engine
    guarantees they are."""

    def to_dict(self) -> dict[str, Any]:
        """All knobs as a JSON-serialisable dict (tuples become lists)."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MinerConfig":
        """Construct from a (possibly partial) knob dict.

        Unknown keys raise ``ValueError`` naming the valid knobs — the CLI
        surfaces that message verbatim for a bad ``--set`` key.  Lists are
        coerced back to tuples for tuple-typed fields, completing the JSON
        round trip ``from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg``.
        """
        cls.check_keys(data)
        known = {f.name: f for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
        coerced: dict[str, Any] = {}
        for name, value in data.items():
            if isinstance(value, list) and "tuple" in str(known[name].type):
                value = tuple(value)
            coerced[name] = value
        return cls(**coerced)

    @classmethod
    def check_keys(cls, keys: Iterable[str]) -> None:
        """Raise ``ValueError`` naming the valid knobs if a key is unknown."""
        known = cls.knob_names()
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(unknown)} for "
                f"{cls.__name__}; valid keys: {', '.join(sorted(known))}"
            )

    def identity_dict(self) -> dict[str, Any]:
        """The result-determining knobs: :meth:`to_dict` minus
        :attr:`EXECUTION_KNOBS`.  This is what persistence and caching hash."""
        excluded = set(self.EXECUTION_KNOBS)
        return {
            name: value
            for name, value in self.to_dict().items()
            if name not in excluded
        }

    @classmethod
    def knob_names(cls) -> tuple[str, ...]:
        """Field names, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls))  # type: ignore[arg-type]

    @classmethod
    def schema(cls) -> dict[str, dict[str, Any]]:
        """Per-knob type string and default, for ``repro miners --json``."""
        out: dict[str, dict[str, Any]] = {}
        for f in dataclasses.fields(cls):  # type: ignore[arg-type]
            if f.default is not dataclasses.MISSING:
                default: Any = f.default
            elif f.default_factory is not dataclasses.MISSING:  # pragma: no cover
                default = f.default_factory()
            else:  # pragma: no cover - all knobs carry defaults by contract
                default = None
            default = list(default) if isinstance(default, tuple) else default
            out[f.name] = {"type": str(f.type), "default": default}
        return out

    def replace(self, **changes: Any) -> "MinerConfig":
        """A copy with the given knobs changed (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]


class Miner(ABC):
    """Uniform lifecycle over every mining algorithm in the package.

    Subclasses declare four class attributes — ``name`` (the registry key),
    ``summary`` (one line for listings), ``capabilities``, ``config_type`` —
    and implement :meth:`mine`.  Construction takes a ready config, knob
    overrides, or both (overrides win)::

        EclatMiner(EclatConfig(minsup=2))
        EclatMiner(minsup=2, max_size=3)
        EclatMiner(base_config, max_size=3)

    Adapters wrap the package's existing mining functions without touching
    their behavior: ``SomeMiner(cfg).mine(db)`` is *bit-identical* to the
    legacy call it stands for (the agreement tests pin this, including the
    RNG streams of the Pattern-Fusion drivers).
    """

    name: ClassVar[str]
    summary: ClassVar[str] = ""
    capabilities: ClassVar[Capabilities]
    config_type: ClassVar[type[MinerConfig]]

    def __init__(self, config: MinerConfig | None = None, **overrides: Any) -> None:
        self.config_type.check_keys(overrides)
        if config is None:
            config = self.config_type(**overrides)
        else:
            if not isinstance(config, self.config_type):
                raise TypeError(
                    f"{type(self).__name__} expects a "
                    f"{self.config_type.__name__}, got {type(config).__name__}"
                )
            if overrides:
                config = dataclasses.replace(config, **overrides)  # type: ignore[type-var]
        self.config = config

    @abstractmethod
    def mine(self, db: Any) -> Any:
        """Run the miner on a database and return its ``MiningResult``."""

    # ------------------------------------------------------------------
    # Streaming surface (overridden by streaming-capable miners)
    # ------------------------------------------------------------------

    def update(self, batch: Any) -> Any:
        """Ingest one batch of transactions (streaming miners only)."""
        raise NotImplementedError(
            f"miner {self.name!r} is not streaming-capable "
            "(capabilities.streaming is False)"
        )

    def partial_mine(self, batch: Any) -> Any:
        """Ingest one batch and return the current result (streaming only)."""
        raise NotImplementedError(
            f"miner {self.name!r} is not streaming-capable "
            "(capabilities.streaming is False)"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.config!r})"
