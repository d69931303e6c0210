"""Deterministic fault injection.

A :class:`FaultSchedule` is a seeded list of :class:`FaultRule`\\ s — "at the
3rd dispatch through point ``executor.chunk``, kill the worker" — consulted
at named *injection points* wired through the engine, store, streaming, and
serving layers.  Schedules are pure functions of their spec string plus
per-point hit counters, so a given ``REPRO_FAULTS`` value produces the exact
same failure sequence on every run: the property the recovery-determinism
tests (and the ``repro chaos`` subcommand) are built on.

Two consultation styles exist, and the distinction is load-bearing:

* **Driver-consulted, shipped actions** (``executor.chunk``,
  ``executor.warmup``, ``prefork.worker_start``): the supervising process
  calls :meth:`FaultSchedule.check` — advancing *its* counters, which
  survive worker churn — and ships the returned :class:`FaultAction` to the
  worker, which applies it via :func:`apply_action`.  Counting in the
  driver is what bounds a kill rule: a worker-local counter would be reset
  by every respawn and kill the replacement too, forever.
* **Locally-fired** (``store.write``, ``store.read``, ``fusion.round``,
  ``prefork.handler``, ``checkpoint.save``): the code at the point calls
  :meth:`FaultSchedule.fire` (or :meth:`FaultSchedule.corrupting` for byte
  streams) in whatever process it runs in.

Spec grammar (``REPRO_FAULTS`` or ``repro chaos --faults``)::

    spec  := rule (';' rule)*
    rule  := action '@' point [':' key '=' value (',' key '=' value)*]
    action := kill | delay | raise | corrupt

    kill@executor.chunk                    # kill the worker of chunk hit 1
    kill@executor.chunk:first=2,times=3    # hits 2,3,4 only
    delay@store.write:ms=250,every=2       # every 2nd write sleeps 250ms
    raise@prefork.handler:p=0.1,seed=7     # seeded 10% of requests fail
    corrupt@store.read:first=1,times=1     # flip one byte of the 1st read

Keys: ``first`` (1-based hit index to start at), ``every`` (stride),
``times`` (max fires; unlimited if absent), ``p`` + ``seed`` (deterministic
per-hit probability), ``ms`` (delay duration), ``exit`` (kill exit code),
``max_attempt`` (only fire while the dispatch attempt is ≤ this; the
default 1 means retries run clean, which is how "a kill per round still
completes" is constructible — 0 lifts the cap for exhaustion tests).
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs import metrics

__all__ = [
    "FaultAction",
    "FaultInjected",
    "FaultRule",
    "FaultSchedule",
    "apply_action",
    "fault_points",
    "schedule",
    "set_fault_schedule",
]

#: Injection points currently wired through the codebase, for --list-points.
FAULT_POINTS: dict[str, str] = {
    "executor.warmup": "worker pool creation (action ships via the initializer)",
    "executor.chunk": "worker chunk execution (action ships with the dispatch)",
    "fusion.round": "driver side, top of every fusion round",
    "store.write": "pattern-store writes, before the atomic rename",
    "store.read": "pattern-store reads (corrupt flips loaded bytes)",
    "checkpoint.save": "checkpoint persistence",
    "prefork.worker_start": "prefork worker spawn (action ships to the child)",
    "prefork.handler": "prefork request handling, per request",
}

_ACTIONS = ("kill", "delay", "raise", "corrupt")

_INJECTED = metrics.counter(
    "repro_faults_injected_total",
    "Faults fired by the active FaultSchedule",
    ("point", "action"),
)


def fault_points() -> dict[str, str]:
    """The registered injection points and where each one lives."""
    return dict(FAULT_POINTS)


class FaultInjected(RuntimeError):
    """An injected (hence *transient, retryable*) failure.

    The supervised dispatcher retries these like worker deaths; real
    exceptions raised by user ``fn``\\ s still propagate unchanged.
    """


@dataclass(frozen=True, slots=True)
class FaultAction:
    """One concrete thing to do at an injection point (picklable).

    Shipped from the consulting driver to the worker that applies it, or
    applied in place by :meth:`FaultSchedule.fire`.
    """

    kind: str
    point: str
    ms: int = 0
    exit_code: int = 1
    byte_seed: int = 0


def apply_action(action: FaultAction | None) -> None:
    """Apply a shipped action in the current process.

    ``kill`` exits the process without cleanup (exactly what a SIGKILL'd or
    OOM-killed worker looks like to the pool); ``delay`` sleeps then lets
    execution continue; ``raise`` raises :class:`FaultInjected`.  ``corrupt``
    is a no-op here — it only has meaning against a byte stream, via
    :meth:`FaultSchedule.corrupting`.
    """
    if action is None:
        return
    if action.kind == "kill":
        os._exit(action.exit_code)
    elif action.kind == "delay":
        time.sleep(action.ms / 1000.0)
    elif action.kind == "raise":
        raise FaultInjected(f"injected fault at {action.point}")


def _splitmix64(value: int) -> int:
    """One splitmix64 step — the repo's stock seed/probability scrambler."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass(frozen=True, slots=True)
class FaultRule:
    """When and how one fault fires at one point."""

    action: str
    point: str
    first: int = 1
    every: int = 1
    times: int | None = None
    p: float | None = None
    seed: int = 0
    ms: int = 50
    exit_code: int = 1
    max_attempt: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.first < 1:
            raise ValueError(f"first must be >= 1, got {self.first}")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.max_attempt < 0:
            raise ValueError(f"max_attempt must be >= 0, got {self.max_attempt}")

    def matches(self, hit: int, fired: int) -> bool:
        """Does eligible-hit number ``hit`` (1-based) fire this rule?"""
        if hit < self.first or (hit - self.first) % self.every != 0:
            return False
        if self.times is not None and fired >= self.times:
            return False
        if self.p is not None:
            draw = _splitmix64(_splitmix64(self.seed) ^ hit) / 2**64
            if draw >= self.p:
                return False
        return True

    def to_action(self) -> FaultAction:
        return FaultAction(
            kind=self.action,
            point=self.point,
            ms=self.ms,
            exit_code=self.exit_code,
            byte_seed=self.seed,
        )


def _parse_rule(text: str) -> FaultRule:
    head, _, opts = text.partition(":")
    action, sep, point = head.partition("@")
    if not sep or not action or not point:
        raise ValueError(f"fault rule needs action@point, got {text!r}")
    kwargs: dict[str, object] = {}
    if opts:
        for pair in opts.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault option needs key=value, got {pair!r}")
            if key in ("first", "every", "times", "seed", "ms", "max_attempt"):
                kwargs[key] = int(value)
            elif key == "exit":
                kwargs["exit_code"] = int(value)
            elif key == "p":
                kwargs["p"] = float(value)
            else:
                raise ValueError(f"unknown fault option {key!r}")
    return FaultRule(action=action.strip(), point=point.strip(), **kwargs)


@dataclass
class FaultSchedule:
    """A deterministic sequence of faults, consulted by injection point.

    Each rule keeps its own *eligible-hit* counter (hits where the attempt
    cap passes), so ``first``/``every``/``times`` describe a reproducible
    schedule no matter how many clean retries interleave.  The empty
    schedule is a fast no-op: every wired point costs one attribute check.
    """

    rules: tuple[FaultRule, ...] = ()
    _hits: dict[int, int] = field(default_factory=dict, repr=False)
    _fired: dict[int, int] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Build a schedule from the ``REPRO_FAULTS`` grammar (see module doc)."""
        rules = tuple(
            _parse_rule(part.strip())
            for part in spec.split(";")
            if part.strip()
        )
        return cls(rules=rules)

    @classmethod
    def from_env(cls, env: str = "REPRO_FAULTS") -> "FaultSchedule":
        """The schedule named by ``$REPRO_FAULTS`` (empty when unset)."""
        return cls.parse(os.environ.get(env, ""))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def check(self, point: str, attempt: int = 1) -> FaultAction | None:
        """Advance ``point``'s counters and return the action to apply, if any.

        The first matching rule wins.  This is the *driver-side* half of a
        shipped fault; pair it with :func:`apply_action` at the execution
        site, or use :meth:`fire` when both halves live in one process.
        """
        if not self.rules:
            return None
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.point != point:
                    continue
                if rule.max_attempt and attempt > rule.max_attempt:
                    continue
                hit = self._hits.get(index, 0) + 1
                self._hits[index] = hit
                if rule.matches(hit, self._fired.get(index, 0)):
                    self._fired[index] = self._fired.get(index, 0) + 1
                    _INJECTED.inc(point=point, action=rule.action)
                    return rule.to_action()
        return None

    def fire(self, point: str, attempt: int = 1) -> None:
        """Consult and immediately apply — for single-process points."""
        apply_action(self.check(point, attempt))

    def corrupting(self, point: str, data: bytes, attempt: int = 1) -> bytes:
        """Pass ``data`` through ``point``: a matching corrupt rule flips a byte.

        The flipped offset is a deterministic function of the rule seed and
        the hit index, so a corrupt schedule damages the same byte of the
        same read every run.  Non-corrupt matches are applied as usual.
        """
        (data,) = self.corrupting_pieces(point, [data], attempt)
        return data

    def corrupting_pieces(
        self, point: str, pieces: Sequence[bytes | bytearray], attempt: int = 1
    ) -> list[bytes | bytearray]:
        """:meth:`corrupting` for data held as consecutive ``pieces``.

        The byte flipped is the one :meth:`corrupting` would flip in the
        pieces joined, and only the piece holding it is copied.
        """
        pieces = list(pieces)
        total = sum(len(piece) for piece in pieces)
        action = self.check(point, attempt)
        if action is None or not total:
            return pieces
        if action.kind != "corrupt":
            apply_action(action)
            return pieces
        offset = _splitmix64(_splitmix64(action.byte_seed) ^ total) % total
        for index, piece in enumerate(pieces):
            if offset < len(piece):
                mutated = bytearray(piece)
                mutated[offset] ^= 0xFF
                pieces[index] = bytes(mutated)
                break
            offset -= len(piece)
        return pieces

    def reset(self) -> None:
        """Zero the hit counters (a fresh run of the same schedule)."""
        with self._lock:
            self._hits.clear()
            self._fired.clear()


# The process-wide schedule.  ``None`` means "not yet resolved": the first
# consultation parses $REPRO_FAULTS, so CLI entry points and forked prefork
# workers pick the schedule up with zero wiring.  Tests install their own
# via set_fault_schedule and restore the previous value when done.
_ACTIVE: FaultSchedule | None = None
_ACTIVE_LOCK = threading.Lock()


def schedule() -> FaultSchedule:
    """The process-wide active schedule (resolving ``$REPRO_FAULTS`` once)."""
    global _ACTIVE
    if _ACTIVE is None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                _ACTIVE = FaultSchedule.from_env()
    return _ACTIVE


def set_fault_schedule(new: FaultSchedule | None) -> FaultSchedule | None:
    """Install ``new`` as the process-wide schedule; returns the previous one.

    ``None`` resets to the unresolved state, so the next :func:`schedule`
    call re-reads ``$REPRO_FAULTS``.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = new
    return previous
