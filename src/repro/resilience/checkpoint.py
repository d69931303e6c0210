"""Crash-safe checkpoint persistence for long-running drivers.

A :class:`CheckpointManager` owns one JSON checkpoint file and the three
operations a driver loop needs: ``load()`` on entry (resume), ``offer()``
after each unit of progress (round / slide — throttled by ``interval``),
and ``clear()`` on success.  Writes go through :func:`atomic_write`, the
one durable writer the store shares: serialized to a temp file,
``fsync``'d, ``os.replace``'d over the target, directory ``fsync``'d — a
SIGKILL at any instant leaves either the previous complete checkpoint or
the new one, never a torn file.

Each checkpoint embeds an *identity* (config + dataset fingerprint, chosen
by the driver).  ``load()`` refuses a checkpoint whose identity differs
from the resuming run's — resuming round 7 of a different configuration
would not crash, it would silently mine garbage, which is worse.

The state documents themselves are plain JSON dicts assembled by the
drivers; :func:`encode_patterns` / :func:`decode_patterns` and
:func:`encode_rng` / :func:`decode_rng` cover the two payload types every
driver shares (pattern pools and ``random.Random`` cursors).
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

from repro.mining.results import Pattern
from repro.obs import metrics
from repro.resilience.faults import schedule as fault_schedule

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "atomic_write",
    "decode_patterns",
    "decode_rng",
    "encode_patterns",
    "encode_rng",
    "fsync_dir",
]

_FORMAT = 1

_SAVES = metrics.counter(
    "repro_checkpoint_saves_total",
    "Checkpoints persisted",
)
_SAVE_SECONDS = metrics.histogram(
    "repro_checkpoint_save_seconds",
    "Checkpoint serialization + durable-write latency",
)
_RESUMES = metrics.counter(
    "repro_checkpoint_resumes_total",
    "Driver runs resumed from a checkpoint",
)
_BYTES = metrics.gauge(
    "repro_checkpoint_bytes",
    "Size of the most recently written checkpoint",
)


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be resumed from (corrupt or mismatched)."""


def encode_patterns(patterns: Iterable[Pattern]) -> list[list[Any]]:
    """Pool → JSON, order-preserving: ``[[items...], "tidset-hex"]`` rows."""
    return [[list(p.sorted_items()), format(p.tidset, "x")] for p in patterns]


def decode_patterns(rows: Iterable[list[Any]]) -> list[Pattern]:
    """Inverse of :func:`encode_patterns` (bit-identical pool round-trip)."""
    return [
        Pattern(items=frozenset(items), tidset=int(tidset_hex, 16))
        for items, tidset_hex in rows
    ]


def encode_rng(state: tuple[Any, ...]) -> list[Any]:
    """``random.Random.getstate()`` → JSON (version, words, gauss_next)."""
    version, words, gauss_next = state
    return [version, list(words), gauss_next]


def decode_rng(doc: list[Any]) -> tuple[Any, ...]:
    """Inverse of :func:`encode_rng`, shaped for ``Random.setstate``."""
    version, words, gauss_next = doc
    return (version, tuple(words), gauss_next)


class CheckpointManager:
    """One checkpoint file plus the save-throttle and identity policy.

    Parameters
    ----------
    path:
        The checkpoint file.  Parent directories are created on first save.
    interval:
        Persist every ``interval``-th :meth:`offer` (1 = every round).  The
        throttle counts offers, so a crash loses at most ``interval - 1``
        rounds of progress.
    identity:
        JSON-able dict pinning what run this checkpoint belongs to.
        :meth:`load` raises :class:`CheckpointError` on mismatch.  For
        library drivers that use the manager on their own: the fusion and
        streaming drivers always replace it with their config-and-dataset
        identity.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        interval: int = 1,
        identity: dict[str, Any] | None = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.path = Path(path)
        self.interval = interval
        self.identity = identity
        self._offers = 0

    def load(self) -> dict[str, Any] | None:
        """The persisted state dict, or ``None`` when no checkpoint exists."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            doc = json.loads(raw)
        except ValueError as error:
            raise CheckpointError(
                f"checkpoint {self.path} is not valid JSON: {error}"
            ) from error
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            raise CheckpointError(
                f"checkpoint {self.path} has unsupported format "
                f"{doc.get('format') if isinstance(doc, dict) else type(doc).__name__!r}"
            )
        if self.identity is not None and doc.get("identity") != self.identity:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different run "
                "(config or dataset changed); delete it or drop --resume"
            )
        _RESUMES.inc()
        return doc["state"]

    def offer(self, factory: Callable[[], dict[str, Any]]) -> bool:
        """Maybe persist: every ``interval``-th call builds + saves a state.

        Takes a factory, not a dict, so skipped offers cost nothing — state
        assembly (pool encoding) only runs when a save is actually due.
        """
        self._offers += 1
        if self._offers % self.interval != 0:
            return False
        self.save(factory())
        return True

    def save(self, state: dict[str, Any]) -> None:
        """Durably persist ``state`` (atomic replace; fsync file and directory)."""
        doc = {"format": _FORMAT, "identity": self.identity, "state": state}
        with _SAVE_SECONDS.time():
            fault_schedule().fire("checkpoint.save")
            payload = json.dumps(doc, separators=(",", ":")).encode()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, payload)
        _SAVES.inc()
        _BYTES.set(len(payload))

    def clear(self) -> None:
        """Remove the checkpoint (the run completed; nothing to resume)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def atomic_write(path: Path, *pieces: bytes | bytearray) -> None:
    """Durably write ``pieces`` in turn via temp file + fsync + rename.

    The one durable writer: checkpoints and every store file go through
    it.  The pieces are written as given, never joined into a second copy.
    Readers never see partial content (the rename is atomic), and the data
    is flushed *before* the rename lands — without the fsync a crash right
    after ``os.replace`` can leave the new name pointing at zero-length
    data, the torn state the atomic write exists to prevent.  Orphaned
    ``.tmp<pid>`` files from a killed writer are swept by
    :meth:`repro.store.PatternStore.gc_temp_files`.
    """
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for piece in pieces:
            view = memoryview(piece)
            while view:
                view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a rename or unlink survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)
