"""The persistent pattern store: mined pools as first-class on-disk runs.

Layout::

    <root>/store.json                 # format marker
    <root>/runs/<run_id>/meta.json    # metadata document (no patterns)
    <root>/runs/<run_id>/patterns.bin # the pool: checksummed, mmap-able words
    <root>/streams/<name>.jsonl       # appended DriftReport slides

Run ids are content hashes (:func:`repro.store.format.content_run_id`), so
the store is append-only and idempotent: saving the same run twice is a
no-op returning the same id, and nothing in a run directory is ever
rewritten.  Writes go through a temp-file + rename so a crashed save leaves
no half-written run visible.

``patterns.bin`` (:mod:`repro.store.binfmt`) is a run's only payload;
:meth:`PatternStore.open_matrix` is the serving tier's cold-open path: the
pool as a mapped :class:`~repro.kernels.TidsetMatrix` without materialising
any big-int.  Stores written before the binary format hold each pool as v1
text (``patterns.txt``); every reader refuses such a run with an error
naming ``repro store migrate``, and :meth:`PatternStore.migrate` — the only
reader of that text — upgrades it in place without changing its id.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.db.stats import dataset_fingerprint
from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import MiningResult, Pattern
from repro.obs import metrics, trace
from repro.resilience.faults import schedule as fault_schedule
from repro.store.binfmt import (
    BIN_VERSION,
    BinaryFormatError,
    BinaryRun,
    _atomic_write,
    _fsync_dir,
    read_binary_run,
    write_binary_run,
)
from repro.store.format import (
    FORMAT_VERSION,
    cache_key,
    check_format,
    content_run_id,
    decode_patterns,
    encode_lines,
)

__all__ = ["StoredRun", "PatternStore"]

_STREAM_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_TEMP_SUFFIX = re.compile(r"\.tmp(\d+)$")


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True

_SAVES = metrics.counter(
    "repro_store_saves_total",
    "Run saves by outcome (written vs content-addressed dedup no-op)",
    ("outcome",),
)
_LOADS = metrics.counter("repro_store_loads_total", "Complete run loads")
_MIGRATIONS = metrics.counter(
    "repro_store_migrations_total", "v1 text runs upgraded to the binary format"
)
_SAVE_SECONDS = metrics.histogram(
    "repro_store_save_seconds", "PatternStore.save latency"
)
_LOAD_SECONDS = metrics.histogram(
    "repro_store_load_seconds", "PatternStore.load latency"
)
_GC_TEMP = metrics.counter(
    "repro_store_gc_temp_files_total",
    "Orphaned temp files removed by gc_temp_files",
)
_VERIFIED = metrics.counter(
    "repro_store_verified_runs_total",
    "Runs checked by PatternStore.verify, by outcome",
    ("outcome",),
)


@dataclass(frozen=True, slots=True)
class StoredRun:
    """One persisted run, fully loaded: metadata + the reconstructed result."""

    run_id: str
    meta: dict[str, Any]
    result: MiningResult

    @property
    def miner(self) -> str | None:
        """Registry name of the miner that produced the run (when known)."""
        return self.meta.get("miner")

    @property
    def config(self) -> dict[str, Any] | None:
        """The miner config's ``to_dict`` image (when known)."""
        return self.meta.get("config")

    @property
    def fingerprint(self) -> str | None:
        """Fingerprint of the mined dataset (when known)."""
        dataset = self.meta.get("dataset") or {}
        return dataset.get("fingerprint")

    @property
    def patterns(self) -> list[Pattern]:
        return self.result.patterns

    def __len__(self) -> int:
        return len(self.result.patterns)


class PatternStore:
    """A directory of persisted, content-addressed mining runs.

    The constructor creates the directory (and the format marker) when
    missing and refuses a directory written by a newer format version.
    All operations address runs by their id; listings read only the small
    metadata documents, payloads load lazily via :meth:`load`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._runs_dir = self.root / "runs"
        self._streams_dir = self.root / "streams"
        marker = self.root / "store.json"
        if marker.exists():
            check_format(json.loads(marker.read_text()), where=str(marker))
        else:
            self._runs_dir.mkdir(parents=True, exist_ok=True)
            _write_json(marker, {"format": FORMAT_VERSION})
        self._runs_dir.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"PatternStore({str(self.root)!r}, {len(self)} runs)"

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------

    def save(
        self,
        result: MiningResult,
        db: TransactionDatabase | None = None,
        miner: str | None = None,
        config: dict[str, Any] | None = None,
        fingerprint: str | None = None,
    ) -> str:
        """Persist a result; returns its content-addressed run id.

        ``db`` (or a precomputed ``fingerprint``) records which dataset the
        patterns came from — required for the mining cache to ever hit.
        ``miner`` and ``config`` record how; pass a config's ``to_dict()``
        image.  Saving identical content again is a no-op.
        """
        dataset: dict[str, Any] | None = None
        if db is not None:
            if fingerprint is None:
                fingerprint = dataset_fingerprint(db)
            dataset = {
                "fingerprint": fingerprint,
                "n_transactions": db.n_transactions,
                "n_items": db.n_items,
            }
        elif fingerprint is not None:
            dataset = {"fingerprint": fingerprint}
        with trace.span("store_save", patterns=len(result.patterns)) as span, \
                _SAVE_SECONDS.time():
            run_id = content_run_id(
                encode_lines(result.patterns), miner, result.algorithm,
                result.minsup, config, fingerprint,
            )
            span.set(run_id=run_id)
            run_dir = self._runs_dir / run_id
            if (run_dir / "meta.json").exists():
                # Content-addressed: identical run already stored.
                _SAVES.inc(outcome="dedup")
                return run_id
            meta = {
                "format": FORMAT_VERSION,
                "kind": "pattern-run",
                "run_id": run_id,
                "miner": miner,
                "algorithm": result.algorithm,
                "minsup": result.minsup,
                "config": config,
                "dataset": dataset,
                "cache_key": cache_key(fingerprint, miner, config),
                "elapsed_seconds": result.elapsed_seconds,
                "n_patterns": len(result.patterns),
                "created": time.time(),
            }
            run_dir.mkdir(parents=True, exist_ok=True)
            write_binary_run(run_dir / "patterns.bin", meta, result.patterns)
            # meta.json lands last: its presence marks the run complete.
            _write_json(run_dir / "meta.json", meta, indent=2)
            _SAVES.inc(outcome="written")
        return run_id

    # ------------------------------------------------------------------
    # Loading and listing
    # ------------------------------------------------------------------

    def run_ids(self) -> list[str]:
        """Ids of every complete run, sorted (stable listing order)."""
        if not self._runs_dir.exists():
            return []
        return sorted(
            entry.name
            for entry in self._runs_dir.iterdir()
            if (entry / "meta.json").exists()
        )

    def __len__(self) -> int:
        return len(self.run_ids())

    def __contains__(self, run_id: object) -> bool:
        return (
            isinstance(run_id, str)
            and (self._runs_dir / run_id / "meta.json").exists()
        )

    def meta(self, run_id: str) -> dict[str, Any]:
        """A run's metadata document (no payload read)."""
        path = self._runs_dir / run_id / "meta.json"
        if not path.exists():
            raise KeyError(
                f"no run {run_id!r} in store {self.root} "
                f"(known: {', '.join(self.run_ids()) or 'none'})"
            )
        meta = json.loads(path.read_text())
        check_format(meta, where=str(path))
        return meta

    def metas(self) -> Iterator[dict[str, Any]]:
        """Every run's metadata, in :meth:`run_ids` order."""
        for run_id in self.run_ids():
            yield self.meta(run_id)

    def load(self, run_id: str) -> StoredRun:
        """Load a run completely; the result is bit-identical to the save.

        Items, tidsets, and pool order all come back exactly.  A run
        written before the binary format raises :class:`FileNotFoundError`
        naming ``repro store migrate``.
        """
        with trace.span("store_load", run_id=run_id), _LOAD_SECONDS.time():
            meta = self.meta(run_id)
            # A full decode reads every word anyway, so pay the word CRC
            # here; only the mmap open (open_matrix) defers it.
            run = read_binary_run(self._payload(run_id), verify_words=True)
            patterns = run.patterns()
        _LOADS.inc()
        if meta.get("n_patterns") != len(patterns):
            raise ValueError(
                f"run {run_id}: meta declares {meta.get('n_patterns')} patterns "
                f"but the payload holds {len(patterns)}"
            )
        result = MiningResult(
            algorithm=meta["algorithm"],
            minsup=meta["minsup"],
            patterns=patterns,
            elapsed_seconds=meta.get("elapsed_seconds", 0.0),
        )
        return StoredRun(run_id=run_id, meta=meta, result=result)

    def open_matrix(self, run_id: str) -> BinaryRun:
        """Map a run's binary payload: the zero-copy serving cold-open path.

        Returns a :class:`~repro.store.binfmt.BinaryRun` whose matrix rows
        are the pool's tidsets straight off the file mapping — no big-int
        materialised, no JSON parsed.  The word-region CRC is deferred to
        :meth:`BinaryRun.verify_words`.
        """
        return read_binary_run(self._payload(run_id))

    def _payload(self, run_id: str) -> Path:
        """A run's ``patterns.bin``; a run without one needs :meth:`migrate`."""
        path = self._runs_dir / run_id / "patterns.bin"
        if not path.exists():
            if run_id not in self:
                raise KeyError(f"no run {run_id!r} in store {self.root}")
            raise FileNotFoundError(
                f"run {run_id} has no binary payload (patterns.bin); runs "
                "written before the binary format need "
                f"`repro store migrate --store {self.root}`"
            )
        return path

    def migrate(self, run_id: str | None = None) -> list[str]:
        """Upgrade runs that still hold a v1 ``patterns.txt``; idempotent.

        For each such run (or just ``run_id``): decode the text and re-hash
        it — a mismatch means the text is corrupt, and the run is refused
        rather than laundered into a checksummed format — then write
        ``patterns.bin`` durably, and only then remove ``patterns.txt``.
        A ``patterns.bin`` already beside the text (an interrupted
        migration, or a save by a version that wrote both payloads) is
        rewritten from the verified text.  Returns the ids upgraded, so a
        second call returns ``[]``.  Run ids never change: they hash the v1
        encoding, which is recomputed, not read.
        """
        targets = [run_id] if run_id is not None else self.run_ids()
        migrated: list[str] = []
        for target in targets:
            meta = self.meta(target)
            run_dir = self._runs_dir / target
            text_path = run_dir / "patterns.txt"
            if not text_path.exists():
                continue
            patterns = decode_patterns(text_path.read_text())
            recomputed = content_run_id(
                encode_lines(patterns),
                meta.get("miner"),
                meta["algorithm"],
                meta["minsup"],
                meta.get("config"),
                (meta.get("dataset") or {}).get("fingerprint"),
            )
            if recomputed != target:
                raise ValueError(
                    f"run {target}: v1 payload re-hashes to {recomputed}; "
                    "refusing to migrate a corrupt run"
                )
            write_binary_run(run_dir / "patterns.bin", meta, patterns)
            text_path.unlink()
            _fsync_dir(run_dir)
            _MIGRATIONS.inc()
            migrated.append(target)
        return migrated

    def run_info(self, run_id: str) -> dict[str, Any]:
        """One run's storage facts: payload format, version, on-disk bytes."""
        meta = self.meta(run_id)
        run_dir = self._runs_dir / run_id
        files = {
            name: (run_dir / name).stat().st_size
            for name in ("meta.json", "patterns.bin")
            if (run_dir / name).exists()
        }
        binary = "patterns.bin" in files
        return {
            "run_id": run_id,
            "miner": meta.get("miner"),
            "algorithm": meta.get("algorithm"),
            "minsup": meta.get("minsup"),
            "n_patterns": meta.get("n_patterns"),
            "format": "binary" if binary else "unmigrated",
            "format_version": BIN_VERSION if binary else None,
            "files": files,
            "bytes": sum(files.values()),
        }

    def delete(self, run_id: str) -> None:
        """Remove a run (meta first, so a partial delete is still invisible)."""
        run_dir = self._runs_dir / run_id
        if not (run_dir / "meta.json").exists():
            raise KeyError(f"no run {run_id!r} in store {self.root}")
        (run_dir / "meta.json").unlink()
        shutil.rmtree(run_dir, ignore_errors=True)

    def find(
        self,
        fingerprint: str | None,
        miner: str | None,
        config: dict[str, Any] | None,
    ) -> str | None:
        """The run id matching a (dataset, miner, config) cache key, if any.

        This is the lookup behind :func:`repro.store.cache.mine_cached`; a
        key is only comparable when all three components were recorded, so
        runs saved without provenance never produce (or poison) hits.
        """
        key = cache_key(fingerprint, miner, config)
        if key is None:
            return None
        for meta in self.metas():
            if meta.get("cache_key") == key:
                return meta["run_id"]
        return None

    # ------------------------------------------------------------------
    # Crash safety: orphan sweep and integrity audit
    # ------------------------------------------------------------------

    def gc_temp_files(self) -> list[Path]:
        """Remove orphaned ``.tmp<pid>`` files left by killed writers.

        Every atomic write stages through ``<name>.tmp<pid>``; a writer
        killed between staging and rename strands that file forever.  A
        temp file is swept only when its embedded pid is no longer alive —
        a *live* writer's staging file is mid-flight, not garbage.  Returns
        the paths removed (``repro store ls`` runs this sweep).
        """
        removed: list[Path] = []
        if not self.root.exists():
            return removed
        for candidate in self.root.rglob("*"):
            if not candidate.is_file():
                continue
            match = _TEMP_SUFFIX.search(candidate.name)
            if match is None:
                continue
            pid = int(match.group(1))
            # Our own pid is garbage too: nothing in this process writes
            # concurrently with a sweep, so the file is a leftover from an
            # earlier process that happened to get the same pid.
            if pid != os.getpid() and _pid_alive(pid):
                continue  # a live writer (not us) is mid-write
            try:
                candidate.unlink()
            except OSError:  # pragma: no cover - racing another sweeper
                continue
            removed.append(candidate)
        _GC_TEMP.inc(len(removed))
        return removed

    def verify(self, run_id: str | None = None) -> list[dict[str, Any]]:
        """Audit run integrity; reports corruption instead of raising.

        For each run (or just ``run_id``): parse ``meta.json`` and read
        ``patterns.bin`` under **all three** CRCs — header and meta/table at
        open, plus the word-region checksum that mmap opens normally defer,
        exercised here exactly the way a serving cold-open would see it
        (:meth:`BinaryRun.verify_words` on the mapping).  Pattern counts are
        cross-checked against the metadata; a run with no binary payload is
        reported with the ``repro store migrate`` hint.  Returns one report
        per run: ``{"run_id", "ok", "checks", "errors"}``.
        """
        if run_id is not None and run_id not in self:
            raise KeyError(f"no run {run_id!r} in store {self.root}")
        targets = [run_id] if run_id is not None else self.run_ids()
        reports: list[dict[str, Any]] = []
        for target in targets:
            checks: list[str] = []
            errors: list[str] = []
            meta: dict[str, Any] | None = None
            try:
                meta = self.meta(target)
                checks.append("meta")
            except Exception as error:  # noqa: BLE001 - audit must not raise
                errors.append(f"meta.json: {error}")
            try:
                run = read_binary_run(self._payload(target))
                run.verify_words()  # the mmap-deferred third CRC
                checks.append("binary")
                if meta is not None and meta.get("n_patterns") != run.n_patterns:
                    errors.append(
                        f"patterns.bin: {run.n_patterns} patterns but meta "
                        f"declares {meta.get('n_patterns')}"
                    )
            except BinaryFormatError as error:
                errors.append(f"patterns.bin: {error.reason}")
            except Exception as error:  # noqa: BLE001
                errors.append(f"patterns.bin: {error}")
            ok = not errors
            _VERIFIED.inc(outcome="ok" if ok else "corrupt")
            reports.append(
                {"run_id": target, "ok": ok, "checks": checks, "errors": errors}
            )
        return reports

    # ------------------------------------------------------------------
    # Streams (persisted DriftReport slides)
    # ------------------------------------------------------------------

    def append_slides(self, name: str, slides: Iterator[dict] | list[dict]) -> int:
        """Append drift-report slide records to stream ``name`` (JSONL).

        Streams are the store's time-series surface: each ``repro stream
        --store`` run appends its :meth:`repro.streaming.DriftReport.as_dicts`
        rows, so a long-lived deployment accumulates one contiguous telemetry
        log per stream name.  Returns the number of records appended.
        """
        if not _STREAM_NAME.match(name):
            raise ValueError(
                f"invalid stream name {name!r}; use letters, digits, . _ -"
            )
        self._streams_dir.mkdir(parents=True, exist_ok=True)
        rows = [json.dumps(slide, sort_keys=True) for slide in slides]
        if rows:
            with (self._streams_dir / f"{name}.jsonl").open("a") as handle:
                handle.write("\n".join(rows) + "\n")
        return len(rows)

    def read_slides(self, name: str) -> list[dict]:
        """Every slide record appended to stream ``name``, in arrival order."""
        path = self._streams_dir / f"{name}.jsonl"
        if not path.exists():
            raise KeyError(
                f"no stream {name!r} in store {self.root} "
                f"(known: {', '.join(self.stream_names()) or 'none'})"
            )
        return [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]

    def stream_names(self) -> list[str]:
        """Names of every persisted stream, sorted."""
        if not self._streams_dir.exists():
            return []
        return sorted(p.stem for p in self._streams_dir.glob("*.jsonl"))


def _write_json(path: Path, document: Any, indent: int | None = None) -> None:
    """Atomically write a JSON document (one ``store.write`` fault point)."""
    fault_schedule().fire("store.write")
    _atomic_write(path, (json.dumps(document, indent=indent) + "\n").encode())
