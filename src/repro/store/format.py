"""The versioned run format: metadata documents and content-hashed run ids.

A stored run is a **metadata document** (JSON) — format version, miner
name, the config via the :class:`repro.api.base.MinerConfig` ``to_dict``
round trip, the dataset fingerprint
(:func:`repro.db.stats.dataset_fingerprint`), timings, pattern counts —
plus its pool in the binary payload (:mod:`repro.store.binfmt`).

The **v1 line encoding** spells a pool one pattern per line: sorted item
ids, then the tidset as hex, ``"3 7 12|1f"``.  It is the ``patterns`` list
of ``repro mine --out`` documents and the payload of stores written before
the binary format (read only by :meth:`repro.store.PatternStore.migrate`).
Tidsets and line order make a reload *bit-identical*, RNG-ordered fusion
pools included.

Run ids are **content hashes** (SHA-256, truncated) of the identity-bearing
metadata and the pool's binary image (a migrated run: its v1 text), with
timings excluded — so re-mining the same dataset with the same config lands
on the same run id, which is what the mining cache dedups on.

``FORMAT_VERSION`` gates compatibility: documents written by a newer format
are refused with a crisp error instead of being misread.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

from repro.mining.results import MiningResult, Pattern

__all__ = [
    "FORMAT_VERSION",
    "encode_patterns",
    "decode_patterns",
    "result_to_document",
    "document_to_result",
    "write_document",
    "read_document",
    "content_run_id",
    "cache_key",
    "check_format",
]

#: Bump when the payload encoding or the metadata schema changes shape.
FORMAT_VERSION = 1


def encode_patterns(patterns: Iterable[Pattern]) -> str:
    """Patterns → v1 payload text, ``"items|tidsethex\\n"`` per pattern.

    Items are written sorted (the itemset is a set; sorting is the canonical
    spelling), lines keep the pool's order (fusion pools are RNG-ordered and
    must reload exactly), and the tidset is lowercase hex without ``0x``.
    """
    return "".join(
        f"{' '.join(map(str, p.sorted_items()))}|{p.tidset:x}\n"
        for p in patterns
    )


def decode_patterns(text: str) -> list[Pattern]:
    """Payload text → patterns, inverse of :func:`encode_patterns`."""
    patterns: list[Pattern] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        items_part, sep, tidset_part = stripped.rpartition("|")
        if not sep:
            raise ValueError(
                f"payload line {lineno}: expected 'items|tidsethex', got {line!r}"
            )
        try:
            items = frozenset(int(tok) for tok in items_part.split())
            tidset = int(tidset_part, 16)
        except ValueError as exc:
            raise ValueError(f"payload line {lineno}: {line!r}") from exc
        patterns.append(Pattern(items=items, tidset=tidset))
    return patterns


def result_to_document(
    result: MiningResult,
    miner: str | None = None,
    config: dict[str, Any] | None = None,
    dataset: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A :class:`MiningResult` as a self-contained JSON document.

    The document is what ``repro mine --out`` writes: an export format
    separate from the store, carrying the pool as v1 ``patterns`` lines.
    ``miner`` is the registry name when known (the result's
    ``algorithm`` label is kept separately — the two differ for e.g. the
    ``pattern_fusion`` miner labelled ``pattern-fusion``);
    ``dataset`` carries the fingerprint and shape of the mined database.
    """
    return {
        "format": FORMAT_VERSION,
        "kind": "pattern-run",
        "miner": miner,
        "algorithm": result.algorithm,
        "minsup": result.minsup,
        "config": config,
        "dataset": dataset,
        "elapsed_seconds": result.elapsed_seconds,
        "n_patterns": len(result.patterns),
        "patterns": encode_patterns(result.patterns).splitlines(),
    }


def check_format(document: dict[str, Any], where: str = "document") -> None:
    """Refuse documents written by a newer (or absent) format version."""
    version = document.get("format")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"{where}: missing or invalid format version {version!r}")
    if version > FORMAT_VERSION:
        raise ValueError(
            f"{where}: format version {version} is newer than this package's "
            f"{FORMAT_VERSION}; upgrade to read it"
        )


def document_to_result(document: dict[str, Any]) -> MiningResult:
    """Reconstruct the :class:`MiningResult` a document was written from.

    Bit-identical: algorithm label, threshold, elapsed seconds, and the
    pattern list (items, tidsets, order) all round-trip exactly.
    """
    check_format(document)
    patterns = decode_patterns("\n".join(document.get("patterns", [])))
    declared = document.get("n_patterns")
    if declared is not None and declared != len(patterns):
        raise ValueError(
            f"document declares {declared} patterns but carries {len(patterns)}"
        )
    return MiningResult(
        algorithm=document["algorithm"],
        minsup=document["minsup"],
        patterns=patterns,
        elapsed_seconds=document.get("elapsed_seconds", 0.0),
    )


def write_document(path: str | Path, document: dict[str, Any]) -> None:
    """Write a run document as indented JSON (UTF-8)."""
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def read_document(path: str | Path) -> dict[str, Any]:
    """Read a run document back, validating its format version."""
    document = json.loads(Path(path).read_text())
    check_format(document, where=str(path))
    return document


def _canonical(data: Any) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace) for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def content_run_id(
    payload: Iterable[bytes],
    miner: str | None,
    algorithm: str,
    minsup: int,
    config: dict[str, Any] | None,
    fingerprint: str | None,
) -> str:
    """The content-addressed run id: SHA-256 over identity, not timing.

    ``payload`` is the pool's encoding as byte pieces hashed in order: a
    save's :meth:`~repro.store.binfmt.PoolImage.pieces`, or v1 text.  Two
    saves of the same pool mined the same way produce the same id (the
    store turns the second into a no-op); changing any pattern, the order
    of an RNG-sensitive pool, the config, the miner, or the dataset
    changes it.
    """
    digest = hashlib.sha256()
    digest.update(_canonical({
        "format": FORMAT_VERSION,
        "miner": miner,
        "algorithm": algorithm,
        "minsup": minsup,
        "config": config,
        "fingerprint": fingerprint,
    }))
    digest.update(b"\x00")
    for piece in payload:
        digest.update(piece)
    return digest.hexdigest()[:16]


def cache_key(
    fingerprint: str | None,
    miner: str | None,
    config: dict[str, Any] | None,
) -> str | None:
    """The mining-cache key: hash of (dataset fingerprint, miner, config).

    ``None`` when any component is unknown — a run without full provenance
    can never be served as a cache hit, because "same mine" is undecidable
    for it.
    """
    if fingerprint is None or miner is None or config is None:
        return None
    digest = hashlib.sha256()
    digest.update(_canonical({
        "fingerprint": fingerprint,
        "miner": miner,
        "config": config,
    }))
    return digest.hexdigest()[:16]
