"""The binary run format: packed tidset words, memory-mapped on load.

``patterns.bin`` is the one payload of a stored run.  Unlike the v1 text
encoding (:mod:`repro.store.format`), which re-parses hex and re-packs
every tidset on each cold load, it lays the kernel layer's packed
``uint64`` word representation (:mod:`repro.kernels`) directly on disk, so
a load is one ``mmap`` plus an ``np.frombuffer`` view: **zero copies** of
the word region, no JSON and no hex.  Forked serving
workers inherit the mapping, so the word pages are shared copy-on-write
across the whole worker fleet.

Layout of ``patterns.bin`` (all integers little-endian)::

    offset 0    header (100 bytes, struct "<8sII9QIII"):
                  magic "REPROBIN" | version u32 | header_size u32
                  n_patterns u64 | n_bits u64 | n_words u64
                  meta_offset u64 | meta_len u64
                  table_offset u64 | table_len u64
                  words_offset u64 | words_len u64
                  words_crc u32 | body_crc u32 | header_crc u32
    meta        UTF-8 JSON: the run's metadata document
    table       per pattern: n_items u32, then n_items sorted item ids u64
    (padding)   zeros up to the next 64-byte boundary
    words       n_patterns x n_words uint64 rows, row i = tidset i packed
                exactly like NumpyTidsetMatrix (little-endian words)

Three checksums, split along the zero-copy boundary: ``header_crc`` covers
the header's first 96 bytes and ``body_crc`` the meta/table/padding bytes —
both are always verified on load (they are small).  ``words_crc`` covers
the word region, which a checksum can only verify by *touching every
page* — exactly what a zero-copy mmap open exists to avoid — so it is
verified on full decodes (``PatternStore.load``) and deferred on mmap
opens (``PatternStore.open_matrix``), where
:meth:`BinaryRun.verify_words` runs it on demand.  A truncated or
bit-flipped file is rejected with a :class:`BinaryFormatError` naming
what failed, never misread.  Reloads are bit-identical to the saved pool
(the property tests in ``tests/test_store.py`` and ``tests/test_binfmt.py``
pin this), and run ids stay content hashes of the v1 encoding, so
migrating an old text-payload run never changes its id.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.kernels.matrix import TidsetMatrix
from repro.resilience.faults import schedule as fault_schedule

if TYPE_CHECKING:  # runtime import would cycle through repro.mining
    from repro.mining.results import MiningResult, Pattern

__all__ = [
    "BIN_MAGIC",
    "BIN_VERSION",
    "BinaryFormatError",
    "BinaryRun",
    "read_binary_run",
    "write_binary_run",
]

#: First 8 bytes of every binary run file.
BIN_MAGIC = b"REPROBIN"

#: Bump when the binary layout changes shape; newer files are refused.
BIN_VERSION = 1

_HEADER = struct.Struct("<8sII9QIII")
_U32 = struct.Struct("<I")

#: The word region starts on this alignment so mapped rows are cache- and
#: page-friendly (and SIMD loads never straddle an unaligned base).
_WORD_ALIGN = 64


class BinaryFormatError(ValueError):
    """A binary run file that cannot be trusted: truncated, corrupt, or
    written by a newer format version."""

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def _n_words_for(n_bits: int) -> int:
    """Words per row — the same formula the tidset kernels use."""
    return max(1, -(-n_bits // 64))


def write_binary_run(
    path: str | Path, meta: dict[str, Any], patterns: list["Pattern"]
) -> Path:
    """Write a run's binary payload atomically (temp file + rename).

    ``meta`` is embedded verbatim as JSON so the file is self-contained;
    the store still treats ``meta.json`` as canonical.  Returns ``path``.
    """
    path = Path(path)
    n_patterns = len(patterns)
    n_bits = 0
    for pattern in patterns:
        if pattern.tidset < 0:
            raise ValueError("tidsets are non-negative integers")
        n_bits = max(n_bits, pattern.tidset.bit_length())
    n_words = _n_words_for(n_bits)
    width = n_words * 8

    meta_blob = json.dumps(meta, sort_keys=True).encode()
    table = bytearray()
    for pattern in patterns:
        items = pattern.sorted_items()
        for item in items:
            if not 0 <= item < 1 << 64:
                raise ValueError(f"item id {item} does not fit in a u64")
        table += _U32.pack(len(items))
        if items:
            table += struct.pack(f"<{len(items)}Q", *items)

    meta_offset = _HEADER.size
    table_offset = meta_offset + len(meta_blob)
    words_offset = -(-(table_offset + len(table)) // _WORD_ALIGN) * _WORD_ALIGN
    padding = words_offset - (table_offset + len(table))
    words = b"".join(p.tidset.to_bytes(width, "little") for p in patterns)

    body = meta_blob + bytes(table) + b"\x00" * padding
    header_head = _HEADER.pack(
        BIN_MAGIC, BIN_VERSION, _HEADER.size,
        n_patterns, n_bits, n_words,
        meta_offset, len(meta_blob), table_offset, len(table),
        words_offset, len(words),
        zlib.crc32(words), zlib.crc32(body), 0,
    )[:-4]
    header = header_head + _U32.pack(zlib.crc32(header_head))

    _atomic_write(
        path, fault_schedule().corrupting("store.write", header + body + words)
    )
    return path


def _atomic_write(path: Path, data: bytes) -> None:
    """Durably write via temp file + fsync + rename; the store's one writer.

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
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
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


class BinaryRun:
    """One mapped binary run: metadata, itemsets, and a zero-copy matrix.

    ``matrix`` rows are the pool's tidsets in pool order — the row words
    are a read-only view straight into the file mapping (no bytes copied; the mapping stays alive as the array's
    buffer).  :meth:`patterns` / :meth:`to_result` materialise the full
    big-int :class:`~repro.mining.results.Pattern` objects on demand,
    bit-identical to the saved pool.
    """

    __slots__ = (
        "path", "meta", "itemsets", "matrix",
        "_mmap", "_words_crc", "_words_view",
    )

    def __init__(
        self,
        path: Path,
        meta: dict[str, Any],
        itemsets: list[tuple[int, ...]],
        matrix: TidsetMatrix,
        mapping: mmap.mmap,
        words_crc: int,
        words_view: memoryview,
    ) -> None:
        self.path = path
        self.meta = meta
        self.itemsets = itemsets
        self.matrix = matrix
        self._mmap = mapping
        self._words_crc = words_crc
        self._words_view = words_view

    def verify_words(self) -> None:
        """Checksum the word region now.

        Deliberately *not* part of the mmap open: verifying means reading
        every page, which is the copy the zero-copy open avoids.  Full
        decodes (``PatternStore.load``) run this for you; matrix-level
        callers opt in when they want the integrity check paid up front.
        """
        if zlib.crc32(self._words_view) != self._words_crc:
            raise BinaryFormatError(self.path, "word region checksum mismatch")

    def __len__(self) -> int:
        return len(self.itemsets)

    def __repr__(self) -> str:
        return (
            f"BinaryRun({str(self.path)!r}, {len(self)} patterns x "
            f"{self.matrix.n_bits} bits)"
        )

    @property
    def n_patterns(self) -> int:
        return len(self.itemsets)

    @property
    def n_bits(self) -> int:
        return self.matrix.n_bits

    def patterns(self) -> list["Pattern"]:
        """The pool as Pattern objects (materialises big-int tidsets)."""
        from repro.mining.results import Pattern

        return [
            Pattern(items=frozenset(items), tidset=self.matrix.row(index))
            for index, items in enumerate(self.itemsets)
        ]

    def to_result(self) -> "MiningResult":
        """The run as a :class:`MiningResult`, bit-identical to the save."""
        from repro.mining.results import MiningResult

        return MiningResult(
            algorithm=self.meta.get("algorithm", "unknown"),
            minsup=self.meta.get("minsup", 0),
            patterns=self.patterns(),
            elapsed_seconds=self.meta.get("elapsed_seconds", 0.0),
        )


def read_binary_run(
    path: str | Path, verify_words: bool = False
) -> BinaryRun:
    """Map a binary run file; see :class:`BinaryRun` for what comes back.

    The header and meta/table CRCs are always checked, so corruption
    surfaces here, not as a wrong query answer later.  The word region's
    CRC is the expensive one (it touches every page): ``verify_words=True``
    pays it up front, as a full decode does anyway; the default zero-copy
    open defers it to :meth:`BinaryRun.verify_words`.
    """
    path = Path(path)
    with path.open("rb") as handle:
        # Chaos point: a corrupt rule flips one header byte (tripping the
        # header CRC below exactly as real disk corruption would); delay
        # and raise rules apply as themselves.
        raw_header = fault_schedule().corrupting(
            "store.read", handle.read(_HEADER.size)
        )
        if len(raw_header) < _HEADER.size:
            raise BinaryFormatError(
                path,
                f"truncated: {len(raw_header)} bytes is shorter than the "
                f"{_HEADER.size}-byte header",
            )
        (
            magic, version, header_size,
            n_patterns, n_bits, n_words,
            meta_offset, meta_len, table_offset, table_len,
            words_offset, words_len,
            words_crc, body_crc, header_crc,
        ) = _HEADER.unpack(raw_header)
        if magic != BIN_MAGIC:
            raise BinaryFormatError(path, f"bad magic {magic!r}; not a binary run")
        if version > BIN_VERSION:
            raise BinaryFormatError(
                path,
                f"format version {version} is newer than this package's "
                f"{BIN_VERSION}; upgrade to read it",
            )
        if zlib.crc32(raw_header[:-4]) != header_crc:
            raise BinaryFormatError(path, "header checksum mismatch")
        if (
            header_size != _HEADER.size
            or n_words != _n_words_for(n_bits)
            or words_len != n_patterns * n_words * 8
            or not (
                header_size <= meta_offset
                and meta_offset + meta_len == table_offset
                and table_offset + table_len <= words_offset
            )
        ):
            raise BinaryFormatError(path, "inconsistent header geometry")
        size = os.fstat(handle.fileno()).st_size
        expected = words_offset + words_len
        if size < expected:
            raise BinaryFormatError(
                path, f"truncated: {size} bytes on disk, header declares {expected}"
            )
        if size > expected:
            raise BinaryFormatError(
                path, f"{size - expected} trailing bytes after the word region"
            )
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    view = memoryview(mapping)
    if zlib.crc32(view[header_size:words_offset]) != body_crc:
        raise BinaryFormatError(path, "meta/table checksum mismatch")
    words_view = view[words_offset:words_offset + words_len]
    try:
        meta = json.loads(bytes(view[meta_offset:meta_offset + meta_len]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BinaryFormatError(path, f"unreadable meta block: {exc}") from None

    itemsets: list[tuple[int, ...]] = []
    table = view[table_offset:table_offset + table_len]
    cursor = 0
    for _ in range(n_patterns):
        if cursor + 4 > table_len:
            raise BinaryFormatError(path, "pattern table shorter than declared")
        (n_items,) = _U32.unpack_from(table, cursor)
        cursor += 4
        if cursor + 8 * n_items > table_len:
            raise BinaryFormatError(path, "pattern table shorter than declared")
        itemsets.append(struct.unpack_from(f"<{n_items}Q", table, cursor))
        cursor += 8 * n_items
    if cursor != table_len:
        raise BinaryFormatError(
            path, f"{table_len - cursor} trailing bytes in the pattern table"
        )

    matrix = TidsetMatrix.from_words_buffer(
        words_view, n_rows=n_patterns, n_bits=n_bits
    )
    run = BinaryRun(path, meta, itemsets, matrix, mapping, words_crc, words_view)
    if verify_words:
        run.verify_words()
    return run
