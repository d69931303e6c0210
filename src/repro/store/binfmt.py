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
                exactly like TidsetMatrix.words (little-endian words)

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
pin this).  A save builds the image once (:func:`pool_image`), hashes it
for the run id and writes those bytes (:func:`write_binary_run`).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.kernels.matrix import TidsetMatrix
from repro.resilience.checkpoint import atomic_write
from repro.resilience.faults import schedule as fault_schedule

if TYPE_CHECKING:  # runtime import would cycle through repro.mining
    from repro.mining.results import MiningResult, Pattern

__all__ = [
    "BIN_MAGIC",
    "BIN_VERSION",
    "BinaryFormatError",
    "BinaryRun",
    "PoolImage",
    "pool_image",
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


@dataclass(frozen=True, slots=True)
class PoolImage:
    """A pool as the bytes ``patterns.bin`` stores: every region but the
    header and the embedded meta, which :func:`write_binary_run` adds."""

    n_patterns: int
    n_bits: int
    table: bytes
    words: bytes | bytearray

    def pieces(self) -> tuple[bytes, bytes, bytes]:
        """What a run id hashes: ``n_bits``, the item table, the words."""
        return (self.n_bits.to_bytes(8, "little"), self.table, self.words)


def pool_image(patterns: Iterable["Pattern"]) -> PoolImage:
    """Encode a pool: per pattern its sorted item ids in the table and its
    tidset as one little-endian row of ``n_words`` words, in pool order."""
    patterns = list(patterns)
    if any(p.tidset < 0 for p in patterns):
        raise ValueError("tidsets are non-negative integers")
    n_bits = max((p.tidset.bit_length() for p in patterns), default=0)
    width = _n_words_for(n_bits) * 8

    table = bytearray()
    for pattern in patterns:
        items = pattern.sorted_items()
        if items and (items[0] < 0 or items[-1] >> 64):
            raise ValueError(f"item ids {items[0]}..{items[-1]} exceed a u64")
        table += struct.pack(f"<I{len(items)}Q", len(items), *items)
    # Rows are written in place: no list of per-row bytes next to the image.
    words = bytearray(len(patterns) * width)
    raw = memoryview(words)
    for row, pattern in enumerate(patterns):
        raw[row * width:(row + 1) * width] = pattern.tidset.to_bytes(width, "little")
    return PoolImage(len(patterns), n_bits, bytes(table), words)


def write_binary_run(
    path: str | Path, meta: dict[str, Any], image: PoolImage
) -> Path:
    """Write a run's binary payload atomically (temp file + rename).

    ``meta`` is embedded verbatim as JSON so the file is self-contained;
    the store still treats ``meta.json`` as canonical.  Returns ``path``.
    """
    path = Path(path)
    table, words = image.table, image.words
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    meta_offset = _HEADER.size
    table_offset = meta_offset + len(meta_blob)
    words_offset = -(-(table_offset + len(table)) // _WORD_ALIGN) * _WORD_ALIGN
    padding = words_offset - (table_offset + len(table))

    body = (meta_blob, table, b"\x00" * padding)
    body_crc = 0
    for piece in body:
        body_crc = zlib.crc32(piece, body_crc)
    header_head = _HEADER.pack(
        BIN_MAGIC, BIN_VERSION, _HEADER.size,
        image.n_patterns, image.n_bits, _n_words_for(image.n_bits),
        meta_offset, len(meta_blob), table_offset, len(table),
        words_offset, len(words),
        zlib.crc32(words), body_crc, 0,
    )[:-4]
    header = header_head + _U32.pack(zlib.crc32(header_head))

    # The pieces are written in turn: the words are never copied.
    atomic_write(
        path,
        *fault_schedule().corrupting_pieces(
            "store.write", [header, *body, words]
        ),
    )
    return path


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
