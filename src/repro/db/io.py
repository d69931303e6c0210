"""Reading and writing transaction databases in the FIMI ``.dat`` format.

The FIMI workshop format (used by the implementations the paper benchmarks
against, FPClose and LCM2) is one transaction per line, items as integers
separated by whitespace.  Blank lines are empty transactions and are kept:
dropping them would silently change |D| and therefore every relative support.
"""

from __future__ import annotations

import io as _io
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.db.transaction_db import TransactionDatabase

__all__ = ["read_fimi", "write_fimi", "parse_fimi", "format_fimi", "iter_fimi"]


def _parse_lines(lines: Iterable[str]) -> Iterator[list[int]]:
    """One transaction per line; blank lines are empty transactions (kept)."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            yield []
            continue
        try:
            yield [int(token) for token in stripped.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer item in {line!r}") from exc


def iter_fimi(path: str | Path) -> Iterator[list[int]]:
    """Yield the transactions of a FIMI ``.dat`` file one at a time.

    The streaming counterpart of :func:`read_fimi`: memory stays O(one line)
    regardless of file size, which is what lets stream replay ingest a
    multi-gigabyte trace batch by batch.  Blank lines are yielded as empty
    transactions — the same |D|-preserving rule the eager parser applies.
    """
    with Path(path).open() as handle:
        yield from _parse_lines(handle)


def parse_fimi(text: str, n_items: int | None = None) -> TransactionDatabase:
    """Parse FIMI-format text into a :class:`TransactionDatabase`."""
    return TransactionDatabase(_parse_lines(_io.StringIO(text)), n_items=n_items)


def format_fimi(db: TransactionDatabase) -> str:
    """Render a database as FIMI text (items sorted within each line)."""
    lines = [" ".join(str(i) for i in sorted(row)) for row in db.transactions]
    return "\n".join(lines) + ("\n" if lines else "")


def read_fimi(path: str | Path, n_items: int | None = None) -> TransactionDatabase:
    """Load a FIMI ``.dat`` file from disk (streamed through :func:`iter_fimi`)."""
    return TransactionDatabase(iter_fimi(path), n_items=n_items)


def write_fimi(db: TransactionDatabase, path: str | Path) -> None:
    """Write a database to disk in FIMI format."""
    Path(path).write_text(format_fimi(db))

