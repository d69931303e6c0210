"""Descriptive statistics for transaction databases.

Used by the experiment harness to print the dataset header rows the paper
gives for each dataset (|D|, item count, density, transaction lengths) and by
tests to sanity-check the synthetic generators against the paper's figures
(e.g. Replace: 4,395 transactions, 57 items; ALL: 38 transactions of size 866).

Also home of :func:`dataset_fingerprint` — the canonical content hash the
pattern store keys its mining cache on (and :func:`describe` reports), so
every layer that needs to ask "is this the same dataset?" resolves the
question through one audited function.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.db.io import format_fimi
from repro.db.transaction_db import TransactionDatabase

__all__ = ["DatabaseStats", "dataset_fingerprint", "describe"]


def dataset_fingerprint(db: TransactionDatabase) -> str:
    """Stable content hash of a database (64 hex chars).

    SHA-256 over the item universe size and the database's FIMI text
    (:func:`~repro.db.io.format_fimi`: each row its sorted item ids, the
    rows *in database order*).  Stored tidsets name rows by position, so a
    permuted copy of the rows is a different dataset to every layer that
    keys on this value: the pattern store's ``mine_cached``, stored run ids
    and itemset checkpoints.  Any change to the rows, their order, or the
    universe size changes the hash.

    The hash is content-sized work, and :class:`TransactionDatabase` is
    immutable — so the value is memoized on the exact class (never on
    mutable subclasses, whose content can change under the cache), making
    the repeated calls from ``describe`` + persistence + cache lookups pay
    once per database.
    """
    if type(db) is TransactionDatabase:
        cached = getattr(db, "_fingerprint_cache", None)
        if cached is not None:
            return cached
    header = f"fimi-v1 {db.n_transactions} {db.n_items}\n"
    fingerprint = hashlib.sha256((header + format_fimi(db)).encode()).hexdigest()
    if type(db) is TransactionDatabase:
        db._fingerprint_cache = fingerprint
    return fingerprint


@dataclass(frozen=True, slots=True)
class DatabaseStats:
    """Summary of a transaction database."""

    n_transactions: int
    n_items: int
    n_distinct_items_used: int
    min_transaction_length: int
    max_transaction_length: int
    mean_transaction_length: float
    density: float
    """Fraction of the |D| × n_items matrix that is 1."""
    fingerprint: str = ""
    """Canonical content hash (see :func:`dataset_fingerprint`)."""

    def as_rows(self) -> list[tuple[str, str]]:
        """(label, value) rows for table rendering."""
        return [
            ("transactions", str(self.n_transactions)),
            ("item universe", str(self.n_items)),
            ("distinct items used", str(self.n_distinct_items_used)),
            ("min |t|", str(self.min_transaction_length)),
            ("max |t|", str(self.max_transaction_length)),
            ("mean |t|", f"{self.mean_transaction_length:.2f}"),
            ("density", f"{self.density:.4f}"),
            ("fingerprint", self.fingerprint[:12]),
        ]

    def __str__(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.as_rows())


def describe(db: TransactionDatabase) -> DatabaseStats:
    """Compute :class:`DatabaseStats` for ``db``."""
    lengths = [len(t) for t in db.transactions]
    used: set[int] = set()
    for t in db.transactions:
        used.update(t)
    total = sum(lengths)
    n = db.n_transactions
    cells = n * db.n_items
    return DatabaseStats(
        n_transactions=n,
        n_items=db.n_items,
        n_distinct_items_used=len(used),
        min_transaction_length=min(lengths) if lengths else 0,
        max_transaction_length=max(lengths) if lengths else 0,
        mean_transaction_length=total / n if n else 0.0,
        density=total / cells if cells else 0.0,
        fingerprint=dataset_fingerprint(db),
    )
