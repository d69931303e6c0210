"""PrefixSpan: complete sequential-pattern mining by prefix projection.

Pei et al. (ICDE'01).  For each frequent item, project the database onto the
suffixes following that item's first occurrence and recurse.  Serves the
same two roles its itemset cousins serve:

* the complete baseline that drowns when colossal subsequences hide under
  an explosive mid-length pattern population, and
* with ``max_length``, the phase-1 pool miner of Pattern-Fusion over
  sequences (:data:`repro.core.kinds.SEQUENCES`).
"""

from __future__ import annotations

from repro.mining.results import Stopwatch
from repro.sequences.results import SequenceMiningResult, SequencePattern
from repro.sequences.sequence_db import SequenceDatabase

__all__ = ["prefixspan"]


def prefixspan(
    db: SequenceDatabase,
    minsup: float | int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> SequenceMiningResult:
    """Mine all frequent sequential patterns.

    Parameters
    ----------
    db:
        The sequence database.
    minsup:
        Relative (float in (0,1]) or absolute (int ≥ 1) minimum support.
    max_length:
        Optional cap on pattern length (the initial-pool use case).
    max_patterns:
        Optional safety valve for the explosion benchmarks; mining stops
        once this many patterns have been emitted.

    Returns
    -------
    SequenceMiningResult
        Every frequent sequential pattern of length ≥ 1 (up to the caps),
        each with its support bitset.
    """
    absolute = db.absolute_minsup(minsup)
    patterns: list[SequencePattern] = []
    with Stopwatch() as clock:
        # A projection point is (sequence id, next position to scan from).
        projections = [(sid, 0) for sid in range(db.n_sequences)]
        _span(db, (), projections, absolute, max_length, max_patterns, patterns)
    return SequenceMiningResult(
        algorithm="prefixspan",
        minsup=absolute,
        patterns=patterns,
        elapsed_seconds=clock.elapsed,
    )


def _span(
    db: SequenceDatabase,
    prefix: tuple[int, ...],
    projections: list[tuple[int, int]],
    minsup: int,
    max_length: int | None,
    max_patterns: int | None,
    out: list[SequencePattern],
) -> None:
    if max_patterns is not None and len(out) >= max_patterns:
        return
    if max_length is not None and len(prefix) >= max_length:
        return
    # Count, per item, the projected sequences in which it still occurs.
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for sid, start in projections:
        row = db.sequence(sid)
        seen: set[int] = set()
        for position in range(start, len(row)):
            item = row[position]
            if item in seen:
                continue
            seen.add(item)
            occurrences.setdefault(item, []).append((sid, position + 1))
    for item in sorted(occurrences):
        supporters = occurrences[item]
        if len(supporters) < minsup:
            continue
        if max_patterns is not None and len(out) >= max_patterns:
            return
        new_prefix = prefix + (item,)
        tidset = 0
        for sid, _ in supporters:
            tidset |= 1 << sid
        out.append(SequencePattern(sequence=new_prefix, tidset=tidset))
        _span(db, new_prefix, supporters, minsup, max_length, max_patterns, out)
