"""Correctness checks run on every timed operation of the benchmark.

Each check returns a list of problems (empty when the output is correct).
None of them pins an exact pool: Pattern-Fusion's pools depend on its RNG
schedule, which later changes may alter on purpose, so the checks test
properties every correct run has.
"""

from __future__ import annotations

from typing import Any

from repro.db.transaction_db import TransactionDatabase
from repro.mining.results import Pattern
from repro.store import InvertedItemIndex, Query, run_query


class Ledger:
    """Counts operations attempted and failed, keeping the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{operation}: {problems[0]}")


def check_fusion(
    db: TransactionDatabase, result: Any, minsup: int, k: int
) -> list[str]:
    """Problems with one Pattern-Fusion result.

    Every returned pattern's tidset is re-derived from the database and
    must match, with support ≥ minsup; the final pool holds ≤ K patterns;
    and Lemma 5 holds on ``history`` (the pool's minimum pattern size never
    decreases from one round to the next).
    """
    problems = []
    if len(result.patterns) > k:
        problems.append(f"{len(result.patterns)} patterns exceed K={k}")
    for pattern in result.patterns:
        if db.tidset(pattern.items) != pattern.tidset:
            problems.append(f"tidset of {sorted(pattern.items)[:8]}... is wrong")
            break
        if pattern.support < minsup:
            problems.append(
                f"support {pattern.support} of {sorted(pattern.items)[:8]}... "
                f"is below minsup {minsup}"
            )
            break
    sizes = [entry.min_pattern_size for entry in result.history]
    if any(later < earlier for earlier, later in zip(sizes, sizes[1:])):
        problems.append(f"Lemma 5 broken: minimum sizes {sizes}")
    return problems


def check_reload(saved: list[Pattern], loaded: list[Pattern]) -> list[str]:
    """Problems when a reloaded run differs from the saved one in any bit."""
    if len(saved) != len(loaded):
        return [f"{len(loaded)} patterns reloaded, {len(saved)} saved"]
    for index, (a, b) in enumerate(zip(saved, loaded)):
        if a.items != b.items or a.tidset != b.tidset:
            return [f"pattern {index} differs after reload"]
    return []


def check_matrix(saved: list[Pattern], rows: list[int]) -> list[str]:
    """Problems when the mapped binary payload's rows are not the tidsets."""
    if rows != [pattern.tidset for pattern in saved]:
        return ["mapped matrix rows differ from the saved tidsets"]
    return []


def record_of(pattern: Pattern) -> dict[str, Any]:
    """The JSON record the HTTP API returns for one pattern."""
    return {
        "items": sorted(pattern.items),
        "size": pattern.size,
        "support": pattern.support,
        "tidset": f"{pattern.tidset:x}",
    }


def expected_answer(
    request: dict[str, Any],
    runs: dict[str, tuple[list[Pattern], InvertedItemIndex]],
) -> list[dict[str, Any]]:
    """The pattern records a correct server returns for ``request``.

    ``runs`` maps each run id to its saved pool and an inverted index over
    it.  ``/runs/<id>?limit=N`` shows the run's first N patterns in stored
    order; ``/query`` answers what :func:`repro.store.run_query` gives over
    the same run.
    """
    patterns, index = runs[request["run"]]
    if request["kind"] == "run":
        shown = patterns[: request["limit"]]
    else:
        shown = run_query(patterns, Query.from_dict(request["query"]), index=index)
    return [record_of(pattern) for pattern in shown]


def check_answer(
    request: dict[str, Any],
    status: int,
    body: Any,
    runs: dict[str, tuple[list[Pattern], InvertedItemIndex]],
) -> list[str]:
    """Problems with one HTTP answer, compared with the library's answer."""
    if status != 200:
        return [f"HTTP {status}"]
    if not isinstance(body, dict) or "patterns" not in body:
        return ["answer carries no patterns"]
    if body["patterns"] != expected_answer(request, runs):
        return ["patterns differ from run_query over the same run"]
    return []
