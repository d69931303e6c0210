"""Shared benchmark plumbing.

Every paper figure gets one benchmark module.  Benchmarks do two jobs:

* ``pytest-benchmark`` timings of the figure's dominant computation, and
* a printed reproduction of the figure's rows/series (the same tables the
  CLI's ``experiment`` subcommand prints), so ``pytest benchmarks/
  --benchmark-only -s`` regenerates every artifact in one run.

Figure experiments are minutes-long end-to-end, so the printed reproduction
runs exactly once per session (cached here) and the benchmark target times a
representative slice at a reduced scale.

At session end every pytest-benchmark timing is funnelled through the shared
trajectory writer (:mod:`repro.experiments.bench_io`): one
``BENCH_<suite>.json`` per benchmark module at the repository root, suite
names derived from the module basename (``test_store_bench`` → ``store``,
``test_fig6_diag_runtime`` → ``fig6_diag_runtime``).  Committing those files
is what tracks perf across PRs.

Not everything fits pytest-benchmark's measure-one-callable shape — the
serving benchmarks time whole client fleets against a forked server.  Those
tests take the ``bench_records`` fixture and append ready
:class:`~repro.experiments.bench_io.BenchRecord` rows (p50/p99 via
:func:`~repro.experiments.bench_io.latency_summary`); session finish merges
them into the same per-suite trajectory files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.bench_io import (
    BenchRecord,
    bench_path,
    percentile,
    write_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _suite_name(fullname: str) -> str:
    """Benchmark module basename → suite name for the trajectory file."""
    module = fullname.split("::", 1)[0]
    stem = Path(module).stem
    stem = stem.removeprefix("test_")
    return stem.removesuffix("_bench") or stem


def _extra_suites(session: pytest.Session) -> dict[str, list[BenchRecord]]:
    """Records appended through the ``bench_records`` fixture, by suite."""
    return getattr(session, "_repro_extra_bench", {})


@pytest.fixture
def bench_records(request: pytest.FixtureRequest):
    """Append hand-timed BenchRecords into this module's trajectory file.

    For benchmarks pytest-benchmark can't shape (concurrent clients,
    subprocess servers): ``bench_records.append(BenchRecord(...))`` and the
    session-finish hook writes them alongside the pytest-benchmark rows.
    """
    suites = getattr(request.session, "_repro_extra_bench", None)
    if suites is None:
        suites = {}
        request.session._repro_extra_bench = suites
    suite = _suite_name(request.node.nodeid)
    return suites.setdefault(suite, [])


def pytest_sessionfinish(session: pytest.Session) -> None:
    """Write one BENCH_<suite>.json per benchmarked module (mean seconds)."""
    suites: dict[str, list[BenchRecord]] = {}
    for suite, records in _extra_suites(session).items():
        suites.setdefault(suite, []).extend(records)
    bench_session = getattr(session.config, "_benchmarksession", None)
    for bench in getattr(bench_session, "benchmarks", []) if bench_session else []:
        stats = getattr(bench, "stats", None)
        if stats is None:  # skipped / errored benchmark: nothing was timed
            continue
        meta = {
            "min": stats.min,
            "max": stats.max,
            "rounds": stats.rounds,
            "group": bench.group,
        }
        data = list(getattr(stats, "data", []) or [])
        if data:
            meta["p50"] = percentile(data, 50.0)
            meta["p99"] = percentile(data, 99.0)
        meta.update(getattr(bench, "extra_info", {}) or {})
        suites.setdefault(_suite_name(bench.fullname), []).append(
            BenchRecord(name=bench.name, seconds=stats.mean, meta=meta)
        )
    for suite, records in sorted(suites.items()):
        path = write_bench(bench_path(REPO_ROOT, suite), suite, records)
        print(f"\nwrote {len(records)} benchmark records to {path}")


def run_once(request: pytest.FixtureRequest, key: str, producer):
    """Run ``producer`` once per session under ``key`` and return its value."""
    store = getattr(request.session, "_repro_results", None)
    if store is None:
        store = {}
        request.session._repro_results = store
    if key not in store:
        store[key] = producer()
    return store[key]


def print_result(result) -> None:
    """Print an ExperimentResult table, flushed so -s interleaves sanely."""
    print()
    print(result.format(), flush=True)
