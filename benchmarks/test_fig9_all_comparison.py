"""Benchmark for Figure 9: colossal recovery on ALL-sim.

Prints the per-size complete-vs-Pattern-Fusion table and benchmarks the
item-enumeration (LCM-style) closed miner on the microarray shape — few
rows, thousands of columns.
"""

import pytest

from benchmarks.conftest import print_result, run_once
from repro.datasets.microarray import all_like
from repro.experiments.fig9_all_comparison import Fig9Config, run
from repro.mining.closed import closed_patterns


@pytest.fixture(scope="module")
def dataset(request):
    return run_once(request, "all-sim", lambda: all_like())


@pytest.fixture(scope="module")
def figure(request):
    return run_once(request, "fig9", lambda: run(Fig9Config()))


def test_fig9_table(figure, benchmark):
    """Regenerate and print the Figure 9 comparison; assert its shape."""
    print_result(figure)
    benchmark(figure.format)  # timed target: table rendering (the run itself is cached)
    totals = {row[0]: row[1] for row in figure.rows}
    found = {row[0]: row[2] for row in figure.rows}
    # The complete set carries the paper's exact size multiset.
    assert totals[110] == totals[107] == totals[102] == 1
    assert totals[83] == 6
    assert sum(totals.values()) == 22
    # The whole largest chain (110 ⊃ 107 ⊃ 102 ⊃ 91) is recovered.
    for size in (110, 107, 102, 91):
        assert found[size] == totals[size]
    # Overall recovery is at the paper's level (it reported 16 of 22).
    assert sum(found.values()) >= 14


def test_bench_closed_item_enumeration(benchmark, dataset):
    db, _ = dataset
    result = benchmark.pedantic(
        lambda: closed_patterns(db, 30), rounds=3, iterations=1
    )
    assert len(result) == 22
