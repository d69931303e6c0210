"""Experiment harness: one module per paper figure, plus shared plumbing."""

from repro.experiments import (  # noqa: F401  (registry imports these lazily)
    fig6_diag_runtime,
    fig7_diag_approx,
    fig8_replace_approx,
    fig9_all_comparison,
    fig10_all_runtime,
)
from repro.experiments.ascii_chart import line_chart
from repro.experiments.base import ExperimentResult, TimedOutcome, timed
from repro.experiments.bench_diff import (
    BenchDiff,
    MetricDiff,
    diff_bench,
    diff_files,
)
from repro.experiments.bench_io import (
    BenchRecord,
    bench_path,
    read_bench,
    write_bench,
)

__all__ = [
    "BenchDiff",
    "ExperimentResult",
    "MetricDiff",
    "TimedOutcome",
    "timed",
    "line_chart",
    "BenchRecord",
    "bench_path",
    "diff_bench",
    "diff_files",
    "write_bench",
    "read_bench",
    "fig6_diag_runtime",
    "fig7_diag_approx",
    "fig8_replace_approx",
    "fig9_all_comparison",
    "fig10_all_runtime",
]
