"""Tests for the experiment harness: each figure runs end-to-end on a scaled
configuration and exhibits the paper's qualitative shape."""

import pytest

from repro.experiments import line_chart
from repro.experiments.base import ExperimentResult, timed
from repro.experiments.fig6_diag_runtime import Fig6Config
from repro.experiments.fig6_diag_runtime import run as run_fig6
from repro.experiments.fig7_diag_approx import Fig7Config
from repro.experiments.fig7_diag_approx import run as run_fig7
from repro.experiments.fig8_replace_approx import Fig8Config
from repro.experiments.fig8_replace_approx import run as run_fig8
from repro.experiments.fig9_all_comparison import Fig9Config
from repro.experiments.fig9_all_comparison import run as run_fig9
from repro.experiments.fig10_all_runtime import Fig10Config
from repro.experiments.fig10_all_runtime import run as run_fig10
from repro.experiments.registry import REGISTRY, experiment_ids, run_experiment


class TestExperimentResult:
    def test_row_arity_checked(self):
        result = ExperimentResult("x", "t", columns=("a", "b"))
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_format_contains_all_cells(self):
        result = ExperimentResult("x", "title", columns=("a", "b"))
        result.add_row(1, 2.5)
        result.add_row("q", None)
        result.note("a note")
        text = result.format()
        assert "title" in text and "2.5000" in text and "a note" in text
        assert " -" in text  # None renders as '-'


class TestTimed:
    def test_success(self):
        outcome = timed(lambda: 42)
        assert outcome.value == 42
        assert not outcome.timed_out
        assert outcome.seconds is not None

    def test_timeout_translated(self):
        def boom():
            raise TimeoutError("too slow")

        outcome = timed(boom)
        assert outcome.timed_out
        assert outcome.seconds is None


class TestLineChart:
    def test_renders_series(self):
        chart = line_chart(
            {"a": [(1, 1.0), (2, 2.0)], "b": [(1, 10.0), (2, None)]},
            width=20,
            height=6,
        )
        assert "*" in chart and "o" in chart
        assert "a" in chart and "b" in chart

    def test_log_scale(self):
        chart = line_chart({"a": [(1, 1.0), (2, 1000.0)]}, log_y=True)
        assert "log scale" in chart

    def test_empty(self):
        assert line_chart({"a": []}) == "(no data)"


class TestFig6:
    def test_shapes(self):
        config = Fig6Config(
            baseline_sizes=(6, 8, 10),
            fusion_sizes=(6, 10, 16),
            baseline_timeout=20.0,
        )
        result = run_fig6(config)
        rows = {row[0]: row for row in result.rows}
        # Baseline time grows with n; Pattern-Fusion finds size n/2.
        assert rows[10][2] > rows[6][2]
        assert rows[16][4] == 8
        assert rows[16][2] is None  # baseline not run there


class TestFig7:
    def test_error_decreases_with_k(self):
        config = Fig7Config(
            n=20, minsup=10, ks=(10, 40), reference_sample_size=60, seed=1
        )
        result = run_fig7(config)
        errors = [row[2] for row in result.rows]
        assert errors[-1] < errors[0]
        sampling_errors = [row[3] for row in result.rows]
        assert sampling_errors[-1] < sampling_errors[0]


class TestFig8:
    def test_small_replace_instance(self):
        config = Fig8Config(
            n_transactions=2200, ks=(30, 60), size_thresholds=(42, 44), seed=1
        )
        result = run_fig8(config)
        assert result.rows
        by_key = {(row[0], row[1]): row for row in result.rows}
        # The three colossal patterns exist and are all found at size >= 44.
        k_small = config.ks[0]
        assert by_key[(k_small, 44)][2] == 3
        assert by_key[(k_small, 44)][3] == 3
        assert by_key[(k_small, 44)][4] == 0.0
        # Errors are tiny everywhere (paper: < 0.01).
        assert all(row[4] < 0.05 for row in result.rows)


class TestFig9:
    def test_counts_against_complete_set(self):
        result = run_fig9(Fig9Config(k=60, seed=1))
        totals = {row[0]: row[1] for row in result.rows}
        found = {row[0]: row[2] for row in result.rows}
        assert totals[110] == 1
        assert sum(totals.values()) == 22
        assert all(found[size] <= totals[size] for size in totals)
        # The largest pattern is always recovered (paper's headline).
        assert found[110] == 1


class TestFig10:
    def test_single_point_fast(self):
        config = Fig10Config(minsups=(31,), baseline_timeout=30.0, k=40)
        result = run_fig10(config)
        assert len(result.rows) == 1
        minsup, t_max, t_topk, t_pf = result.rows[0]
        assert minsup == 31
        assert t_max is not None and t_topk is not None
        assert t_pf > 0


class TestRegistry:
    def test_all_figures_registered(self):
        assert experiment_ids() == ["fig6", "fig7", "fig8", "fig9", "fig10"]

    def test_specs_have_descriptions(self):
        for spec in REGISTRY.values():
            assert spec.paper_artifact.startswith("Figure")
            assert spec.description

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")
