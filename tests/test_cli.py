"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.db import read_fimi


@pytest.fixture
def dat_file(tmp_path):
    path = tmp_path / "toy.dat"
    rows = ["0 1 4", "0 1", "1 2", "0 1 2", "0 2 3"]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_requires_dataset_or_input(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--minsup", "2"])

    def test_dataset_and_input_exclusive(self, dat_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--input", str(dat_file), "--dataset", "diag",
                 "--minsup", "2"]
            )


class TestMine:
    @pytest.mark.parametrize(
        "algorithm", ["eclat", "closed", "maximal"]
    )
    def test_each_algorithm(self, dat_file, capsys, algorithm):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--algorithm", algorithm])
        assert code == 0
        out = capsys.readouterr().out
        assert algorithm in out
        assert "patterns at minsup 2" in out

    def test_topk(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "1",
                     "--algorithm", "topk", "--top-k", "3"])
        assert code == 0
        assert "topk: 3 patterns" in capsys.readouterr().out

    def test_pool(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--algorithm", "pool", "--min-size", "2"])
        assert code == 0
        assert "levelwise" in capsys.readouterr().out

    def test_builtin_dataset(self, capsys):
        code = main(["mine", "--dataset", "diag", "--n", "8", "--minsup", "4",
                     "--algorithm", "maximal"])
        assert code == 0
        assert "70 patterns" in capsys.readouterr().out

    def test_limit_truncates(self, dat_file, capsys):
        main(["mine", "--input", str(dat_file), "--minsup", "1", "--limit", "2"])
        assert "more" in capsys.readouterr().out


class TestFuse:
    def test_diag_plus_finds_block(self, capsys):
        code = main(["fuse", "--dataset", "diag-plus", "--minsup", "20",
                     "--k", "10", "--pool-size", "2", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pattern-fusion" in out
        assert "size  39" in out

    def test_fimi_input(self, dat_file, capsys):
        code = main(["fuse", "--input", str(dat_file), "--minsup", "2",
                     "--k", "3"])
        assert code == 0


class TestEngineFlags:
    def test_fuse_jobs_invariant(self, capsys):
        # The engine guarantee, exposed at CLI level: the mined pool is
        # identical for every --jobs value, including the serial default
        # (and still finds the colossal size-39 block of the paper's
        # introduction example).
        base = ["fuse", "--dataset", "diag-plus", "--minsup", "20",
                "--k", "10", "--pool-size", "2", "--seed", "0"]

        def mined_lines(text):
            return [line for line in text.splitlines() if "size" in line]

        assert main(base) == 0
        serial = capsys.readouterr().out
        assert "size  39" in serial
        assert main(base + ["--jobs", "2"]) == 0
        two_jobs = capsys.readouterr().out
        assert "[engine: 2 jobs]" in two_jobs
        assert main(base + ["--jobs", "4"]) == 0
        four_jobs = capsys.readouterr().out
        assert mined_lines(serial) == mined_lines(two_jobs) == mined_lines(four_jobs)


class TestKernelFlags:
    def test_backend_flag_is_gone(self, capsys):
        """There is one tidset kernel; the old switch is an argparse error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["fuse", "--dataset", "diag-plus", "--minsup", "20",
                  "--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_backend_config_key_is_unknown(self, capsys):
        code = main(["mine", "--dataset", "diag", "--n", "8",
                     "--miner", "pattern_fusion", "--set", "minsup=4",
                     "--set", "backend=numpy"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown config key(s) backend" in err
        assert "valid keys" in err

    def test_mine_profile_prints_hot_functions(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--profile", "--profile-limit", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # the pstats table header
        assert "patterns" in out    # the mining output still printed


class TestEvaluate:
    def test_roundtrip(self, dat_file, tmp_path, capsys):
        mined = tmp_path / "mined.dat"
        reference = tmp_path / "ref.dat"
        mined.write_text("0 1\n")
        reference.write_text("0 1\n0 1 2\n")
        code = main(["evaluate", "--input", str(dat_file),
                     "--mined", str(mined), "--reference", str(reference)])
        assert code == 0
        assert "delta(AP_Q)" in capsys.readouterr().out

    def test_empty_files_rejected(self, dat_file, tmp_path, capsys):
        empty = tmp_path / "empty.dat"
        empty.write_text("")
        code = main(["evaluate", "--input", str(dat_file),
                     "--mined", str(empty), "--reference", str(empty)])
        assert code == 2


class TestDatasets:
    def test_generate_diag(self, tmp_path, capsys):
        out = tmp_path / "diag.dat"
        code = main(["datasets", "diag", "--n", "6", "--out", str(out)])
        assert code == 0
        db = read_fimi(out)
        assert db.n_transactions == 6
        assert all(len(t) == 5 for t in db.transactions)

    def test_generate_quest(self, tmp_path):
        out = tmp_path / "quest.dat"
        assert main(["datasets", "quest", "--out", str(out)]) == 0
        assert read_fimi(out).n_transactions == 200


class TestStream:
    @pytest.fixture
    def trace(self, tmp_path):
        # A stream whose second half plants a block the first half lacks.
        path = tmp_path / "trace.dat"
        rows = ["0 1 2", "0 1", "1 2", "0 1 2"] * 3 + ["5 6 7"] * 6
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_fimi_replay(self, trace, capsys):
        code = main(["stream", "--input", str(trace), "--minsup", "2",
                     "--window", "8", "--batch-size", "4", "--k", "5",
                     "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slide" in out
        assert "drift report" in out
        assert "size" in out  # final patterns are printed

    def test_jobs_invariant(self, trace, capsys):
        base = ["stream", "--input", str(trace), "--minsup", "2",
                "--window", "8", "--batch-size", "4", "--k", "5", "--seed", "0"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def pattern_lines(text):
            return [line for line in text.splitlines() if "support" in line]

        assert pattern_lines(serial) == pattern_lines(parallel)

    def test_drift_source(self, capsys):
        code = main(["stream", "--drift", "--minsup", "5", "--window", "60",
                     "--batch-size", "30", "--batches", "4", "--k", "10",
                     "--pool-size", "2", "--seed", "1"])
        assert code == 0
        assert "drift report: 4 slides" in capsys.readouterr().out

    def test_json_telemetry(self, trace, tmp_path, capsys):
        import json

        out = tmp_path / "telemetry.json"
        code = main(["stream", "--input", str(trace), "--minsup", "2",
                     "--window", "8", "--batch-size", "4", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["slides"]) == 5
        assert payload["slides"][0]["index"] == 0
        assert "drift report" in payload["summary"]

    def test_empty_stream_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.dat"
        empty.write_text("")
        code = main(["stream", "--input", str(empty), "--minsup", "2",
                     "--window", "4"])
        assert code == 2

    def test_input_and_drift_exclusive(self, trace):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--input", str(trace), "--drift",
                 "--minsup", "2", "--window", "4"]
            )

    def test_misplaced_source_flags_rejected(self, trace, capsys):
        code = main(["stream", "--input", str(trace), "--minsup", "2",
                     "--window", "8", "--batches", "3"])
        assert code == 2
        assert "--drift" in capsys.readouterr().err
        code = main(["stream", "--drift", "--minsup", "2", "--window", "8",
                     "--transactions", "10"])
        assert code == 2
        assert "--input" in capsys.readouterr().err


class TestExperimentCommand:
    def test_fig6_small_runs(self, capsys, monkeypatch):
        # Patch the registry to a fast config so the CLI path stays quick.
        from repro.experiments import fig6_diag_runtime
        from repro.experiments import registry as registry_module

        spec = registry_module.REGISTRY["fig6"]
        fast = registry_module.ExperimentSpec(
            spec.experiment_id, spec.paper_artifact, spec.description,
            lambda: fig6_diag_runtime.run(
                fig6_diag_runtime.Fig6Config(
                    baseline_sizes=(6,), fusion_sizes=(6,), baseline_timeout=10.0
                )
            ),
        )
        monkeypatch.setitem(registry_module.REGISTRY, "fig6", fast)
        assert main(["experiment", "fig6"]) == 0
        assert "fig6" in capsys.readouterr().out

    def test_experiment_jobs_flag(self, capsys, monkeypatch):
        from repro.experiments import fig6_diag_runtime
        from repro.experiments import registry as registry_module

        config = fig6_diag_runtime.Fig6Config(
            baseline_sizes=(6,), fusion_sizes=(6,), baseline_timeout=10.0
        )
        spec = registry_module.REGISTRY["fig6"]
        fast = registry_module.ExperimentSpec(
            spec.experiment_id, spec.paper_artifact, spec.description,
            lambda: fig6_diag_runtime.run(config),
            run_parallel=lambda jobs: fig6_diag_runtime.run(config, jobs=jobs),
        )
        monkeypatch.setitem(registry_module.REGISTRY, "fig6", fast)
        assert main(["experiment", "fig6", "--jobs", "2"]) == 0
        assert "2 worker processes" in capsys.readouterr().out


class TestMinersListing:
    def test_table_lists_every_registered_miner(self, capsys):
        from repro.api import miner_names

        assert main(["miners"]) == 0
        out = capsys.readouterr().out
        for name in miner_names():
            assert name in out
        assert "CAPABILITIES" in out
        assert "colossal" in out

    def test_json_listing_carries_schemas(self, capsys):
        import json

        assert main(["miners", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in listing}
        assert "eclat" in by_name
        assert by_name["eclat"]["capabilities"] == ["complete"]
        assert "minsup" in by_name["eclat"]["config"]
        assert by_name["pattern_fusion"]["config"]["jobs"]["default"] == 1
        assert "streaming" in by_name["stream_fusion"]["capabilities"]


class TestMinerFlag:
    def test_unknown_miner_is_a_crisp_error(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--miner", "sphinx"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown miner 'sphinx'" in err
        assert "eclat" in err  # the message lists the registered names

    def test_unknown_set_key_is_a_crisp_error(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--miner", "eclat", "--set", "no_such_knob=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no_such_knob" in err
        assert "max_size" in err  # and names the valid knobs

    def test_malformed_set_pair_is_a_crisp_error(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--miner", "eclat", "--set", "minsup"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_invalid_knob_value_is_a_crisp_error(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--miner", "pattern_fusion", "--set", "tau=7"])
        assert code == 2
        assert "tau" in capsys.readouterr().err

    def test_missing_minsup_is_a_crisp_error(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--miner", "eclat"])
        assert code == 2
        assert "requires --minsup" in capsys.readouterr().err

    def test_set_overrides_minsup_flag(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--miner", "eclat",
                     "--minsup", "1", "--set", "minsup=3"])
        assert code == 0
        assert "patterns at minsup 3" in capsys.readouterr().out

    def test_set_values_parse_as_json(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "1",
                     "--miner", "eclat", "--set", "max_size=2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "patterns at minsup 1" in out
        # a max_size cap of 2 must not print any size-3 pattern
        assert not any(line.startswith("  size   3") for line in out.splitlines())

    def test_topk_without_minsup(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--miner", "topk",
                     "--set", "k=2"])
        assert code == 0
        assert "topk: 2 patterns" in capsys.readouterr().out

    def test_fusion_miner_via_mine(self, dat_file, capsys):
        code = main(["mine", "--input", str(dat_file), "--minsup", "2",
                     "--miner", "pattern_fusion", "--set", "k=5",
                     "--set", "seed=0", "--set", "initial_pool_max_size=2"])
        assert code == 0
        assert "pattern-fusion:" in capsys.readouterr().out
