"""CLI tests for persistence: --out/--store, `repro store`, `repro serve`.

The acceptance path of the subsystem: a pool mined by ``repro mine --out``
(or ``--store``) reloads bit-identically and answers queries — through the
CLI — exactly like the in-memory result.
"""

import json

import pytest

from repro.cli import main
from repro.datasets import diag
from repro.mining import eclat
from repro.store import PatternStore, document_to_result, read_document
from tests.conftest import V1_EMPTY_RUN, V1_FUSION_RUN


def bits(patterns):
    return [(p.items, p.tidset) for p in patterns]


@pytest.fixture
def dat_file(tmp_path):
    path = tmp_path / "toy.dat"
    rows = ["0 1 4", "0 1", "1 2", "0 1 2", "0 2 3"]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestMineOut:
    def test_out_document_roundtrips_bit_identically(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["mine", "--dataset", "diag", "--n", "10", "--minsup", "4",
                     "--miner", "eclat", "--out", str(out)])
        assert code == 0
        expected = eclat(diag(10), minsup=4)
        assert f"wrote {len(expected)} patterns to {out}" in capsys.readouterr().out
        document = read_document(out)
        assert document["miner"] == "eclat"
        assert document["config"]["minsup"] == 4
        assert document["dataset"]["n_transactions"] == 10
        reloaded = document_to_result(document)
        assert bits(reloaded.patterns) == bits(expected.patterns)

    def test_fuse_out_and_store(self, tmp_path, capsys):
        out = tmp_path / "fuse.json"
        store_dir = tmp_path / "store"
        code = main(["fuse", "--dataset", "diag-plus", "--minsup", "20",
                     "--k", "10", "--pool-size", "2", "--seed", "0",
                     "--out", str(out), "--store", str(store_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "stored run " in printed
        run_id = printed.split("stored run ")[1].split()[0]
        document = read_document(out)
        assert document["miner"] == "pattern_fusion"
        stored = PatternStore(store_dir).load(run_id)
        assert bits(stored.patterns) == bits(document_to_result(document).patterns)

    def test_mine_store_feeds_cache(self, tmp_path, capsys):
        """A CLI-stored run is a warm cache entry for mine_cached."""
        from repro.store import mine_cached

        store_dir = tmp_path / "store"
        main(["mine", "--dataset", "diag", "--n", "10", "--minsup", "4",
              "--miner", "eclat", "--store", str(store_dir)])
        capsys.readouterr()
        outcome = mine_cached(PatternStore(store_dir), "eclat", diag(10), minsup=4)
        assert outcome.hit


class TestStoreCommands:
    @pytest.fixture
    def populated(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["fuse", "--dataset", "diag-plus", "--minsup", "20", "--k", "10",
              "--pool-size", "2", "--seed", "0", "--store", str(store_dir)])
        printed = capsys.readouterr().out
        run_id = printed.split("stored run ")[1].split()[0]
        return store_dir, run_id

    def test_ls(self, populated, capsys):
        store_dir, run_id = populated
        assert main(["store", "ls", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "pattern_fusion" in out

    def test_show(self, populated, capsys):
        store_dir, run_id = populated
        code = main(["store", "show", run_id, "--store", str(store_dir),
                     "--limit", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"run {run_id}" in out
        assert "size  39" in out

    def test_query_table_and_json_agree(self, populated, capsys):
        store_dir, run_id = populated
        code = main(["store", "query", "--store", str(store_dir),
                     "--run", run_id, "--min-size", "30"])
        assert code == 0
        table = capsys.readouterr().out
        assert "1 of 10 patterns" in table
        code = main(["store", "query", "--store", str(store_dir),
                     "--run", run_id, "--min-size", "30", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["patterns"][0]["size"] == 39
        # The stored pattern matches the in-memory mining result exactly.
        stored = PatternStore(store_dir).load(run_id)
        top = max(stored.patterns, key=lambda p: p.size)
        assert frozenset(payload["patterns"][0]["items"]) == top.items
        assert int(payload["patterns"][0]["tidset"], 16) == top.tidset

    def test_query_distance_ball(self, populated, capsys):
        store_dir, run_id = populated
        stored = PatternStore(store_dir).load(run_id)
        anchor = max(stored.patterns, key=lambda p: p.size)
        center = " ".join(str(i) for i in anchor.sorted_items())
        code = main(["store", "query", "--store", str(store_dir),
                     "--run", run_id, "--center", center, "--radius", "0.0"])
        assert code == 0
        assert "1 of 10 patterns" in capsys.readouterr().out

    def test_query_center_without_radius_errors(self, populated, capsys):
        store_dir, run_id = populated
        code = main(["store", "query", "--store", str(store_dir),
                     "--run", run_id, "--center", "1 2"])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_ls_json_reports_format_and_bytes(self, populated, capsys):
        store_dir, run_id = populated
        assert main(["store", "ls", "--store", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["runs"]
        assert record["run_id"] == run_id
        assert record["format"] == "binary"
        assert record["format_version"] == 1
        assert record["files"]["patterns.bin"] > 0
        assert record["bytes"] == sum(record["files"].values())

    def test_ls_json_v1_only_run(self, v1_store, capsys):
        main(["store", "ls", "--store", str(v1_store), "--json"])
        records = json.loads(capsys.readouterr().out)["runs"]
        assert {r["run_id"] for r in records} == {V1_FUSION_RUN, V1_EMPTY_RUN}
        for record in records:
            assert record["format"] == "unmigrated"
            assert list(record["files"]) == ["meta.json"]

    def test_migrate_is_idempotent_and_keeps_run_id(self, v1_store, capsys):
        assert main(["store", "verify", "--store", str(v1_store)]) == 1
        assert "repro store migrate" in capsys.readouterr().out
        assert main(["store", "migrate", "--store", str(v1_store)]) == 0
        out = capsys.readouterr().out
        assert f"migrated run {V1_FUSION_RUN}" in out
        assert "2 migrated" in out
        assert "run ids unchanged" in out
        bin_path = v1_store / "runs" / V1_FUSION_RUN / "patterns.bin"
        before = bin_path.read_bytes()
        # Second run: nothing left to do, same run id, nothing rewritten.
        assert main(["store", "migrate", "--store", str(v1_store)]) == 0
        assert "0 migrated" in capsys.readouterr().out
        assert bin_path.read_bytes() == before
        stored = PatternStore(v1_store).load(V1_FUSION_RUN)
        assert stored.run_id == V1_FUSION_RUN
        assert main(["store", "verify", "--store", str(v1_store)]) == 0

    def test_migrate_single_run_and_unknown_run(self, v1_store, capsys):
        code = main(["store", "migrate", "--store", str(v1_store),
                     "--run", V1_FUSION_RUN])
        assert code == 0
        assert "1 migrated" in capsys.readouterr().out
        assert (v1_store / "runs" / V1_FUSION_RUN / "patterns.bin").exists()
        assert not (v1_store / "runs" / V1_EMPTY_RUN / "patterns.bin").exists()
        code = main(["store", "migrate", "--store", str(v1_store),
                     "--run", "feedc0de"])
        assert code == 2
        assert "no run" in capsys.readouterr().err

    def test_unknown_run_exits_2(self, populated, capsys):
        store_dir, _ = populated
        code = main(["store", "show", "feedc0de", "--store", str(store_dir)])
        assert code == 2
        assert "no run" in capsys.readouterr().err

    def test_not_a_store_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        code = main(["store", "ls", "--store", str(missing)])
        assert code == 2
        assert "not a pattern store" in capsys.readouterr().err


class TestStreamStore:
    def test_stream_persists_slides_and_final_pool(self, tmp_path, capsys,
                                                   dat_file):
        store_dir = tmp_path / "store"
        code = main(["stream", "--input", str(dat_file), "--minsup", "2",
                     "--window", "4", "--batch-size", "2", "--k", "5",
                     "--pool-size", "2", "--seed", "0",
                     "--store", str(store_dir), "--stream-name", "toy"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "appended 3 slides to stream 'toy'" in printed
        store = PatternStore(store_dir)
        slides = store.read_slides("toy")
        assert [s["index"] for s in slides] == [0, 1, 2]
        from repro.streaming import DriftReport

        report = DriftReport.from_dicts(slides)
        assert len(report) == 3
        assert report.last.window_size == 4
        run_id = printed.split("stored final pool as run ")[1].split()[0]
        assert store.load(run_id).miner == "stream_fusion"


class TestServeParser:
    def test_serve_requires_store(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--store", "runs/"])
        assert args.port == 8753
        assert args.cache_size == 256
        assert not args.no_mine
        assert args.workers == 0  # one in-process worker by default
        assert args.queue_depth == 64
        assert args.threads == 8

    def test_prefork_knobs_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--store", "runs/", "--workers", "4",
             "--queue-depth", "16", "--threads", "2"]
        )
        assert (args.workers, args.queue_depth, args.threads) == (4, 16, 2)
