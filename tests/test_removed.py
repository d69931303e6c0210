"""Removed names fail cleanly at every entry point; stored runs still read.

The ``apriori``, ``fpgrowth``, ``aclose`` and ``carpenter`` miners returned
the sets that ``eclat`` and ``closed`` return, and the ``--shards`` support
audit recounted what ``db.support`` gives; all are gone.  A caller that
still names one gets the registry's ``unknown miner`` error (exit 2 on the
CLI, 400 over HTTP), never a traceback.  The store never consults the
registry, so runs saved under a removed name stay listable and queryable.

The same holds for the three ball-index knobs of ``pattern_fusion``
(``use_ball_index``, ``ball_index_min_pool``, ``ball_index_pivots``),
which changed neither pools nor work: naming one is an unknown config key.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import create_miner
from repro.cli import main
from repro.db import TransactionDatabase
from repro.mining import eclat
from repro.serve import PatternServer
from repro.store import PatternStore

REMOVED_MINERS = ["apriori", "fpgrowth", "aclose", "carpenter"]


@pytest.fixture
def dat_file(tmp_path):
    path = tmp_path / "toy.dat"
    path.write_text("0 1 4\n0 1\n1 2\n0 1 2\n0 2 3\n")
    return path


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = PatternStore(tmp_path_factory.mktemp("removed") / "store")
    with PatternServer(store, port=0) as running:
        yield running


def post_status(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.mark.parametrize("name", REMOVED_MINERS)
def test_removed_miner_fails_cleanly(name, dat_file, server, capsys):
    with pytest.raises(ValueError, match="registered miners: .*eclat"):
        create_miner(name, minsup=2)

    base = ["mine", "--input", str(dat_file), "--minsup", "2"]
    assert main([*base, "--miner", name]) == 2
    assert f"unknown miner {name!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main([*base, "--algorithm", name])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err

    status, body = post_status(
        server.url + "/mine",
        {"dataset": "diag", "miner": name, "config": {"minsup": 5}},
    )
    assert status == 400 and "unknown miner" in body["error"]


@pytest.mark.parametrize(
    "knob", ["use_ball_index", "ball_index_min_pool", "ball_index_pivots"]
)
def test_removed_knob_is_an_unknown_key(knob, dat_file, server, capsys):
    base = ["mine", "--input", str(dat_file), "--minsup", "2"]
    assert main([*base, "--miner", "pattern_fusion", "--set", f"{knob}=1"]) == 2
    assert f"unknown config key(s) {knob}" in capsys.readouterr().err

    status, body = post_status(
        server.url + "/mine",
        {"dataset": "diag", "miner": "pattern_fusion",
         "config": {"minsup": 5, knob: 1}},
    )
    assert status == 400 and "unknown config key" in body["error"]


@pytest.mark.parametrize("command, flag", [
    ("mine", "--shards"), ("fuse", "--shards"),
    # Miners with a jobs knob take ``--set jobs=N``; ``mine`` has no --jobs.
    ("mine", "--jobs"),
])
def test_removed_flag_is_an_argparse_error(command, flag, dat_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--input", str(dat_file), "--minsup", "2", flag, "2"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_run_stored_under_removed_miner_still_reads(tmp_path, capsys):
    db = TransactionDatabase(
        [[0, 1, 4], [0, 1], [1, 2], [0, 1, 2], [0, 2, 3]], n_items=5
    )
    store_dir = tmp_path / "store"
    run_id = PatternStore(store_dir).save(
        eclat(db, 2), db=db, miner="apriori",
        config={"minsup": 2, "max_size": None},
    )
    store = ["--store", str(store_dir)]

    assert main(["store", "ls", *store, "--json"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [(r["run_id"], r["miner"]) for r in runs] == [(run_id, "apriori")]

    assert main(["store", "show", *store, run_id]) == 0
    assert "apriori" in capsys.readouterr().out

    assert main(["store", "query", *store, "--run", run_id,
                 "--superset-of", "0 1", "--json"]) == 0
    matches = json.loads(capsys.readouterr().out)
    assert [sorted(m["items"]) for m in matches["patterns"]] == [[0, 1]]
