"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check the benchmark's own machinery on small inputs: the wrappers
restore what they replace, tracing leaves mined pools unchanged, the
checkers catch wrong answers, and every metric the benchmark computes is
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402
import workloads  # noqa: E402
from repro.core import PatternFusion, PatternFusionConfig  # noqa: E402
from repro.datasets.diag import diag_plus  # noqa: E402
from repro.engine import make_executor, parallel_pattern_fusion  # noqa: E402
from repro.mining.results import Pattern, make_pattern  # noqa: E402
from repro.store import InvertedItemIndex  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MINSUP = 20
CONFIG = PatternFusionConfig(k=10, tau=0.5, initial_pool_max_size=2, seed=3)


def _attribute(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def _pool(result) -> list[tuple]:
    return [(p.items, p.tidset) for p in result.patterns]


def test_wrappers_restore_the_originals():
    tracer = layers.Tracer()
    originals = [
        (owner, name, _attribute(owner, name))
        for owner, name, _, _ in tracer.targets()
    ]
    with tracer.installed():
        for owner, name, original in originals:
            assert _attribute(owner, name) is not original, name
    for owner, name, original in originals:
        assert _attribute(owner, name) is original, name


def test_traced_and_untraced_serial_runs_mine_identical_pools():
    db = diag_plus()
    plain = PatternFusion(db, MINSUP, CONFIG).run()
    tracer = layers.Tracer()
    tracer.minsup = MINSUP
    with tracer.installed():
        traced = PatternFusion(db, MINSUP, CONFIG).run()
    assert _pool(traced) == _pool(plain)
    spent = layers.self_times(tracer.spans)
    for layer in ("mining.phase1", "core.ball_query", "core.fuse", "db.closure"):
        assert spent.get(layer, 0.0) > 0.0, layer
    assert tracer.counts["core.ball_members"] > 0


def test_traced_and_untraced_engine_runs_mine_identical_pools():
    db = diag_plus()
    with make_executor(2) as executor:
        plain = parallel_pattern_fusion(db, MINSUP, CONFIG, executor=executor)
        tracer = layers.Tracer()
        workers = layers.WorkerSpans()
        with tracer.installed(), workers.collecting():
            traced = parallel_pattern_fusion(db, MINSUP, CONFIG, executor=executor)
    assert _pool(traced) == _pool(plain)
    assert layers.self_times(tracer.spans).get("engine.map", 0.0) > 0.0
    assert workers.busy_s() > 0.0


def test_self_time_excludes_child_spans():
    spans = [
        (1, None, "core.fuse", 0.0, 10.0),
        (2, 1, "kernels.matrix_build", 1.0, 3.0),
        (3, 1, "db.closure", 4.0, 5.0),
        (4, None, "core.ball_query", 10.0, 12.0),
    ]
    assert layers.self_times(spans) == {
        "core.fuse": 7.0,
        "kernels.matrix_build": 2.0,
        "db.closure": 1.0,
        "core.ball_query": 2.0,
    }
    assert layers.root_time(spans) == 12.0


def test_checker_flags_a_sub_minsup_pattern():
    db = diag_plus()
    result = PatternFusion(db, MINSUP, CONFIG).run()
    assert checks.check_fusion(db, result, MINSUP, CONFIG.k) == []
    items = set()
    for item in range(db.n_items):
        if db.support(items | {item}) == 0:
            continue
        items.add(item)
        if db.support(items) < MINSUP:
            break
    rare = make_pattern(db, items)
    assert 0 < rare.support < MINSUP
    result.patterns[0] = rare
    assert checks.check_fusion(db, result, MINSUP, CONFIG.k)


def test_checker_flags_a_wrong_tidset_and_an_oversized_pool():
    db = diag_plus()
    result = PatternFusion(db, MINSUP, CONFIG).run()
    first = result.patterns[0]
    result.patterns[0] = Pattern(items=first.items, tidset=first.tidset & ~1 | 2)
    assert checks.check_fusion(db, result, MINSUP, CONFIG.k)
    assert checks.check_fusion(db, result, MINSUP, k=1)


def test_checker_flags_a_tampered_http_answer():
    db = diag_plus()
    patterns = PatternFusion(db, MINSUP, CONFIG).run().patterns
    runs = {"r": (patterns, InvertedItemIndex(patterns))}
    requests = [
        {"kind": "run", "run": "r", "limit": 5},
        {"kind": "index", "run": "r", "query": {"min_size": 2, "top": 5}},
        {"kind": "ball", "run": "r",
         "query": {"center": sorted(patterns[0].items), "radius": 0.3}},
    ]
    for request in requests:
        body = {"patterns": checks.expected_answer(request, runs)}
        assert body["patterns"], request
        assert checks.check_answer(request, 200, body, runs) == []
        assert checks.check_answer(request, 503, body, runs)
        tampered = json.loads(json.dumps(body))
        tampered["patterns"][0]["tidset"] = "1"
        assert checks.check_answer(request, 200, tampered, runs)
        assert checks.check_answer(request, 200, {"patterns": body["patterns"][1:]}, runs)


def test_reload_checks_catch_any_changed_bit():
    db = diag_plus()
    patterns = PatternFusion(db, MINSUP, CONFIG).run().patterns
    assert checks.check_reload(patterns, list(patterns)) == []
    assert checks.check_reload(patterns, patterns[::-1])
    assert checks.check_matrix(patterns, [p.tidset for p in patterns]) == []
    assert checks.check_matrix(patterns, [p.tidset ^ 4 for p in patterns])


def test_request_mix_is_seeded_and_stratified():
    db = diag_plus()
    patterns = PatternFusion(db, MINSUP, CONFIG).run().patterns
    runs = {"big": patterns, "small": patterns[:3]}
    draw = lambda seed: traffic.make_requests(
        random.Random(seed), 40, runs, "big", MINSUP, db.n_items
    )
    assert draw(1) == draw(1)
    assert draw(1) != draw(2)
    kinds = [request["kind"] for request in draw(1)]
    assert kinds.count("run") == 20 and kinds.count("ball") == 6


def test_every_end_to_end_metric_is_declared():
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert run.END_TO_END == declared


def test_every_per_layer_metric_is_declared():
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    tracer = layers.Tracer()
    fusion = workloads.per_layer(
        tracer, layers.WorkerSpans(), dict.fromkeys(layers.counter_totals(), 0.0),
        iterations=1, wall_s=1.0,
    )
    exposition = 'repro_http_request_seconds_count{route="/query",worker="0"} 1\n'
    outcomes = [
        {"due": 0.0, "sent": 0.0, "done": 0.01 * i, "status": 200} for i in range(1, 9)
    ]
    serving = workloads.serve_layers("", exposition, outcomes, [200], 10.0, 0.5)
    # Set directly by the workloads' measure methods.
    extra = {"core.approx_error", "trace.overhead_s", "store.bytes_written"}
    produced = set(fusion) | set(serving) | extra
    assert produced <= declared
    assert declared <= produced


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_is_declared(name):
    assert name in {workload["name"] for workload in BENCHMARK["workloads"]}


def test_histogram_mean_sums_workers_between_scrapes():
    before = (
        'repro_http_request_seconds_sum{route="/query",worker="0"} 1.0\n'
        'repro_http_request_seconds_count{route="/query",worker="0"} 2\n'
    )
    after = (
        'repro_http_request_seconds_sum{route="/query",worker="0"} 2.0\n'
        'repro_http_request_seconds_count{route="/query",worker="0"} 4\n'
        'repro_http_request_seconds_sum{route="/query",worker="1"} 3.0\n'
        'repro_http_request_seconds_count{route="/query",worker="1"} 4\n'
        'repro_http_request_seconds_sum{route="/runs/{id}",worker="1"} 9.0\n'
        'repro_http_request_seconds_count{route="/runs/{id}",worker="1"} 1\n'
    )
    mean = traffic.histogram_mean(
        before, after, "repro_http_request_seconds", route="/query"
    )
    assert mean == pytest.approx(4.0 / 6)
