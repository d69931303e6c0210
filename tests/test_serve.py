"""HTTP smoke tests: a live PatternServer thread answering real requests.

Each test drives the stdlib client against an ephemeral-port server over a
store seeded with one Pattern-Fusion run — covering every route, the query
LRU, warm /mine cache hits, and the error paths (404/400/403).
"""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.datasets import diag_plus
from repro.serve import PatternServer
from repro.serve.app import MAX_BODY_BYTES
from repro.store import PatternStore, mine_cached
from tests.conftest import V1_FUSION_RUN


def get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def error_of(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    return excinfo.value.code, json.loads(excinfo.value.read())["error"]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    store = PatternStore(tmp_path_factory.mktemp("serve") / "store")
    outcome = mine_cached(
        store, "pattern_fusion", diag_plus(),
        minsup=20, k=10, initial_pool_max_size=2, seed=0,
    )
    store.append_slides("smoke", [{"index": 0}])
    with PatternServer(store, port=0, cache_size=32) as server:
        yield server, store, outcome


class TestRoutes:
    def test_health(self, served):
        server, store, _ = served
        payload = get(server.url + "/health")
        assert payload["status"] == "ok"
        assert payload["runs"] == len(store)
        assert payload["streams"] == ["smoke"]
        assert payload["mine_enabled"] is True

    def test_miners_lists_registry(self, served):
        server, _, _ = served
        names = {m["name"] for m in get(server.url + "/miners")}
        assert {"eclat", "pattern_fusion", "stream_fusion"} <= names

    def test_runs_listing(self, served):
        server, _, outcome = served
        runs = get(server.url + "/runs")
        assert [r["run_id"] for r in runs] == [outcome.run_id]
        assert runs[0]["miner"] == "pattern_fusion"
        assert runs[0]["n_patterns"] == len(outcome.result)

    def test_run_detail_bit_identical(self, served):
        server, _, outcome = served
        detail = get(f"{server.url}/runs/{outcome.run_id}?limit=-1")
        wire = [
            (frozenset(r["items"]), int(r["tidset"], 16))
            for r in detail["patterns"]
        ]
        assert wire == [(p.items, p.tidset) for p in outcome.result.patterns]

    def test_run_detail_limit(self, served):
        server, _, outcome = served
        detail = get(f"{server.url}/runs/{outcome.run_id}?limit=2")
        assert detail["patterns_shown"] == 2
        assert len(detail["patterns"]) == 2

    def test_query_matches_local_evaluation(self, served):
        server, _, outcome = served
        body = {
            "run": outcome.run_id,
            "query": {"min_size": 10, "top": 3},
        }
        payload = post(server.url + "/query", body)
        from repro.store import Query

        local = Query.from_dict(body["query"]).evaluate(outcome.result.patterns)
        assert payload["count"] == len(local)
        assert [frozenset(r["items"]) for r in payload["patterns"]] == [
            p.items for p in local
        ]

    def test_query_cache_hits_on_repeat(self, served):
        server, _, outcome = served
        body = {"run": outcome.run_id, "query": {"min_support": 20, "top": 2}}
        first = post(server.url + "/query", body)
        hits_before = server.query_cache.hits
        second = post(server.url + "/query", body)
        assert second == first
        assert server.query_cache.hits == hits_before + 1

    def test_mine_warm_hit_same_run(self, served):
        server, _, _ = served
        body = {
            "dataset": "diag", "n": 10,
            "miner": "eclat", "config": {"minsup": 5, "max_size": 2},
        }
        cold = post(server.url + "/mine", body)
        warm = post(server.url + "/mine", body)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["run"] == cold["run"]
        assert warm["count"] == cold["count"]


class TestErrors:
    def test_unknown_route_404(self, served):
        server, _, _ = served
        code, message = error_of(lambda: get(server.url + "/nope"))
        assert code == 404 and "no route" in message

    def test_unknown_run_404(self, served):
        server, _, _ = served
        code, message = error_of(lambda: get(server.url + "/runs/deadbeef"))
        assert code == 404 and "no run" in message

    def test_bad_query_key_400(self, served):
        server, _, outcome = served
        code, message = error_of(lambda: post(
            server.url + "/query",
            {"run": outcome.run_id, "query": {"bogus": 1}},
        ))
        assert code == 400 and "bogus" in message

    def test_unknown_miner_400(self, served):
        server, _, _ = served
        code, message = error_of(lambda: post(
            server.url + "/mine", {"dataset": "diag", "miner": "nope"},
        ))
        assert code == 400 and "unknown miner" in message

    def test_removed_backend_knob_400(self, served):
        server, _, _ = served
        code, message = error_of(lambda: post(
            server.url + "/mine",
            {"dataset": "diag", "miner": "pattern_fusion",
             "config": {"minsup": 5, "backend": "numpy"}},
        ))
        assert code == 400 and "unknown config key(s) backend" in message

    def test_non_integer_limit_400(self, served):
        server, _, _ = served
        code, message = error_of(lambda: post(
            server.url + "/mine",
            {"dataset": "diag", "miner": "eclat",
             "config": {"minsup": 5}, "limit": "10"},
        ))
        assert code == 400 and "limit" in message

    def test_invalid_json_400(self, served):
        server, _, _ = served
        request = urllib.request.Request(
            server.url + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        code, _ = error_of(lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400

    def test_deleted_run_under_warm_cache_404_not_500(self, tmp_path):
        """A cached run deleted on disk answers 404 and drops the entry."""
        store = PatternStore(tmp_path / "store")
        outcome = mine_cached(
            store, "pattern_fusion", diag_plus(),
            minsup=20, k=10, initial_pool_max_size=2, seed=0,
        )
        with PatternServer(store, port=0) as server:
            detail_url = f"{server.url}/runs/{outcome.run_id}"
            assert get(detail_url)["run_id"] == outcome.run_id  # cache warmed
            store.delete(outcome.run_id)
            code, message = error_of(lambda: get(detail_url))
            assert code == 404 and "deleted" in message
            # The stale entry is gone, not shadowing future answers.
            assert outcome.run_id not in server.run_cache
            code, _ = error_of(lambda: get(detail_url))
            assert code == 404

    def test_partially_deleted_run_404_not_500(self, v1_store):
        """meta.json present but no patterns.bin (an unmigrated run): 404."""
        with PatternServer(PatternStore(v1_store), port=0) as server:
            code, message = error_of(
                lambda: get(f"{server.url}/runs/{V1_FUSION_RUN}")
            )
            assert code == 404 and "missing its payload" in message
            assert "repro store migrate" in message
            code, _ = error_of(lambda: post(
                server.url + "/query", {"run": V1_FUSION_RUN, "query": {}},
            ))
            assert code == 404

    def test_mine_disabled_403(self, tmp_path):
        store = PatternStore(tmp_path / "store")
        with PatternServer(store, port=0, allow_mine=False) as server:
            assert get(server.url + "/health")["mine_enabled"] is False
            code, message = error_of(lambda: post(
                server.url + "/mine", {"dataset": "diag", "miner": "eclat"},
            ))
        assert code == 403 and "disabled" in message


class TestContentLength:
    """Bad or oversized bodies get a 4xx: no traceback, no blocked handler.

    Threaded and pre-forked serving share one request handler, so these
    cases cover both tiers.
    """

    @pytest.mark.parametrize("value, status", [
        ("abc", 400), ("-1", 400), ("1e3", 400), (MAX_BODY_BYTES + 1, 413),
    ])
    def test_refused_unread(self, served, capsys, value, status):
        server, _, _ = served
        request = f"POST /query HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
        # Read until the server closes: a blocked handler fails on the timeout.
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(request.encode())
            response = b"".join(iter(lambda: sock.recv(65536), b""))
        head, _, body = response.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == status
        message = json.loads(body)["error"]
        assert ("Content-Length" if status == 400 else "limit") in message
        assert "Exception occurred during processing" not in capsys.readouterr().err
        assert get(server.url + "/health")["status"] == "ok"


def get_raw(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestObservability:
    def test_metrics_endpoint_renders_prometheus_text(self, served):
        server, _, _ = served
        get(server.url + "/health")  # guarantee at least one counted request
        status, headers, text = get_raw(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{method="GET",route="/health",status="200"}' in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_request_seconds_bucket{route="/health",le="+Inf"}' in text

    def test_fusion_phase_metrics_visible_in_scrape(self, served):
        # The module fixture mined a pattern_fusion run in this process, so
        # the fusion-phase counters must be populated in the scrape.
        server, _, _ = served
        _, _, text = get_raw(server.url + "/metrics")
        assert "repro_fusion_rounds_total" in text
        assert "repro_mine_cached_total" in text
        assert "repro_store_saves_total" in text

    def test_request_counter_increments_per_scrape(self, served):
        server, _, _ = served
        series = 'repro_http_requests_total{method="GET",route="/health",status="200"}'

        def health_count():
            _, _, text = get_raw(server.url + "/metrics")
            line = next(l for l in text.splitlines() if l.startswith(series))
            return int(line.rsplit(" ", 1)[1])

        before = health_count()
        get(server.url + "/health")
        assert health_count() == before + 1

    def test_run_detail_routes_share_one_metric_label(self, served):
        server, _, outcome = served
        get(f"{server.url}/runs/{outcome.run_id}")
        _, _, text = get_raw(server.url + "/metrics")
        # Cardinality bound: per-run paths collapse to the /runs/{id} label.
        assert 'route="/runs/{id}"' in text
        assert outcome.run_id not in text

    def test_request_id_generated_when_absent(self, served):
        server, _, _ = served
        _, headers, _ = get_raw(server.url + "/health")
        assert headers.get("X-Request-Id")

    def test_request_id_echoed_when_sent(self, served):
        server, _, _ = served
        _, headers, _ = get_raw(
            server.url + "/health", headers={"X-Request-Id": "req-abc-123"}
        )
        assert headers["X-Request-Id"] == "req-abc-123"

    def test_access_log_record_is_structured(self, served):
        import logging

        server, _, _ = served
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger = logging.getLogger("repro.serve.access")
        handler = Capture(level=logging.INFO)
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            get_raw(server.url + "/health", headers={"X-Request-Id": "log-probe"})
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        record = next(r for r in records if r.request_id == "log-probe")
        assert record.method == "GET"
        assert record.route == "/health"
        assert record.status == 200
        assert record.duration_ms >= 0
