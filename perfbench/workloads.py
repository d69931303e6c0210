"""The benchmark's three workloads.

Each workload has a ``setup`` (repeated, its median is ``setup_s``), a
``teardown``, and a ``measure`` that runs for the requested seconds and
returns the end-to-end metrics and, when traced, the per-layer ones.
Dataset generators keep their paper-shaped seeds (ALL-sim 11, Replace-sim
7); fusion seeds, query draws and the arrival schedule derive from the
workload seed.

* ``all_sweep`` — Fig. 10's Pattern-Fusion column on ALL-sim, minsup 31,
  29 and 27 through the engine at ``jobs=2`` with one warm executor.  The
  phase-1 pool grows 6.5x across the points (26,695 to 173,746 patterns),
  so phase-1 mining, the ball index and ball queries carry real weight.
  The paper's sweep continues to 21 (331,830 patterns, 1.6 GB); the lower
  points are left out to keep one run within the time and memory budget.
* ``replace_fusion`` — one serial Pattern-Fusion call on Replace-sim
  (4,395-bit tidsets; K 100, τ 0.5, pool ≤ 3, Fig. 8's middle K).  It is
  bound by greedy fusion and never enters the engine.
* ``store_serve`` — the storage and serving layers, which the mining
  workloads never touch: save runs into fresh stores, then serve them with
  ``repro serve --workers 2`` under an open-loop request mix.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

from checks import Ledger, check_answer, check_fusion, check_matrix, check_reload
from layers import Tracer, WorkerSpans, counter_totals, root_time, self_times
import traffic

from repro.api import create_miner, get_miner_spec
from repro.core import PatternFusion, PatternFusionConfig
from repro.datasets.microarray import all_like
from repro.datasets.replace import replace_like
from repro.engine import make_executor
from repro.evaluation.approximation import approximation_error
from repro.mining.levelwise import mine_up_to_size
from repro.mining.results import make_pattern
from repro.store import InvertedItemIndex, PatternStore

#: Every run makes at least this many iterations, whatever ``--seconds``
#: says; the quality metrics average exactly these.
MIN_ITERATIONS = 3


def fusion_seed(seed: int, iteration: int, point: int = 0) -> int:
    """The Pattern-Fusion seed of one call, derived from the workload seed."""
    return random.Random(f"{seed}:{iteration}:{point}").randrange(1 << 31)


def per_layer(
    tracer: Tracer,
    workers: WorkerSpans | None,
    counters: dict[str, float],
    iterations: int,
    wall_s: float,
    jobs: int = 1,
) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of the traced iterations.

    Driver spans give self times; engine-worker spans add their own self
    times to the same layers.  ``other_s`` is the driver's wall time no
    wrapped layer covers, the benchmark's own counting excluded.
    """
    driver = self_times(tracer.spans)
    worker_spans = workers.spans() if workers is not None else []
    worker = self_times(worker_spans)
    calls = dict(tracer.calls)
    for span in worker_spans:
        calls[span[2]] = calls.get(span[2], 0) + 1

    def total(layer: str) -> float:
        return (driver.get(layer, 0.0) + worker.get(layer, 0.0)) / iterations

    def per_iteration(value: float) -> float:
        return value / iterations

    members = tracer.counts["core.ball_members"]
    fused = counters["core.fused"]
    map_s = driver.get("engine.map", 0.0)
    busy_s = workers.busy_s() if workers is not None else 0.0
    other = wall_s - root_time(tracer.spans) - tracer.bookkeeping_s
    return {
        "mining.phase1_s": total("mining.phase1"),
        "mining.pool_patterns": per_iteration(tracer.counts["mining.pool_patterns"]),
        "core.index_build_s": total("core.index_build"),
        "core.ball_query_s": total("core.ball_query"),
        "core.ball_queries": per_iteration(tracer.counts["core.ball_queries"]),
        "core.ball_members": per_iteration(members),
        "core.viable_ratio": (
            tracer.counts["core.viable_members"] / members if members else 0.0
        ),
        "core.fuse_s": total("core.fuse"),
        "core.fuse_calls": per_iteration(calls.get("core.fuse", 0)),
        "core.dedup_ratio": counters["core.dedup_dropped"] / fused if fused else 0.0,
        "core.rounds": per_iteration(counters["core.rounds"]),
        "core.seeds": per_iteration(counters["core.seeds"]),
        "kernels.matrix_build_s": total("kernels.matrix_build"),
        "kernels.matrix_builds": per_iteration(calls.get("kernels.matrix_build", 0)),
        "db.closure_s": total("db.closure"),
        "db.closure_calls": per_iteration(calls.get("db.closure", 0)),
        "engine.map_s": per_iteration(map_s),
        "engine.worker_busy_s": per_iteration(busy_s),
        "engine.busy_ratio": busy_s / (jobs * map_s) if map_s else 0.0,
        "engine.pool_warmups": per_iteration(counters["engine.pool_warmups"]),
        "engine.chunks": per_iteration(counters["engine.chunks"]),
        "store.save_s": total("store.save"),
        "store.load_s": total("store.load"),
        "store.open_s": total("store.open"),
        "other_s": per_iteration(other),
    }


def counter_delta(before: dict[str, float]) -> dict[str, float]:
    after = counter_totals()
    return {key: after[key] - before[key] for key in after}


class Workload:
    """What every workload keeps: its inputs, checks, notes and spans."""

    name = ""

    def __init__(self, seed: int, seconds: float, root: Path, work_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work_dir = work_dir
        self.ledger = Ledger()
        self.notes: dict[str, Any] = {}
        self.spans: list[tuple] = []


class FusionWorkload(Workload):
    """Shared loop of the two mining workloads: iterate, check, trace.

    Untraced, every iteration is timed and ``work_s`` is their mean: with
    three to four samples under host slow-downs that last tens of seconds,
    the mean varied less from run to run than the median or the minimum.
    ``recall`` averages the first :data:`MIN_ITERATIONS`, whose seeds are
    fixed, so it is exact for a given workload seed.
    """

    # Subclasses: setup(), teardown(state), calls(state, iteration) and
    # quality(state, results).

    def iteration(self, state: Any, index: int, tracer: Tracer | None = None):
        """One timed iteration: returns (seconds, [(minsup, result), ...])."""
        results = []
        start = time.perf_counter()
        for minsup, call in self.calls(state, index):
            if tracer is not None:
                tracer.minsup = minsup
            results.append((minsup, call()))
        elapsed = time.perf_counter() - start
        for minsup, result in results:
            self.ledger.record(
                f"{self.name} iteration {index} minsup {minsup}",
                check_fusion(state["db"], result, minsup, self.K),
            )
        return elapsed, results

    def measure(self, state: Any, traced: bool) -> tuple[dict, dict]:
        return self._traced(state) if traced else self._untraced(state)

    def _untraced(self, state: Any) -> tuple[dict, dict]:
        times: list[float] = []
        qualities: list[dict[str, float]] = []
        begin = time.perf_counter()
        # Stop before an iteration that would likely overrun the budget.
        while (
            len(times) < MIN_ITERATIONS
            or time.perf_counter() - begin + times[-1] <= self.seconds
        ):
            elapsed, results = self.iteration(state, len(times))
            if len(times) < MIN_ITERATIONS:
                qualities.append(self.quality(state, results))
            times.append(elapsed)
        self.notes["iteration_s"] = [round(s, 4) for s in times]
        recall = statistics.fmean(q["recall"] for q in qualities)
        return {"work_s": statistics.fmean(times), "recall": recall}, {}

    def _traced(self, state: Any) -> tuple[dict, dict]:
        """A warm-up, then pairs of traced and untraced iterations.

        Both iterations of a pair use the same seeds, so their pools must be
        identical; their times give the tracing overhead.
        """
        tracer = Tracer()
        workers = WorkerSpans() if self.JOBS > 1 else None
        counters = dict.fromkeys(counter_totals(), 0.0)
        begin = time.perf_counter()
        _, results = self.iteration(state, 0)
        errors = [self.quality(state, results)["approx_error"]]
        traced: list[float] = []
        untraced: list[float] = []
        while (
            not traced
            or time.perf_counter() - begin + traced[-1] + untraced[-1] <= self.seconds
        ):
            index = len(traced) + 1
            before = counter_totals()
            collecting = workers.collecting() if workers else contextlib.nullcontext()
            with tracer.installed(), collecting:
                traced_s, traced_results = self.iteration(state, index, tracer)
            for key, value in counter_delta(before).items():
                counters[key] += value
            untraced_s, results = self.iteration(state, index)
            self.ledger.record(
                f"{self.name} iteration {index} traced pools",
                [] if _pools(results) == _pools(traced_results)
                else ["traced run mined a different pool"],
            )
            errors.append(self.quality(state, results)["approx_error"])
            traced.append(traced_s)
            untraced.append(untraced_s)
        self.notes["traced_s"] = [round(s, 4) for s in traced]
        self.notes["untraced_s"] = [round(s, 4) for s in untraced]
        layers = per_layer(
            tracer, workers, counters, len(traced), sum(traced), self.JOBS
        )
        layers["core.approx_error"] = statistics.fmean(errors)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        self.spans = tracer.spans + (workers.spans() if workers else [])
        return {}, layers


def _pools(results: list) -> list[list[tuple]]:
    return [
        [(p.items, p.tidset) for p in result.patterns] for _, result in results
    ]


class AllSweep(FusionWorkload):
    name = "all_sweep"
    MINSUPS = (31, 29, 27)
    K = 100
    TAU = 0.97
    POOL = 2
    JOBS = 2

    def setup(self) -> dict[str, Any]:
        db, truth = all_like(seed=11)
        reference = [make_pattern(db, items) for items in truth.colossal]
        return {
            "db": db,
            "colossal": set(truth.colossal),
            "reference": reference,
            "executor": make_executor(self.JOBS),
        }

    def teardown(self, state: dict[str, Any]) -> None:
        state["executor"].close()

    def calls(self, state: dict[str, Any], index: int):
        spec = get_miner_spec("parallel_pattern_fusion")
        for point, minsup in enumerate(self.MINSUPS):
            miner = spec.cls(
                minsup=minsup, k=self.K, tau=self.TAU,
                initial_pool_max_size=self.POOL,
                seed=fusion_seed(self.seed, index, point),
                executor=state["executor"],
            )
            yield minsup, (lambda miner=miner: miner.fuse(state["db"]))

    def quality(self, state: dict[str, Any], results: list) -> dict[str, float]:
        """Fig. 9's 22 colossal patterns: share recovered, and Δ(AP_Q)."""
        colossal = state["colossal"]
        recall = [
            len(colossal & {p.items for p in result.patterns}) / len(colossal)
            for _, result in results
        ]
        errors = [
            approximation_error(result.patterns, state["reference"])
            for _, result in results
        ]
        return {"recall": statistics.fmean(recall), "approx_error": statistics.fmean(errors)}


class ReplaceFusion(FusionWorkload):
    name = "replace_fusion"
    JOBS = 1
    K = 100
    TAU = 0.5
    POOL = 3
    MIN_SIZE = 39

    def setup(self) -> dict[str, Any]:
        db, truth = replace_like(seed=7)
        complete = create_miner("closed", minsup=truth.minsup_absolute).mine(db)
        return {
            "db": db,
            "minsup": truth.minsup_absolute,
            "reference": complete.of_size_at_least(self.MIN_SIZE),
        }

    def teardown(self, state: dict[str, Any]) -> None:
        pass

    def calls(self, state: dict[str, Any], index: int):
        config = PatternFusionConfig(
            k=self.K, tau=self.TAU, initial_pool_max_size=self.POOL,
            seed=fusion_seed(self.seed, index),
        )
        runner = PatternFusion(state["db"], state["minsup"], config)
        yield state["minsup"], runner.run

    def quality(self, state: dict[str, Any], results: list) -> dict[str, float]:
        """Fig. 8's reference (closed patterns of size ≥ 39): share, Δ(AP_Q)."""
        reference = state["reference"]
        (_, result), = results
        mined = {p.items for p in result.patterns}
        return {
            "recall": sum(p.items in mined for p in reference) / len(reference),
            "approx_error": approximation_error(result.patterns, reference),
        }


class StoreServe(Workload):
    """Save runs into fresh stores, then serve them under an open loop.

    Set-up mines the Replace-sim phase-1 pool (the big run, 26,571
    patterns) and two K=100 fusion results (the small runs), saves them
    into a store and boots the server.  The write phase saves all runs into
    fresh stores again and checks each reload; the read phase sends
    :data:`RATE` requests per second for a share of ``--seconds``, then
    keeps two connections busy for another share.
    """

    name = "store_serve"
    #: Open-loop arrival rate, requests per second: about 40% of the
    #: 45-50 req/s the closed loop reaches on a 2-CPU host.  Faster rates
    #: queue behind ball queries on the two connections and make the
    #: open-loop latencies swing from seed to seed.
    RATE = 18.0
    #: Shares of ``--seconds`` spent in the open and the closed loop.
    OPEN_SHARE = 0.45
    CLOSED_SHARE = 0.3
    SAVES = 3
    #: Requests sent back to back before the measured loops.
    WARMUP = 40
    SMALL_RUNS = 2
    #: Ball answers re-computed in-process per run (each costs a full
    #: ball index over the big run); every other answer is checked.
    BALL_CHECKS = 8

    def __init__(self, seed: int, seconds: float, root: Path, work_dir: Path) -> None:
        super().__init__(seed, seconds, root, work_dir)
        self._stores = 0

    def _fresh_store(self) -> tuple[Path, PatternStore]:
        self._stores += 1
        path = self.work_dir / f"store{self._stores}"
        return path, PatternStore(path)

    def _save_all(
        self, store: PatternStore, state: dict[str, Any]
    ) -> tuple[dict[str, str], dict[str, float]]:
        """Save every run; returns the run ids and each save's seconds."""
        ids, seconds = {}, {}
        for name, (result, miner) in state["results"].items():
            start = time.perf_counter()
            ids[name] = store.save(result, db=state["db"], miner=miner)
            seconds[name] = time.perf_counter() - start
        return ids, seconds

    def setup(self) -> dict[str, Any]:
        db, truth = replace_like(seed=7)
        minsup = truth.minsup_absolute
        results = {"big": (mine_up_to_size(db, minsup, 3), "levelwise")}
        for index in range(self.SMALL_RUNS):
            config = PatternFusionConfig(
                k=100, tau=0.7, initial_pool_max_size=2,
                seed=fusion_seed(self.seed, index),
            )
            fused = PatternFusion(db, minsup, config).run()
            results[f"small{index}"] = (fused.as_mining_result(), "pattern_fusion")
        state = {"db": db, "minsup": minsup, "results": results}
        path, store = self._fresh_store()
        state["run_ids"], _ = self._save_all(store, state)
        state["store_path"] = path
        server = traffic.Server(
            self.root, path, traffic.server_env(self.root, self.work_dir)
        )
        try:
            server.wait_ready()
        except RuntimeError:
            server.stop()
            raise
        state["server"] = server
        return state

    def teardown(self, state: dict[str, Any]) -> None:
        state["server"].stop()
        shutil.rmtree(state["store_path"], ignore_errors=True)

    # ------------------------------------------------------------------

    def _write_rep(self, state: dict[str, Any]) -> float:
        """Save every run into a fresh store; returns the big run's save time."""
        path, store = self._fresh_store()
        saved, seconds = self._save_all(store, state)
        for name, run_id in saved.items():
            patterns = state["results"][name][0].patterns
            problems = check_reload(patterns, store.load(run_id).patterns)
            if name == "big":
                problems += check_matrix(patterns, store.open_matrix(run_id).matrix.rows())
            self.ledger.record(f"save {name}", problems)
        self.notes["store_bytes"] = store.run_info(saved["big"])["bytes"]
        shutil.rmtree(path, ignore_errors=True)
        return seconds["big"]

    def measure(self, state: dict[str, Any], traced: bool) -> tuple[dict, dict]:
        tracer = Tracer()
        saves: list[float] = []
        traced_saves: list[float] = []
        traced_wall = 0.0
        for _ in range(self.SAVES):
            saves.append(self._write_rep(state))
            if traced:
                start = time.perf_counter()
                with tracer.installed():
                    traced_saves.append(self._write_rep(state))
                traced_wall += time.perf_counter() - start
        read = self._read_phase(state)
        self.notes.update(
            saves_s=[round(s, 4) for s in saves], **read["notes"]
        )
        end_to_end = {"work_s": read["request_s"], "recall": read["agreement"]}
        layers: dict[str, float] = {}
        if traced:
            layers = per_layer(
                tracer, None, dict.fromkeys(counter_totals(), 0.0),
                len(traced_saves), traced_wall,
            )
            layers["store.bytes_written"] = float(self.notes["store_bytes"])
            layers["trace.overhead_s"] = (
                statistics.median(traced_saves) - statistics.median(saves)
            )
            layers.update(read["layers"])
            self.spans = tracer.spans
        return end_to_end, layers

    def _read_phase(self, state: dict[str, Any]) -> dict[str, Any]:
        server = state["server"]
        host, port = server.host, server.port
        runs = {
            run_id: state["results"][name][0].patterns
            for name, run_id in state["run_ids"].items()
        }
        indexed = {
            run_id: (patterns, InvertedItemIndex(patterns))
            for run_id, patterns in runs.items()
        }
        rng = random.Random(f"{self.seed}:requests")
        n_open = int(self.RATE * self.OPEN_SHARE * self.seconds)
        closed_s = self.CLOSED_SHARE * self.seconds
        make = lambda n: traffic.make_requests(
            rng, n, runs, state["run_ids"]["big"], state["minsup"],
            state["db"].n_items,
        )
        warmup_requests = make(self.WARMUP)
        open_requests = make(n_open)
        closed_requests = make(int(self.RATE * closed_s * 10))
        # A fresh server answers its first requests slower (first ball
        # index in each worker); those are not part of the measurement.
        _, _, warmup_outcomes = traffic.closed_loop(
            host, port, warmup_requests, float("inf")
        )
        before = traffic.scrape(host, port)
        outcomes = traffic.open_loop(host, port, open_requests, self.RATE)
        completed, closed_s, closed_outcomes = traffic.closed_loop(
            host, port, closed_requests, closed_s
        )
        hit_ratio = traffic.cache_hit_ratio(host, port)
        time.sleep(0.6)  # workers spool metric snapshots every ~0.5 s
        after = traffic.scrape(host, port)

        answers = [
            (warmup_requests[i], status, body) for i, status, body in warmup_outcomes
        ] + [
            (req, o["status"], o["body"]) for req, o in zip(open_requests, outcomes)
        ] + [
            (closed_requests[i], status, body) for i, status, body in closed_outcomes
        ]
        agreement = self._check_answers(answers, indexed)
        layers = serve_layers(
            before, after, outcomes, [s for _, s, _ in closed_outcomes],
            completed / closed_s, hit_ratio,
        )
        notes = {
            "open_loop_rate": self.RATE,
            "open_loop_requests": len(outcomes),
            "closed_loop_requests": completed,
            "query_p99_ms": round(layers["client.query_p99_ms"], 3),
            "query_rps": round(layers["client.query_rps"], 2),
        }
        return {
            "request_s": closed_s / completed,
            "agreement": agreement,
            "layers": layers,
            "notes": notes,
        }

    def _check_answers(self, answers: list, runs: dict) -> float:
        """Check every answer; re-compute a seeded sample of ball answers.

        Returns the share of checked answers equal to the library's.
        """
        rng = random.Random(f"{self.seed}:checks")
        balls = [i for i, (req, _, _) in enumerate(answers) if req["kind"] == "ball"]
        sampled = set(rng.sample(balls, min(self.BALL_CHECKS, len(balls))))
        checked = agreed = 0
        for index, (req, status, body) in enumerate(answers):
            if req["kind"] == "ball" and index not in sampled:
                problems = [] if status == 200 else [f"HTTP {status}"]
            else:
                problems = check_answer(req, status, body, runs)
                checked += 1
                agreed += not problems
            self.ledger.record(f"{req['kind']} request", problems)
        return agreed / checked if checked else 0.0


def serve_layers(
    before: str,
    after: str,
    outcomes: list[dict[str, Any]],
    closed_statuses: list[int],
    rps: float,
    hit_ratio: float,
) -> dict[str, float]:
    """Serving-tier metrics of one read phase.

    Handler time and queue wait are means of the server's own histograms
    between two ``/metrics`` scrapes; latencies come from the open loop's
    outcomes, timed from each request's due time.
    """
    latencies = [o["done"] - o["due"] for o in outcomes if o["status"] == 200]
    lateness = [o["sent"] - o["due"] for o in outcomes]
    statuses = [o["status"] for o in outcomes] + closed_statuses
    mean_ms = lambda name, **labels: 1000 * traffic.histogram_mean(
        before, after, name, **labels
    )
    return {
        "serve.handler_ms.runs": mean_ms("repro_http_request_seconds", route="/runs/{id}"),
        "serve.handler_ms.query": mean_ms("repro_http_request_seconds", route="/query"),
        "serve.queue_wait_ms": mean_ms("repro_serve_queue_wait_seconds"),
        "serve.rejected": float(statuses.count(503)),
        "serve.query_cache_hit_ratio": hit_ratio,
        "client.query_p50_ms": 1000 * statistics.median(latencies),
        "client.query_p99_ms": 1000 * statistics.quantiles(latencies, n=100)[98],
        "client.query_samples": float(len(latencies)),
        "client.query_rps": rps,
        "client.lateness_p99_ms": 1000 * statistics.quantiles(lateness, n=100)[98],
    }


WORKLOADS = {cls.name: cls for cls in (AllSweep, ReplaceFusion, StoreServe)}
