"""Paper-scale benchmark of the Pattern-Fusion system, split by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload all_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with wrappers around each layer's
public calls and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed check makes the exit code 1.

End-to-end metrics, on every workload:

* ``setup_s`` — a fresh interpreter importing the benchmark and the
  program, plus the workload's set-up (datasets, reference sets, store
  build and server boot to its first 200), each the median of three;
* ``work_s`` — wall time of the workload's unit of work: the mean of the
  run's 3-point sweeps (all_sweep) or Pattern-Fusion calls
  (replace_fusion); seconds per request with two connections kept busy
  (store_serve);
* ``peak_rss_mb`` — the larger of this process's and its largest child's
  peak resident set;
* ``recall`` — the share of expected results returned verbatim: Fig. 9's
  22 colossal patterns (all_sweep), Fig. 8's closed patterns of size ≥ 39
  (replace_fusion), checked HTTP answers equal to ``repro.store.run_query``
  over the same run (store_serve).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB", "recall": "ratio"}


def environment() -> dict:
    """What the numbers depend on; runs that differ here are not comparable."""
    from repro.kernels import backend

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels_backend": backend(),
        # The engine forks when it can (see repro.engine.executor).
        "start_method": "fork" if "fork" in methods else methods[0],
    }


def startup_s() -> float:
    """Median time a fresh interpreter takes to import the workloads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import workloads"], cwd=ROOT, env=env, check=True
        )
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024, child / 1024


def per_layer_units() -> dict[str, str]:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in document["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    imports_s = startup_s()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and of the server stay in the checkout.
    os.environ["TMPDIR"] = str(run_dir)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, ROOT, run_dir)
    state = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
            began = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - began)
        end_to_end, layers = workload.measure(state, traced=bool(args.trace))
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(run_dir, ignore_errors=True)

    end_to_end["setup_s"] = imports_s + statistics.median(setups)
    own_mb, child_mb = peak_rss_mb()
    end_to_end["peak_rss_mb"] = max(own_mb, child_mb)
    workload.notes.update(rss_own_mb=round(own_mb, 1), rss_child_mb=round(child_mb, 1))
    env = environment()
    ledger = workload.ledger
    if args.trace:
        units = per_layer_units()
        # A layer the workload never enters reads 0.
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        }
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"env": env, "spans": workload.spans}))
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"notes {json.dumps(workload.notes, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
