"""One process doing a workload's timed library calls.

``run.py`` starts it as ``python3 perfbench/worker.py KIND JOB.json``
with the program's ``src`` on ``PYTHONPATH``.  The worker imports the
program, makes one warm-up call, and prints ``READY``: the end of the
set-up that ``run.py`` times from the spawn.  It then prints one
host-speed tick (``hostspeed.py``) for that set-up.  Only then does it read
its inputs from the job file; it writes its answers, timings and peak
memory to the job's ``out`` path and, in traced runs, its spans to the
job's ``spans`` path.

Kinds: ``exact`` and ``portfolio`` run the library workloads; ``replay``
feeds a serve-repeat stream through ``repro.solve(..., cache=...)`` in
process, so a traced run can time the cache layer from outside.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

import numpy as np

from corpus import table_from_hex
from hostspeed import tick
from tracing import Tracer, span_profiler, sweep_baseline


def warm_up(kind: str) -> None:
    import repro
    from repro.truth_table import TruthTable

    rng = np.random.default_rng(7)
    if kind == "portfolio":
        repro.solve(TruthTable(6, rng.integers(0, 2, 64)),
                    strategy="portfolio")
    else:
        repro.solve(TruthTable(8, rng.integers(0, 2, 256)))


def answer(solution: Any) -> Dict[str, Any]:
    row = {
        "order": [int(v) for v in solution.order],
        "mincost": int(solution.mincost),
        "size": int(solution.size),
        "counters": solution.counters.snapshot(),
    }
    if solution.strategy == "portfolio":
        row["winner"] = solution.rung
        row["members"] = {
            r.name: {"order": [int(v) for v in r.order], "size": int(r.size),
                     "evaluations": int(r.evaluations)}
            for r in solution.result.results
        }
    return row


def library_wraps(tracer: Tracer) -> None:
    import repro.core.fs
    import repro.core.fs_star
    import repro.portfolio

    for module in (repro.core.fs, repro.core.fs_star):
        tracer.wrap(module, "run_layered_sweep", "engine.sweep",
                    before=sweep_baseline)

    def member_result(span: Dict[str, Any], result: Any) -> None:
        span["attrs"].update(size=int(result.size),
                             evaluations=int(result.evaluations))

    tracer.wrap(repro.portfolio, "run_strategy",
                lambda args, kwargs: f"portfolio.{args[0]}",
                after=member_result)


def run_library(kind: str, job: Dict[str, Any]) -> Dict[str, Any]:
    import repro
    from repro.truth_table import TruthTable

    n = job["n"]
    tables = [TruthTable(n, table_from_hex(h, n)) for h in job["inputs"]]

    def call(table: Any, **kwargs: Any) -> Any:
        if kind == "portfolio":
            return repro.solve(table, strategy="portfolio",
                               seed=job["race_seed"], **kwargs)
        return repro.solve(table, **kwargs)

    tracer = Tracer()
    rows: List[Dict[str, Any]] = []
    for i, table in enumerate(tables):
        # Host-speed ticks bracket every call (see hostspeed.py).
        row: Dict[str, Any] = {"ticks": [tick()]}
        # Traced runs solve each input twice, alternating which pass goes
        # first, so host-speed drift cancels out of the overhead share.
        modes = [False]
        if job["trace"]:
            modes = [False, True] if i % 2 == 0 else [True, False]
        row["modes"] = ["traced" if traced else "untraced" for traced in modes]
        for traced in modes:
            if traced:
                profiler = span_profiler(tracer)
                with tracer.installed(library_wraps):
                    with tracer.span("api.solve", request=i) as root:
                        solution = call(table, profiler=profiler)
                row["traced_latency"] = root["end"] - root["start"]
                row["traced"] = answer(solution)
            else:
                started = time.perf_counter()
                solution = call(table)
                row["latency"] = time.perf_counter() - started
                row["answer"] = answer(solution)
                row["start"] = started
            row["ticks"].append(tick())
        rows.append(row)
    if job["trace"]:
        tracer.write(job["spans"])
    return {"rows": rows}


def replay_wraps(tracer: Tracer) -> None:
    import repro.core.fs

    fs = repro.core.fs
    tracer.wrap(fs, "table_key", "cache.canonicalize")

    def lookup_result(span: Dict[str, Any], result: Any) -> None:
        span["attrs"]["hit"] = result is not None

    tracer.wrap(fs, "lookup_ordering", "cache.lookup", after=lookup_result)
    tracer.wrap(fs, "store_ordering", "cache.store")
    tracer.wrap(fs, "run_layered_sweep", "engine.sweep",
                before=sweep_baseline)


def run_replay(job: Dict[str, Any]) -> Dict[str, Any]:
    """The serve-repeat traffic through the library's cache path, in the
    daemon's configuration (serial backend, ``jobs=1``, memory plus disk
    cache), one request after another."""
    import repro
    from repro.core.cache import ResultCache
    from repro.truth_table import TruthTable

    cache = ResultCache(directory=job["cache_dir"])
    tracer = Tracer()
    with tracer.installed(replay_wraps):
        for request_id, n, text in job["calls"]:
            table = TruthTable(n, table_from_hex(text, n))
            profiler = span_profiler(tracer)
            with tracer.span("api.solve", request=request_id):
                repro.solve(table, cache=cache, backend="serial",
                            profiler=profiler)
    tracer.write(job["spans"])
    stats = cache.stats
    return {"cache": {"hits": stats.hits, "misses": stats.misses,
                      "stores": stats.stores, "disk_hits": stats.disk_hits}}


def main(argv: List[str]) -> int:
    kind, job_path = argv[1], argv[2]
    # One CPU for every call and every tick, so each tick times the CPU
    # its solves ran on (the host's CPUs change speed independently).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    warm_up(kind)
    print("READY", flush=True)
    # The host's speed just after set-up, to scale the set-up time by.
    print(repr(tick()), flush=True)
    if len(argv) > 3 and argv[3] == "--setup-only":
        return 0
    with open(job_path) as handle:
        job = json.load(handle)
    if kind == "replay":
        result = run_replay(job)
    else:
        result = run_library(kind, job)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(job["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
