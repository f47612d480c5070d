"""Degradation ladder: exactness given up vs. latency bought.

Measured: (a) abort latency — how far past its deadline a governed
``run_fs`` runs before surfacing :class:`BudgetExceeded` (the promise is
"within one layer boundary", so the overshoot is bounded by the last
layer's cost, not by the total sweep); (b) the exact-vs-fallback size
gap — how much ordering quality each ladder rung gives up when the exact
DP's share of the deadline is exhausted, against the wall-clock it
saves.  Recorded to ``BENCH_degradation.json`` next to this file (the CI
uploads it as an artifact alongside the other BENCH files).
"""

import json
import pathlib
import time

from conftest import print_table

from repro.analysis.counters import OperationCounters
from repro.core import Budget, run_fs, run_ladder
from repro.errors import BudgetExceeded
from repro.truth_table import TruthTable, obdd_size


def test_degradation_artifact(benchmark):
    # -- (a) abort latency: governed runs stop near, not at, the deadline
    abort_rows = []
    # Each solve must overrun its deadline: n = 13 now takes about
    # 0.05 s, n = 14 about 0.13 s and n = 15 about 0.4 s.
    for n, deadline in [(14, 0.05), (15, 0.1), (16, 0.1)]:
        table = TruthTable.random(n, seed=n)
        counters = OperationCounters()
        started = time.perf_counter()
        try:
            run_fs(table, counters=counters, budget=Budget(deadline=deadline))
            raise AssertionError(f"n={n} finished inside {deadline}s")
        except BudgetExceeded as exc:
            elapsed = time.perf_counter() - started
            abort_rows.append({
                "n": n,
                "deadline_seconds": deadline,
                "elapsed_seconds": round(elapsed, 4),
                "overshoot_seconds": round(elapsed - deadline, 4),
                "layers_completed": exc.layers_completed,
            })
            assert counters.extra.get("budget_aborts") == 1
            # "within ~1 layer of the deadline": generous absolute bound,
            # far below the seconds a full n=16 sweep would take.
            assert elapsed < deadline + 2.0

    # -- (b) exact-vs-fallback gap under a deadline that forces the ladder
    gap_rows = []
    for n in (9, 10):
        table = TruthTable.random(n, seed=n)
        t0 = time.perf_counter()
        exact = run_fs(table)
        exact_seconds = time.perf_counter() - t0
        exact_size = exact.mincost + exact.num_terminals

        def degrade(table=table):
            return run_ladder(table, budget=Budget(deadline=0.02))

        fallback = benchmark.pedantic(degrade, rounds=1, iterations=1) \
            if n == 9 else degrade()
        t1 = time.perf_counter()
        governed_seconds = time.perf_counter() - t1 + sum(
            a.seconds for a in fallback.attempts)
        assert fallback.size == obdd_size(table, fallback.order)
        assert fallback.size >= exact_size  # exact is a true lower bound
        gap_rows.append({
            "n": n,
            "exact_size": exact_size,
            "exact_seconds": round(exact_seconds, 4),
            "fallback_size": fallback.size,
            "fallback_rung": fallback.rung,
            "fallback_exact": fallback.exact,
            "size_ratio": round(fallback.size / exact_size, 4),
            "ladder_seconds": round(
                sum(a.seconds for a in fallback.attempts), 4),
            "attempts": [
                {"rung": a.rung, "status": a.status,
                 "seconds": round(a.seconds, 4)}
                for a in fallback.attempts
            ],
        })

    record = {
        "benchmark": "degradation",
        "abort_latency": abort_rows,
        "exact_vs_fallback": gap_rows,
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_degradation.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    with open(out_path) as handle:
        assert json.load(handle)["benchmark"] == "degradation"

    print_table(
        "Abort latency (deadline -> BudgetExceeded)",
        ["n", "deadline s", "elapsed s", "overshoot s", "layers done"],
        [(r["n"], r["deadline_seconds"], r["elapsed_seconds"],
          r["overshoot_seconds"], r["layers_completed"])
         for r in abort_rows],
    )
    print_table(
        "Exact vs fallback (deadline 0.02s)",
        ["n", "exact", "exact s", "fallback", "rung", "ratio"],
        [(r["n"], r["exact_size"], f"{r['exact_seconds']:.3f}",
          r["fallback_size"], r["fallback_rung"], f"{r['size_ratio']:.2f}")
         for r in gap_rows],
    )
