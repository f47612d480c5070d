"""Daemon throughput: requests/sec through one warm pool + shared cache.

The ``repro serve`` daemon exists to amortize two costs across requests:
pool spin-up (paid once at startup instead of per invocation) and kernel
work (paid once per canonical function instead of per request).  This
benchmark measures both effects at n <= 10: a *cold* pass (every request
a distinct function — pure kernel throughput through the daemon) against
a *warm* pass (the same requests again — pure cache throughput), and
verifies every served answer bit-identically against direct
``repro.solve()`` calls.  Recorded to ``BENCH_serve_throughput.json``
next to this file (the CI uploads it as an artifact alongside the other
``BENCH_*.json`` files).
"""

import json
import pathlib
import time

from conftest import print_table

from repro import solve
from repro.serve import ServeClient, ServeConfig, running_server
from repro.truth_table import TruthTable


def _values_payload(table):
    return {
        "values": "".join(str(int(v)) for v in table.values),
        "n": table.n,
    }


def _run_pass(address, tables):
    with ServeClient(address, timeout=600) as client:
        start = time.perf_counter()
        results = [
            client.solve(method="fs", **_values_payload(table))
            for table in tables
        ]
        elapsed = time.perf_counter() - start
    return results, elapsed


def test_serve_throughput_artifact():
    sizes = (6, 8, 10)
    per_size = 4
    corpus = [
        TruthTable.random(n, seed=1000 * n + i)
        for n in sizes
        for i in range(per_size)
    ]
    reference = [solve(table) for table in corpus]

    config = ServeConfig(
        backend="serial", jobs=2, max_inflight=2, queue_limit=64
    )
    with running_server(config) as server:
        address = server.address
        cold_results, cold_seconds = _run_pass(address, corpus)
        warm_results, warm_seconds = _run_pass(address, corpus)
        with ServeClient(address) as client:
            metrics = client.metrics()

    # Every daemon answer is bit-identical to the direct library call.
    for expected, cold, warm in zip(reference, cold_results, warm_results):
        assert tuple(cold["order"]) == expected.order
        assert cold["mincost"] == expected.mincost
        assert warm["order"] == cold["order"]
        assert warm["mincost"] == cold["mincost"]

    # The cold pass sweeps once per distinct function; the warm pass
    # sweeps not at all.
    assert metrics["server"]["kernel_sweeps"] == len(corpus)
    assert metrics["server"]["cache_hit_solves"] == len(corpus)
    assert all(r["from_cache"] for r in warm_results)
    assert not any(r["from_cache"] for r in cold_results)

    cold_rps = len(corpus) / cold_seconds
    warm_rps = len(corpus) / warm_seconds
    speedup = warm_rps / cold_rps

    print_table(
        "serve throughput (one warm pool, shared cache)",
        ["pass", "requests", "seconds", "req/sec"],
        [
            ("cold (all kernel)", len(corpus), f"{cold_seconds:.3f}",
             f"{cold_rps:.1f}"),
            ("warm (all cache)", len(corpus), f"{warm_seconds:.3f}",
             f"{warm_rps:.1f}"),
        ],
    )
    print(f"warm/cold speedup: {speedup:.1f}x "
          f"(cache hit rate {metrics['cache']['hit_rate']:.2f})")

    # Shape assertion: serving from the shared cache must beat running
    # the kernel (the entire point of a long-lived daemon).
    assert warm_seconds < cold_seconds

    record = {
        "benchmark": "serve_throughput",
        "sizes": list(sizes),
        "requests_per_pass": len(corpus),
        "cold": {
            "seconds": round(cold_seconds, 6),
            "requests_per_second": round(cold_rps, 3),
        },
        "warm": {
            "seconds": round(warm_seconds, 6),
            "requests_per_second": round(warm_rps, 3),
        },
        "warm_over_cold_speedup": round(speedup, 3),
        "server": metrics["server"],
        "cache": metrics["cache"],
        "config": {
            "backend": config.backend,
            "jobs": config.jobs,
            "max_inflight": config.max_inflight,
        },
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_serve_throughput.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
