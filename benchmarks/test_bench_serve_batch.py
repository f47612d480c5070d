"""Batch-over-the-wire economics: ``solve_many`` vs N single ``solve``
calls, and per-shard locking vs one directory-wide lock.

Two claims priced here.  First, a manifest submitted as one
``solve_many`` request beats the same problems pipelined as N singles:
one request line, one response, fingerprint dedup *before* the queue.
Second, the sharded disk store removes lock contention between
concurrent writers: the same two-thread write storm is timed against a
16-shard directory and a 1-shard directory (the old single-lock layout,
degenerately), comparing accumulated ``FileLock`` wait time.  Recorded
to ``BENCH_serve_batch.json`` next to this file (the CI uploads it as
an artifact alongside the other ``BENCH_*.json`` files).
"""

import json
import pathlib
import threading
import time

from conftest import print_table

from repro.core.cache import ResultCache
from repro.serve import ServeClient, ServeConfig, running_server
from repro.truth_table import TruthTable


def _values_payload(table):
    return {
        "values": "".join(str(int(v)) for v in table.values),
        "n": table.n,
    }


def _corpus():
    distinct = [TruthTable.random(8, seed=500 + i) for i in range(6)]
    # Each function appears three times: once raw, once permuted, once
    # complemented — the dedup-before-queue case batch traffic is full of.
    perm = [3, 1, 7, 0, 6, 2, 5, 4]
    batch = []
    for table in distinct:
        batch.append(table)
        batch.append(table.permute(perm))
        batch.append(TruthTable(8, [1 - v for v in table.values]))
    return distinct, batch


def _bench_wire():
    distinct, batch = _corpus()
    items = [_values_payload(table) for table in batch]
    config = ServeConfig(
        backend="serial", jobs=2, max_inflight=2, queue_limit=64
    )

    with running_server(config) as server:
        with ServeClient(server.address, timeout=600) as client:
            start = time.perf_counter()
            responses = [
                client.request({"op": "solve", "method": "fs", **item})
                for item in items
            ]
            singles_seconds = time.perf_counter() - start
            singles_metrics = client.metrics()["server"]

    with running_server(config) as server:
        with ServeClient(server.address, timeout=600) as client:
            start = time.perf_counter()
            batched = client.solve_many(items, method="fs")
            batch_seconds = time.perf_counter() - start
            batch_metrics = client.metrics()["server"]

    # Same answers either way, and the batch never sweeps more than the
    # singles run did (dedup happens before the queue, not after).
    assert batched["summary"]["error"] == 0
    for single, body in zip(responses, batched["results"]):
        assert body["result"]["mincost"] == single["result"]["mincost"]
        assert body["result"]["order"] == single["result"]["order"]
    assert (
        batch_metrics["kernel_sweeps"] <= singles_metrics["kernel_sweeps"]
    )
    assert batch_metrics["kernel_sweeps"] == len(distinct)

    return {
        "requests": len(items),
        "distinct_functions": len(distinct),
        "singles": {
            "seconds": round(singles_seconds, 6),
            "requests_per_second": round(len(items) / singles_seconds, 3),
            "kernel_sweeps": singles_metrics["kernel_sweeps"],
        },
        "batch": {
            "seconds": round(batch_seconds, 6),
            "requests_per_second": round(len(items) / batch_seconds, 3),
            "kernel_sweeps": batch_metrics["kernel_sweeps"],
            "deduped": batch_metrics["batch_deduped"],
        },
        "batch_over_singles_speedup": round(
            singles_seconds / batch_seconds, 3
        ),
    }


def _write_storm(directory, shards, writers=2, entries=48):
    """Concurrent writers over one directory; returns (seconds,
    accumulated lock-wait seconds, lock waits)."""
    cache = ResultCache(
        directory=str(directory), shards=shards, max_disk_entries=32
    )

    def write(base):
        for i in range(entries):
            # Spread fingerprints over the full prefix space so shard
            # collisions between threads are the exception, not the rule.
            prefix = (base * 31 + i * 7) % 256
            fingerprint = f"{prefix:02x}" + f"{base}{i:03d}" * 12 + "00"
            cache.store(fingerprint, {"base": base, "i": i})

    threads = [
        threading.Thread(target=write, args=(base,))
        for base in range(writers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return elapsed, cache.stats.lock_wait_seconds, cache.stats.lock_waits


def test_serve_batch_artifact(tmp_path):
    wire = _bench_wire()

    sharded_seconds, sharded_wait, sharded_waits = _write_storm(
        tmp_path / "sharded", shards=16
    )
    single_seconds, single_wait, single_waits = _write_storm(
        tmp_path / "single", shards=1
    )

    print_table(
        "solve_many vs N singles (18 requests, 6 distinct functions)",
        ["mode", "seconds", "req/sec", "kernel sweeps"],
        [
            ("N singles", f"{wire['singles']['seconds']:.3f}",
             f"{wire['singles']['requests_per_second']:.1f}",
             wire["singles"]["kernel_sweeps"]),
            ("one solve_many", f"{wire['batch']['seconds']:.3f}",
             f"{wire['batch']['requests_per_second']:.1f}",
             wire["batch"]["kernel_sweeps"]),
        ],
    )
    print(f"batch/singles speedup: "
          f"{wire['batch_over_singles_speedup']:.2f}x")
    print_table(
        "disk-store write storm (2 writers x 48 entries, cap 32)",
        ["layout", "seconds", "lock waits", "lock wait s"],
        [
            ("16 shards", f"{sharded_seconds:.3f}", sharded_waits,
             f"{sharded_wait:.4f}"),
            ("1 shard (single lock)", f"{single_seconds:.3f}",
             single_waits, f"{single_wait:.4f}"),
        ],
    )

    record = {
        "benchmark": "serve_batch",
        "wire": wire,
        "shard_lock_storm": {
            "writers": 2,
            "entries_per_writer": 48,
            "max_disk_entries": 32,
            "sharded_16": {
                "seconds": round(sharded_seconds, 6),
                "lock_waits": sharded_waits,
                "lock_wait_seconds": round(sharded_wait, 6),
            },
            "single_lock": {
                "seconds": round(single_seconds, 6),
                "lock_waits": single_waits,
                "lock_wait_seconds": round(single_wait, 6),
            },
        },
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_serve_batch.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
