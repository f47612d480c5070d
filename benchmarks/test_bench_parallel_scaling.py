"""Parallel scaling of the layered sweep across execution backends.

Measured: wall-clock of ``run_fs`` over a ``backend x jobs`` grid
(serial/thread x 1/2/4) on an n=13 corpus table (n=14 joins the grid on
boxes with >= 4 cores), and serial against ``thread jobs=2`` on two
small sweeps whose layers run inline under the split rule (a width-4
window sweep at n=12 and an exact n=10 solve) — recorded to
``BENCH_parallel_scaling.json`` next to this file (the CI uploads it as
an artifact).  Each ``thread`` sweep starts and shuts down its own pool,
and that cost is part of its wall-clock.

The shape assertions are about *correctness under parallelism*, which is
hardware-independent: every cell reproduces the serial jobs=1 result and
whole counter snapshot bit-for-bit.  Speedup assertions are honest about
hardware: a >= 2x win for ``thread jobs=4`` over ``jobs=1`` is only
asserted when ``os.cpu_count() >= 4``; on a smaller box the artifact
records the wall-clock rather than pretending otherwise.  The small
sweeps are recorded with no timing gate.
"""

import json
import os
import pathlib
import statistics
import time

from conftest import print_table

from repro.analysis.counters import OperationCounters
from repro.core import EngineConfig, run_fs, window_sweep
from repro.truth_table import TruthTable


GRID_JOBS = (1, 2, 4)
BACKENDS = ("serial", "thread")
SMALL_ROUNDS = 5


def _run_cell(table, backend, jobs):
    """One grid cell: wall-clock + counters."""
    counters = OperationCounters()
    start = time.perf_counter()
    result = run_fs(table, counters=counters, backend=backend, jobs=jobs)
    wall = time.perf_counter() - start
    return result, counters, wall


def _small_sweeps():
    """Median wall-clock of serial against ``thread jobs=2`` on sweeps
    too small to split, ``SMALL_ROUNDS`` alternating rounds each."""
    window_table = TruthTable.random(12, seed=12)
    exact_table = TruthTable.random(10, seed=10)

    def window(backend, jobs):
        result = window_sweep(window_table, width=4, config=EngineConfig(
            backend=backend, jobs=jobs))
        return result.order, result.size, result.counters.snapshot()

    def exact(backend, jobs):
        result = run_fs(exact_table, backend=backend, jobs=jobs)
        return result.order, result.mincost, result.counters.snapshot()

    records = []
    for sweep, n, run in (("window4", 12, window), ("exact", 10, exact)):
        cells = (("serial", 1), ("thread", 2))
        walls = {cell: [] for cell in cells}
        outcomes = {}
        for round_ in range(SMALL_ROUNDS):
            for cell in cells if round_ % 2 == 0 else cells[::-1]:
                start = time.perf_counter()
                outcomes[cell] = run(*cell)
                walls[cell].append(time.perf_counter() - start)
            assert outcomes[cells[0]] == outcomes[cells[1]]
        for backend, jobs in cells:
            records.append({
                "sweep": sweep,
                "n": n,
                "backend": backend,
                "jobs": jobs,
                "rounds": SMALL_ROUNDS,
                "median_wall_seconds": statistics.median(
                    walls[(backend, jobs)]),
            })
    return records


def test_parallel_scaling_artifact():
    cpu_count = os.cpu_count() or 1
    sizes = [13] + ([14] if cpu_count >= 4 else [])

    records = []
    rows = []
    for n in sizes:
        table = TruthTable.random(n, seed=n)
        reference = None
        for backend in BACKENDS:
            for jobs in GRID_JOBS:
                result, counters, wall = _run_cell(table, backend, jobs)
                if reference is None:
                    reference = (result, counters.snapshot())
                ref_result, ref_counters = reference
                # Bit-identical across every backend x jobs cell.
                assert result.mincost == ref_result.mincost
                assert result.order == ref_result.order
                assert counters.snapshot() == ref_counters
                records.append({
                    "n": n,
                    "backend": backend,
                    "jobs": jobs,
                    "wall_seconds": wall,
                    "mincost": result.mincost,
                })
                rows.append((n, backend, jobs, f"{wall:.3f}"))

    by_cell = {(r["n"], r["backend"], r["jobs"]): r for r in records}
    if cpu_count >= 4:
        # thread jobs=4 at least 2x faster than jobs=1 on the n=14
        # corpus — only meaningful with real cores.
        solo = by_cell[(14, "thread", 1)]["wall_seconds"]
        quad = by_cell[(14, "thread", 4)]["wall_seconds"]
        assert quad * 2.0 <= solo, (
            f"thread jobs=4 ({quad:.3f}s) not 2x faster than "
            f"jobs=1 ({solo:.3f}s) despite {cpu_count} cores")

    small = _small_sweeps()
    record = {
        "benchmark": "parallel_scaling",
        "meta": {
            "cpu_count": cpu_count,
            "sizes": sizes,
            "note": ("wall-clock is honest for this machine; speedup "
                     "assertions only run with >= 4 cores; small_sweeps "
                     "carry no timing gate"),
        },
        "cells": records,
        "small_sweeps": small,
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_parallel_scaling.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    with open(out_path) as handle:
        assert json.load(handle)["cells"]

    print_table(
        f"Parallel scaling (cpu_count={cpu_count})",
        ["n", "backend", "jobs", "wall s"],
        rows,
    )
    print_table(
        f"Small sweeps, median of {SMALL_ROUNDS} rounds",
        ["sweep", "n", "backend", "jobs", "wall ms"],
        [(r["sweep"], r["n"], r["backend"], r["jobs"],
          f"{1e3 * r['median_wall_seconds']:.2f}") for r in small],
    )
