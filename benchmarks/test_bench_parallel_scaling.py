"""Parallel scaling of the layered sweep across execution backends.

Measured: wall-clock of ``run_fs`` over a ``backend x jobs`` grid
(serial/thread x 1/2/4) on an n=13 corpus table (n=14 joins the grid on
boxes with >= 4 cores) — recorded to ``BENCH_parallel_scaling.json``
next to this file (the CI uploads it as an artifact).

The shape assertions are about *correctness under parallelism*, which is
hardware-independent: every cell reproduces the serial jobs=1 result and
whole counter snapshot bit-for-bit.  Speedup assertions are honest about
hardware: a >= 2x win for ``thread jobs=4`` over ``jobs=1`` is only
asserted when ``os.cpu_count() >= 4``; on a smaller box the artifact
records the wall-clock rather than pretending otherwise.
"""

import json
import os
import pathlib
import time

from conftest import print_table

from repro.analysis.counters import OperationCounters
from repro.core import ThreadBackend, run_fs
from repro.truth_table import TruthTable


GRID_JOBS = (1, 2, 4)
BACKENDS = ("serial", "thread")


def _run_cell(table, backend_name, jobs):
    """One grid cell: wall-clock + counters, pool start amortized out."""
    if backend_name == "thread" and jobs > 1:
        backend = ThreadBackend(jobs=jobs)
        # Warm the pool so the cell times the sweep, not thread start.
        run_fs(TruthTable.random(6, seed=6), backend=backend, jobs=jobs)
    else:
        backend = backend_name
    counters = OperationCounters()
    start = time.perf_counter()
    result = run_fs(table, counters=counters, backend=backend, jobs=jobs)
    wall = time.perf_counter() - start
    if isinstance(backend, ThreadBackend):
        backend.close()
    return result, counters, wall


def test_parallel_scaling_artifact():
    cpu_count = os.cpu_count() or 1
    sizes = [13] + ([14] if cpu_count >= 4 else [])

    records = []
    rows = []
    for n in sizes:
        table = TruthTable.random(n, seed=n)
        reference = None
        for backend_name in BACKENDS:
            for jobs in GRID_JOBS:
                result, counters, wall = _run_cell(table, backend_name, jobs)
                if reference is None:
                    reference = (result, counters.snapshot())
                ref_result, ref_counters = reference
                # Bit-identical across every backend x jobs cell.
                assert result.mincost == ref_result.mincost
                assert result.order == ref_result.order
                assert counters.snapshot() == ref_counters
                records.append({
                    "n": n,
                    "backend": backend_name,
                    "jobs": jobs,
                    "wall_seconds": wall,
                    "mincost": result.mincost,
                })
                rows.append((n, backend_name, jobs, f"{wall:.3f}"))

    by_cell = {(r["n"], r["backend"], r["jobs"]): r for r in records}
    if cpu_count >= 4:
        # thread jobs=4 at least 2x faster than jobs=1 on the n=14
        # corpus — only meaningful with real cores.
        solo = by_cell[(14, "thread", 1)]["wall_seconds"]
        quad = by_cell[(14, "thread", 4)]["wall_seconds"]
        assert quad * 2.0 <= solo, (
            f"thread jobs=4 ({quad:.3f}s) not 2x faster than "
            f"jobs=1 ({solo:.3f}s) despite {cpu_count} cores")

    record = {
        "benchmark": "parallel_scaling",
        "meta": {
            "cpu_count": cpu_count,
            "sizes": sizes,
            "note": ("wall-clock is honest for this machine; speedup "
                     "assertions only run with >= 4 cores"),
        },
        "cells": records,
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
