"""Checkpoint round-trip: crash-safety overhead and resume speedup.

Measured: per-layer checkpoint write/load wall-clock (the engine's
``checkpoint_write``/``checkpoint_load`` profiler phases), checkpoint
file sizes, the overhead a checkpointed run pays over a plain one
(``overhead_ratio``, checkpointed over plain wall time at n = 13), and
the bit-identity of a kill-after-every-layer/resume cycle — recorded to
``BENCH_checkpoint_roundtrip.json`` next to this file (the CI uploads it
as an artifact alongside ``BENCH_fs_profile.json``).  Each layer file
holds only its own layer: layer ``k``'s holds exactly ``C(n, k)`` rows
and ``k * C(n, k)`` level costs.
"""

import json
import pathlib
import time
from math import comb

from conftest import print_table

from repro.analysis.complexity import fs_table_cells
from repro.analysis.counters import OperationCounters
from repro.core import FaultInjector, InjectedFault, run_fs
from repro.core.checkpoint import read_checked_json
from repro.observability import Profiler
from repro.truth_table import TruthTable

OVERHEAD_N = 13


def best_seconds(solve, rounds=3):
    """Fastest of ``rounds`` wall-clock timings of ``solve()``."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        solve()
        times.append(time.perf_counter() - started)
    return min(times)


def overhead(tmp_path):
    """Checkpointed over plain wall time of one n = 13 solve, and the
    per-layer row and level-cost counts of its checkpoint files."""
    n = OVERHEAD_N
    table = TruthTable.random(n, seed=n)
    plain = best_seconds(lambda: run_fs(table))
    rounds = iter(range(3))

    def checkpointed():
        run_fs(table, checkpoint_dir=str(tmp_path / f"o{next(rounds)}"))

    with_checkpoints = best_seconds(checkpointed)
    layers = []
    for k in range(1, n + 1):
        (path,) = (tmp_path / "o0").glob(f"ckpt_*_layer_{k:04d}.json")
        payload = read_checked_json(str(path))
        layers.append({
            "k": k,
            "rows": payload["frontier"]["rows"],
            "best_last": payload["best_last"]["rows"],
            "level_costs": payload["level_cost"]["rows"],
            "bytes": path.stat().st_size,
        })
    return plain, with_checkpoints, layers


def test_checkpoint_roundtrip_artifact(benchmark, tmp_path):
    n = 8
    table = TruthTable.random(n, seed=n)

    clean = run_fs(table, counters=OperationCounters())
    assert clean.counters.table_cells == fs_table_cells(n)

    ckpt = tmp_path / "ckpt"
    write_profiler = Profiler()
    checkpointed = benchmark.pedantic(
        lambda: run_fs(table, counters=OperationCounters(),
                       profiler=write_profiler,
                       checkpoint_dir=str(ckpt)),
        rounds=1, iterations=1,
    )
    assert checkpointed.order == clean.order
    assert checkpointed.counters == clean.counters

    files = sorted(ckpt.glob("ckpt_*_layer_*.json"))
    assert len(files) == n
    total_bytes = sum(path.stat().st_size for path in files)

    # Kill after every layer k, resume; each cycle must reproduce the
    # clean run bit-for-bit (results and counters).
    resume_rows = []
    for k in range(1, n + 1):
        crash_dir = tmp_path / f"k{k}"
        try:
            run_fs(table, counters=OperationCounters(),
                   checkpoint_dir=str(crash_dir),
                   fault_injector=FaultInjector(kill_after_layer=k))
            raise AssertionError("injected fault did not fire")
        except InjectedFault:
            pass
        load_profiler = Profiler()
        resumed = run_fs(table, counters=OperationCounters(),
                         profiler=load_profiler,
                         checkpoint_dir=str(crash_dir), resume=True)
        assert resumed.order == clean.order
        assert resumed.mincost == clean.mincost
        assert resumed.counters == clean.counters
        resume_rows.append({
            "killed_after_layer": k,
            "checkpoint_load_seconds": load_profiler.phases.get(
                "checkpoint_load", 0.0),
            "layers_recomputed": len(load_profiler.layers),
        })
        assert resume_rows[-1]["layers_recomputed"] == n - k

    plain, with_checkpoints, layers = overhead(tmp_path)
    for layer in layers:
        k = layer["k"]
        assert layer["rows"] == layer["best_last"] == comb(OVERHEAD_N, k)
        assert layer["level_costs"] == k * comb(OVERHEAD_N, k)

    record = {
        "benchmark": "checkpoint_roundtrip",
        "n": n,
        "checkpoint_files": len(files),
        "checkpoint_bytes_total": total_bytes,
        "checkpoint_write_seconds": write_profiler.phases[
            "checkpoint_write"],
        "sweep_seconds_checkpointed": write_profiler.total_layer_seconds,
        "table_cells": clean.counters.table_cells,
        "resume_cycles": resume_rows,
        "overhead": {
            "n": OVERHEAD_N,
            "plain_seconds": plain,
            "checkpointed_seconds": with_checkpoints,
            "layers": layers,
        },
        "overhead_ratio": with_checkpoints / plain,
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_checkpoint_roundtrip.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    with open(out_path) as handle:
        assert json.load(handle)["checkpoint_files"] == n

    print_table(
        f"Checkpoint round-trip (n={n})",
        ["killed after k", "load s", "layers recomputed"],
        [
            (row["killed_after_layer"],
             f"{row['checkpoint_load_seconds']:.4f}",
             row["layers_recomputed"])
            for row in resume_rows
        ],
    )
    print(f"checkpoint bytes total: {total_bytes} across {len(files)} layers; "
          f"write phase {record['checkpoint_write_seconds']:.4f}s")
    print(f"n={OVERHEAD_N}: plain {plain:.3f}s, checkpointed "
          f"{with_checkpoints:.3f}s, overhead ratio "
          f"{record['overhead_ratio']:.2f}")
