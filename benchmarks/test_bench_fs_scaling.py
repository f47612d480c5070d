"""Theorem 5: FS runs in O*(3^n); the trivial bound is O*(n! 2^n).

Measured: exact table-cell counts of the instrumented FS run per n,
fitted growth base (should be ~3 within the polynomial envelope), the
closed-form model, and the brute-force comparison with its crossover.
Also the kernel ablation (the vectorized ``compact`` vs the per-cell
``COMPACT`` oracle kept in the test suite) from DESIGN.md's
design-choices list, and the profiled
wall-clock/memory trajectory of the execution engine, recorded to
``BENCH_fs_profile.json`` next to this file.
"""

import json
import math
import pathlib


from conftest import print_table

from repro.analysis.complexity import (
    brute_force_cells,
    fit_growth_rate,
    fs_table_cells,
    theorem5_bound,
)
from repro.core import brute_force_optimal, compact, initial_state, run_fs
from repro.observability import Profiler
from repro.truth_table import TruthTable
from tests.compact_oracle import compact_python

SWEEP_NS = [4, 5, 6, 7, 8, 9, 10]


def measure_fs_cells():
    measured = []
    for n in SWEEP_NS:
        result = run_fs(TruthTable.random(n, seed=n))
        measured.append(result.counters.table_cells)
    return measured


def test_fs_scaling_matches_3n(benchmark):
    measured = benchmark.pedantic(measure_fs_cells, rounds=1, iterations=1)
    # Divide out the known linear factor before fitting (the O* convention):
    # cells = n * 3^(n-1), so cells/n must fit base 3 exactly.
    base, _ = fit_growth_rate(SWEEP_NS, [c / n for n, c in zip(SWEEP_NS, measured)])
    rows = [
        (n, cells, fs_table_cells(n), f"{cells / theorem5_bound(n):.3f}")
        for n, cells in zip(SWEEP_NS, measured)
    ]
    print_table(
        "Theorem 5: FS table cells vs 3^n (ratio = cells / 3^n)",
        ["n", "measured cells", "model n*3^(n-1)", "cells / 3^n"],
        rows,
    )
    print(f"fitted growth base: {base:.4f} (paper: 3)")
    for n, cells in zip(SWEEP_NS, measured):
        assert cells == fs_table_cells(n)  # exact match to the model
        assert cells <= n * theorem5_bound(n)  # inside the O* envelope
    assert 2.95 < base < 3.05


def test_fs_vs_bruteforce_crossover(benchmark):
    ns = [2, 3, 4, 5, 6]

    def sweep():
        rows = []
        for n in ns:
            table = TruthTable.random(n, seed=100 + n)
            fs = run_fs(table)
            bf = brute_force_optimal(table, collect_all=False)
            assert fs.mincost == bf.mincost
            rows.append((n, fs.counters.table_cells, bf.counters.table_cells))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    display = [
        (n, fs_cells, bf_cells, f"{bf_cells / fs_cells:.2f}x")
        for n, fs_cells, bf_cells in rows
    ]
    print_table(
        "FS vs brute force: measured cells (same answers)",
        ["n", "FS cells", "brute-force cells", "BF/FS"],
        display,
    )
    # Paper shape: n! 2^n dwarfs 3^n — brute force loses from n=4 on and
    # the gap widens monotonically.
    gaps = [bf / fs for _, fs, bf in rows]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert rows[-1][2] > 10 * rows[-1][1]
    # sanity: the measured counts match the closed-form models
    for n, fs_cells, bf_cells in rows:
        assert fs_cells == fs_table_cells(n)
        assert bf_cells == brute_force_cells(n)


def _chain_mincost(kernel, table):
    """Cost one full chain (identity order) with ``kernel``."""
    state = initial_state(table)
    for var in range(table.n):
        state = kernel(state, var)
    return state.mincost


def test_compact_ablation_numpy(benchmark):
    table = TruthTable.random(12, seed=8)
    result = benchmark(lambda: _chain_mincost(compact, table))
    assert result == _chain_mincost(compact_python, table)


def test_compact_ablation_oracle(benchmark):
    # The per-cell executable specification: identical answers, far slower
    # (the DESIGN.md table-representation ablation); compare mean times in
    # the benchmark table.
    table = TruthTable.random(12, seed=8)
    result = benchmark.pedantic(
        lambda: _chain_mincost(compact_python, table), rounds=1, iterations=1
    )
    assert result == _chain_mincost(compact, table)


def test_fs_wallclock_n10(benchmark):
    table = TruthTable.random(10, seed=10)
    result = benchmark.pedantic(lambda: run_fs(table), rounds=1, iterations=1)
    assert result.counters.table_cells == fs_table_cells(10)


def test_fs_profile_trajectory(benchmark):
    """Record the engine's per-layer wall-clock/memory trajectory.

    Emits ``BENCH_fs_profile.json`` (gitignored; EXPERIMENTS.md records a
    reference run) so regressions in layer wall-clock or peak frontier
    bytes are visible run over run, alongside the usual counter laws.
    """
    n = 10
    table = TruthTable.random(n, seed=n)
    profiler = Profiler()
    result = benchmark.pedantic(
        lambda: run_fs(table, profiler=profiler), rounds=1, iterations=1
    )
    assert result.counters.table_cells == fs_table_cells(n)
    assert [layer.k for layer in profiler.layers] == list(range(1, n + 1))
    assert [layer.subsets for layer in profiler.layers] == [
        math.comb(n, k) for k in range(1, n + 1)
    ]
    # The frontier waist sits at k = n/2 (C(n,k) states of 2^(n-k) cells).
    peaks = [layer.frontier_bytes for layer in profiler.layers]
    assert profiler.peak_frontier_bytes == max(peaks)

    out_path = pathlib.Path(__file__).parent / "BENCH_fs_profile.json"
    profiler.meta["benchmark"] = "fs_profile_trajectory"
    profiler.write(str(out_path))
    with open(out_path) as handle:
        recorded = json.load(handle)
    assert recorded["layers"][-1]["counters"]["table_cells"] == fs_table_cells(n)

    print_table(
        "Execution-engine trajectory (n=10, numpy kernel)",
        ["k", "subsets", "wall s", "frontier bytes"],
        [
            (layer.k, layer.subsets, f"{layer.wall_seconds:.4f}",
             layer.frontier_bytes)
            for layer in profiler.layers
        ],
    )
    print(f"peak frontier bytes: {profiler.peak_frontier_bytes}")
