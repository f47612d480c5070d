"""Frontier bytes: peak retained-layer bytes of the dense layer.

The FS dynamic program's memory wall is the retained frontier — at the
waist it holds ``C(n, n/2)`` rows of ``2^{n/2}`` table cells each, the
very cells the paper's ``3^n`` analysis counts.  A layer is one dense
matrix stored at the narrowest unsigned dtype that holds the sweep's
node-id bound (``num_terminals + 2^n``), plus an ``int64`` mask and
mincost per row, and its byte count is exact.  Measured here over an
``n`` sweep: the budget-metered peak (what ``max_frontier_bytes`` caps),
the same layers at ``int64`` width, and the estimate the earlier
one-object-per-subset frontier charged, ``max_k C(n, k) * (8 * 2^{n-k}
+ 200)`` — recorded to ``BENCH_frontier_packing.json`` next to this file
(the CI uploads it as an artifact).  The memory-regression gate: the
dense peak must stay under half that estimate at ``n = 12`` (recorded
runs land around 4x).
"""

import json
import math
import pathlib
import time

import numpy as np
from conftest import print_table

from repro.core import run_fs
from repro.observability import Profiler
from repro.truth_table import TruthTable


def layer_bytes(n, k, itemsize):
    """Exact bytes of layer ``k``: int64 mask and mincost per row plus
    ``2^{n-k}`` cells of ``itemsize`` bytes."""
    return math.comb(n, k) * (16 + (itemsize << (n - k)))


def test_frontier_bytes_artifact(benchmark):
    rows = []
    for n in (8, 10, 12):
        table = TruthTable.random(n, seed=n)
        profiler = Profiler()
        start = time.perf_counter()
        run_fs(table, profiler=profiler)
        elapsed = time.perf_counter() - start
        itemsize = np.min_scalar_type(2 + (1 << n)).itemsize
        exact = max(layer_bytes(n, k, itemsize) for k in range(1, n + 1))
        # The metered peak is exactly the largest layer's shape.
        assert profiler.peak_frontier_bytes == exact
        rows.append({
            "n": n,
            "cell_dtype": f"uint{8 * itemsize}",
            "peak_frontier_bytes": profiler.peak_frontier_bytes,
            "int64_peak_bytes": max(
                layer_bytes(n, k, 8) for k in range(1, n + 1)),
            "dict_era_estimate_bytes": max(
                math.comb(n, k) * (8 * (1 << (n - k)) + 200)
                for k in range(1, n + 1)),
            "sweep_seconds": elapsed,
        })
        rows[-1]["estimate_ratio"] = (
            rows[-1]["dict_era_estimate_bytes"]
            / rows[-1]["peak_frontier_bytes"])

    # The memory-regression gate at the largest size: the dense layer
    # must hold at most half the bytes the one-object-per-subset
    # frontier was charged (recorded runs land around 4x; the gate is
    # deliberately slack).
    top = rows[-1]
    assert top["n"] == 12
    assert top["dict_era_estimate_bytes"] == 1_112_760
    assert top["peak_frontier_bytes"] * 2 <= top["dict_era_estimate_bytes"]

    record = {
        "benchmark": "frontier_bytes",
        "peak_bytes_are_exact": True,
        "rows": rows,
    }
    out_path = pathlib.Path(__file__).parent / "BENCH_frontier_packing.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    with open(out_path) as handle:
        assert json.load(handle)["rows"][-1]["estimate_ratio"] >= 2

    benchmark.pedantic(
        lambda: run_fs(TruthTable.random(10, seed=10)),
        rounds=1, iterations=1,
    )

    print_table(
        "Frontier bytes (dense layer, FULL policy)",
        ["n", "dtype", "peak B", "int64 B", "dict-era B", "ratio", "s"],
        [
            (row["n"], row["cell_dtype"], row["peak_frontier_bytes"],
             row["int64_peak_bytes"], row["dict_era_estimate_bytes"],
             f"{row['estimate_ratio']:.2f}x",
             f"{row['sweep_seconds']:.3f}")
            for row in rows
        ],
    )
