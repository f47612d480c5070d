"""The exponential-size counting argument, with measurements.

Paper claim (related work): "there exists a function for which the OBDD
size grows exponentially in the number of variables under any variable
ordering", by a counting argument.  Measured: the certified hardness
threshold grows like ``2^n / 2n``; random functions' *optimal* sizes
concentrate against the per-level maximum profile (the empirical face of
"almost all functions are hard"); and known-easy families sit far below.
"""

import statistics


from conftest import print_table

from repro.analysis.counting import (
    exponential_necessity_threshold,
    fraction_of_easy_functions_bound,
    max_obdd_nodes,
)
from repro.core import run_fs
from repro.functions import achilles_heel, parity
from repro.truth_table import TruthTable


def test_threshold_growth(benchmark):
    ns = [6, 10, 14, 18, 24, 32, 40]

    def sweep():
        return [
            (n, exponential_necessity_threshold(n), (1 << n) // (2 * n))
            for n in ns
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Certified hardness threshold (some function needs > s nodes "
        "under EVERY ordering)",
        ["n", "threshold s", "2^n / 2n"],
        rows,
    )
    ratios = [s / max(ref, 1) for _, s, ref in rows]
    # tracks the Shannon rate within a constant
    assert all(0.8 < r < 1.7 for r in ratios)
    # and is certainly exponential: doubles (at least) every 2 steps of n
    thresholds = [s for _, s, _ in rows]
    assert all(b > 2 * a for a, b in zip(thresholds, thresholds[2:]))


def test_random_functions_concentrate_at_maximum(benchmark):
    def sweep():
        rows = []
        for n in (4, 5, 6):
            sizes = [
                run_fs(TruthTable.random(n, seed=seed)).mincost
                for seed in range(30)
            ]
            ceiling = max_obdd_nodes(n, include_terminals=False)
            rows.append((
                n,
                f"{statistics.mean(sizes):.1f}",
                min(sizes),
                max(sizes),
                ceiling,
                f"{statistics.mean(sizes) / ceiling:.2f}",
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Optimal OBDD size of random functions vs the absolute ceiling",
        ["n", "mean optimum", "min", "max", "ceiling", "mean/ceiling"],
        rows,
    )
    # Concentration: the mean optimum stays within a constant factor of
    # the ceiling and the ratio does not collapse as n grows.
    fractions = [float(row[5]) for row in rows]
    assert all(f > 0.55 for f in fractions)


def test_easy_families_are_atypical(benchmark):
    def sweep():
        rows = []
        for name, table in (
            ("parity(8)", parity(8)),
            ("achilles(4)", achilles_heel(4)),
            ("random(8)", TruthTable.random(8, seed=1)),
        ):
            optimum = run_fs(table).mincost
            bound = fraction_of_easy_functions_bound(8, optimum)
            rows.append((name, optimum,
                         f"{bound:.2e}" if bound < 1 else ">= 1 (vacuous)"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "How atypical are the easy functions? (fraction bound at their size)",
        ["function", "optimal nodes", "fraction of functions this small"],
        rows,
    )
    # The structured families are in a vanishing minority; the random
    # function's size is large enough that the bound is uninformative.
    parity_bound = fraction_of_easy_functions_bound(
        8, run_fs(parity(8)).mincost
    )
    assert parity_bound < 1e-15
