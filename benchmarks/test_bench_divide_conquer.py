"""Lemma 9 / Theorems 10 & 13 structure: divide-and-conquer end to end.

Measured: (a) the Lemma 9 split identity at every division point;
(b) OptOBDD and the composed solvers return the certified optimum on real
inputs; (c) the minimum-finder ablation (classical scan vs simulated
quantum, exact vs sampled) — same answers, different accounting; and
(d) the sampled finder's empirical failure rate against Theorem 1's
"not minimum with exponentially small probability".
"""

import random


from conftest import print_table

from repro.core import (
    mincost_by_split,
    opt_obdd,
    opt_obdd_composed,
    run_fs,
)
from repro.quantum import ClassicalMinimumFinder, QuantumMinimumFinder, QueryLedger
from repro.truth_table import TruthTable


def test_lemma9_identity_sweep(benchmark):
    n = 6
    table = TruthTable.random(n, seed=1)

    def sweep():
        reference = run_fs(table).mincost
        return reference, [
            (k, mincost_by_split(table, k).mincost) for k in range(n + 1)
        ]

    reference, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"Lemma 9 at every division point (n={n}; MINCOST_[n] = {reference})",
        ["k", "min over K of (MINCOST_K + rest)"],
        rows,
    )
    assert all(value == reference for _, value in rows)


def test_finder_ablation(benchmark):
    table = TruthTable.random(7, seed=2)

    def ablate():
        reference = run_fs(table).mincost
        classical = opt_obdd(table, finder=ClassicalMinimumFinder())
        ledger = QueryLedger()
        exact_quantum = opt_obdd(
            table,
            finder=QuantumMinimumFinder(ledger=ledger, epsilon=1e-6,
                                        rng=random.Random(0)),
        )
        sampled = opt_obdd(
            table,
            finder=QuantumMinimumFinder(epsilon=1e-3, mode="sampled",
                                        rng=random.Random(0)),
        )
        return reference, classical, exact_quantum, sampled, ledger

    reference, classical, exact_quantum, sampled, ledger = benchmark.pedantic(
        ablate, rounds=1, iterations=1
    )
    print_table(
        "Minimum-finder ablation (n=7)",
        ["finder", "mincost", "modeled queries"],
        [
            ("classical scan", classical.mincost, 0),
            ("quantum (exact mode)", exact_quantum.mincost, f"{ledger.total:.0f}"),
            ("quantum (sampled DH)", sampled.mincost, "dynamics-dependent"),
        ],
    )
    assert classical.mincost == reference
    assert exact_quantum.mincost == reference
    assert sampled.mincost >= reference  # valid; optimal w.h.p.


def test_composition_depth_sweep(benchmark):
    table = TruthTable.random(5, seed=3)

    def sweep():
        reference = run_fs(table).mincost
        rows = []
        for depth in (0, 1, 2):
            result = opt_obdd_composed(table, depth=depth)
            rows.append((depth, result.mincost,
                         result.counters.table_cells))
        return reference, rows

    reference, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Composed solver by depth (n=5): correctness + simulation cost",
        ["depth", "mincost", "table cells (classical sim cost)"],
        rows,
    )
    for _, mincost, _ in rows:
        assert mincost == reference
    # Classically, deeper composition costs MORE to simulate (the speedup
    # exists only in the quantum query model) — the honest shape.
    cells = [row[2] for row in rows]
    assert cells[2] >= cells[1]


def test_sampled_failure_rate(benchmark):
    table = TruthTable.random(5, seed=4)

    def trials():
        reference = run_fs(table).mincost
        failures = 0
        runs = 20
        for trial in range(runs):
            finder = QuantumMinimumFinder(epsilon=0.01, mode="sampled",
                                          rng=random.Random(trial))
            if opt_obdd(table, finder=finder).mincost != reference:
                failures += 1
        return failures, runs

    failures, runs = benchmark.pedantic(trials, rounds=1, iterations=1)
    print(f"\nsampled-DH OptOBDD failures: {failures}/{runs} @ eps=0.01/call")
    assert failures <= 2
