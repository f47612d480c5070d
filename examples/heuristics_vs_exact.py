#!/usr/bin/env python
"""Judging heuristic quality with the exact optimizer.

The paper's stated practical role for exact methods: "to judge the
optimization quality of heuristics".  We run the classic heuristics
(Rudell sifting, window permutation, random restarts, greedy
construction) over a mixed workload and report each one's quality ratio
against the certified optimum from the FS dynamic program.

Run:  python examples/heuristics_vs_exact.py
"""

from repro import (
    TruthTable, run_fs, sift_search, window_permutation_search,
)
from repro.bdd import greedy_append, random_restart_search
from repro.functions import (
    achilles_heel,
    comparator,
    hidden_weighted_bit,
    multiplexer,
    random_dnf_function,
)

WORKLOAD = [
    ("achilles(4)", achilles_heel(4)),
    ("comparator(3)", comparator(3)),
    ("multiplexer(2)", multiplexer(2)),
    ("hwb(6)", hidden_weighted_bit(6)),
    ("random-dnf(7)", random_dnf_function(7, 5, 3, seed=7)),
    ("random(7)", TruthTable.random(7, seed=7)),
]


def main() -> None:
    header = (f"{'function':<15} {'optimal':>7} {'sift':>12} "
              f"{'window3':>12} {'random30':>12} {'greedy':>12}")
    print(header)
    print("-" * len(header))

    totals = {"sift": 0.0, "window3": 0.0, "random30": 0.0, "greedy": 0.0}
    for name, table in WORKLOAD:
        optimum = run_fs(table).size
        results = {
            "sift": sift_search(table),
            "window3": window_permutation_search(table, window=3),
            "random30": random_restart_search(table, tries=30, seed=1),
            "greedy": greedy_append(table),
        }
        cells = []
        for key in ("sift", "window3", "random30", "greedy"):
            ratio = results[key].size / optimum
            totals[key] += ratio
            cells.append(f"{results[key].size} ({ratio:.2f}x)")
        print(f"{name:<15} {optimum:>7} " + " ".join(f"{c:>12}" for c in cells))

    print("-" * len(header))
    means = {k: v / len(WORKLOAD) for k, v in totals.items()}
    print("mean quality ratio: " + "  ".join(
        f"{k}={v:.3f}" for k, v in means.items()
    ))
    print("\n(1.000 = always optimal; the exact DP is the judge that makes"
          "\n these numbers meaningful — exactly the role the paper assigns it)")


if __name__ == "__main__":
    main()
