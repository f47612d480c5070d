"""Intro motivation: heuristics have no optimality guarantee; FS does.

Measured: solution quality (size vs exact optimum) and search effort
(orderings evaluated) of sifting, window permutation, random restarts and
the greedy construction, across structured and random functions.  The
paper's point — heuristics can be arbitrarily far off while the exact DP
certifies the optimum — shows up as quality gaps > 1.0 on adversarial
inputs and as the cheap heuristics' tiny evaluation budgets.
"""


from conftest import print_table

from repro.bdd import greedy_append, random_restart_search
from repro.core import run_fs
from repro.functions import (
    achilles_bad_order,
    achilles_heel,
    comparator,
    hidden_weighted_bit,
    multiplexer,
    random_dnf_function,
)
from repro.portfolio import sift_search, window_permutation_search
from repro.truth_table import TruthTable

FUNCTIONS = [
    ("achilles(4)", lambda: achilles_heel(4)),
    ("comparator(3)", lambda: comparator(3)),
    ("multiplexer(2)", lambda: multiplexer(2)),
    ("hwb(6)", lambda: hidden_weighted_bit(6)),
    ("random-dnf(7)", lambda: random_dnf_function(7, 5, 3, seed=7)),
    ("random(7)", lambda: TruthTable.random(7, seed=7)),
]


def run_sweep():
    from dataclasses import dataclass

    from repro.analysis import influence_order
    from repro.truth_table import obdd_size

    @dataclass
    class Fixed:
        size: int

    rows = []
    for name, make in FUNCTIONS:
        table = make()
        exact = run_fs(table)
        entries = {
            "sift": sift_search(table, initial_order=list(range(table.n))),
            "window3": window_permutation_search(table, window=3),
            "random30": random_restart_search(table, tries=30, seed=1),
            "greedy": greedy_append(table),
            "influence": Fixed(obdd_size(table, influence_order(table))),
        }
        rows.append((name, exact.size, entries))
    return rows


def test_heuristic_quality_gap(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    display = []
    for name, optimum, entries in rows:
        display.append((
            name,
            optimum,
            *(f"{entries[k].size} ({entries[k].size / optimum:.2f}x)"
              for k in ("sift", "window3", "random30", "greedy", "influence")),
        ))
    print_table(
        "Heuristics vs exact optimum (total size; parenthesis = quality ratio)",
        ["function", "optimal", "sift", "window3", "random30", "greedy",
         "influence"],
        display,
    )
    for name, optimum, entries in rows:
        for result in entries.values():
            assert result.size >= optimum  # nobody beats the certified optimum
    # Aggregate shape: sifting's mean quality ratio is the best of the
    # heuristics (per-instance it can lose to a lucky random draw).
    def mean_ratio(key):
        return sum(e[key].size / opt for _, opt, e in rows) / len(rows)

    assert mean_ratio("sift") <= mean_ratio("random30") + 0.05
    assert mean_ratio("sift") < 1.35  # sifting stays near-optimal overall


def test_heuristics_can_miss_the_optimum(benchmark):
    # Adversarial shape: an achilles-heel instance whose matching is NOT
    # the natural variable order, so a tiny random budget almost surely
    # misses it while FS is exact — the "no worst-case guarantee" point.
    from repro.functions import conjunction_of_pairs

    table = conjunction_of_pairs([(0, 4), (1, 5), (2, 3)], 6)

    def attempt():
        exact = run_fs(table)
        misses = 0
        seeds = range(10)
        for seed in seeds:
            weak = random_restart_search(table, tries=3, seed=seed)
            misses += weak.size > exact.size
        return misses, len(seeds), exact.size

    misses, runs, exact_size = benchmark.pedantic(attempt, rounds=1, iterations=1)
    print(f"\nweak heuristic missed the optimum ({exact_size}) in "
          f"{misses}/{runs} runs")
    assert misses >= runs // 2  # most tiny-budget runs are suboptimal


def test_search_effort_comparison(benchmark):
    table = TruthTable.random(6, seed=6)

    def sweep():
        exact = run_fs(table)
        return {
            "FS subsets": exact.counters.subsets_processed,
            "sift evals": sift_search(table).evaluations,
            "window3 evals": window_permutation_search(
                table, window=3).evaluations,
            "greedy evals": greedy_append(table).evaluations,
        }

    effort = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Search effort (n=6)",
        ["method", "work units"],
        list(effort.items()),
    )
    # Heuristics examine polynomially many orderings; FS touches all 2^n
    # subsets (the price of the guarantee).
    assert effort["FS subsets"] == 2 ** 6 - 1
    assert effort["sift evals"] < 2 ** 6 * 6


def test_sift_convergence_trajectory(benchmark):
    table = achilles_heel(4)
    result = benchmark.pedantic(
        lambda: sift_search(table, initial_order=achilles_bad_order(4)),
        rounds=1, iterations=1,
    )
    print(f"\nsift trajectory from the bad ordering: {result.trajectory}")
    assert result.trajectory[0] > result.trajectory[-1]
    assert result.trajectory[-1] == run_fs(table).size


def test_ordering_sensitivity_ranking(benchmark):
    # The paper's opening claim, quantified per family: how much the
    # ordering matters (worst/best over all orderings).
    from repro.analysis.sensitivity import ordering_sensitivity
    from repro.functions import adder_bit, parity, threshold

    cases = [
        ("parity(6)", parity(6)),
        ("threshold(6,3)", threshold(6, 3)),
        ("achilles(3)", achilles_heel(3)),
        ("adder3 sum2", adder_bit(3, 2)),
        ("random(6)", TruthTable.random(6, seed=66)),
    ]

    def sweep():
        rows = []
        for name, table in cases:
            report = ordering_sensitivity(table)
            rows.append((
                name,
                report.minimum,
                report.maximum,
                f"{report.spread:.2f}x",
                f"{report.regret_of_average:.2f}x",
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ordering sensitivity (exhaustive over all orderings, n=6)",
        ["function", "best", "worst", "worst/best", "mean/best"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    # Symmetric functions are insensitive; structured arithmetic is the
    # sensitive regime the paper motivates with.
    assert by_name["parity(6)"][3] == "1.00x"
    assert by_name["threshold(6,3)"][3] == "1.00x"
    assert float(by_name["achilles(3)"][3].rstrip("x")) > 2.0
    assert float(by_name["adder3 sum2"][3].rstrip("x")) > 1.5
