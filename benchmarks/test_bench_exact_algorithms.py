"""Ablations across the exact-algorithm family (DESIGN.md design choices).

Measured: (a) A* search over the FS lattice — states expanded vs the
``2^n - 1`` the plain DP always touches, across structured and random
inputs; (b) exact window optimization vs permutation-window enumeration —
same local optima, different work; (c) swap-based in-place sifting vs
evaluation-level sifting — same search neighbourhood on a live node graph.
"""

import itertools
import math

import pytest

from conftest import print_table

from repro.bdd import ReorderingBDD
from repro.core import exact_window, run_fs, window_sweep
from repro.core.astar import astar_optimal_ordering
from repro.functions import (
    achilles_bad_order,
    achilles_heel,
    comparator,
    multiplexer,
    parity,
)
from repro.portfolio import sift_search as eval_sift
from repro.truth_table import TruthTable, count_subfunctions, obdd_size


def test_astar_vs_fs_states(benchmark):
    cases = [
        ("achilles(4)", achilles_heel(4)),
        ("multiplexer(2)", multiplexer(2)),
        ("comparator(3)", comparator(3)),
        ("parity(8)", parity(8)),
        ("random(8)", TruthTable.random(8, seed=8)),
    ]

    def sweep():
        rows = []
        for name, table in cases:
            fs = run_fs(table)
            astar = astar_optimal_ordering(table)
            assert astar.mincost == fs.mincost
            rows.append((
                name,
                table.n,
                astar.states_expanded,
                (1 << table.n) - 1,
                astar.mincost,
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "A* vs FS: subset states expanded (identical optima)",
        ["function", "n", "A* expanded", "FS expands (2^n - 1)", "mincost"],
        rows,
    )
    # Structured inputs prune; symmetric/random ones approach the DP.
    by_name = {name: expanded for name, _, expanded, _, _ in rows}
    assert by_name["achilles(4)"] < (1 << 8) - 1
    assert by_name["multiplexer(2)"] < (1 << 6) - 1
    assert by_name["parity(8)"] == (1 << 8)  # flat landscape: no pruning


def test_window_ablation(benchmark):
    table = TruthTable.random(7, seed=7)
    initial = list(range(7))
    width = 4

    def ablate():
        exact = window_sweep(table, initial_order=initial, width=width)
        # permutation-window enumeration at the same width, same schedule
        order = list(initial)
        size = sum(count_subfunctions(table, order))
        arrangements = 0
        for _ in range(10):
            improved = False
            for start in range(len(order) - width + 1):
                best_perm = tuple(order[start:start + width])
                for perm in itertools.permutations(order[start:start + width]):
                    arrangements += 1
                    candidate = order[:start] + list(perm) + order[start + width:]
                    s = sum(count_subfunctions(table, candidate))
                    if s < size:
                        size = s
                        best_perm = perm
                        improved = True
                order = order[:start] + list(best_perm) + order[start + width:]
            if not improved:
                break
        return exact, size, arrangements

    exact, enum_size, arrangements = benchmark.pedantic(
        ablate, rounds=1, iterations=1
    )
    print_table(
        f"Exact window (FS*) vs permutation enumeration (width {width}, n=7)",
        ["method", "final size", "work"],
        [
            ("FS* window sweep", exact.size,
             f"{exact.counters.table_cells} table cells, "
             f"{exact.windows_solved} windows"),
            ("w! enumeration", enum_size, f"{arrangements} arrangements"),
        ],
    )
    # Same local optimum by construction; FS* does 3^w work per window
    # instead of w! * full-chain evaluations.
    assert exact.size == enum_size
    optimum = run_fs(table).mincost
    assert exact.size >= optimum


def test_inplace_sift_vs_eval_sift(benchmark):
    table = achilles_heel(4)
    bad = achilles_bad_order(4)

    def ablate():
        manager = ReorderingBDD(8, list(bad))
        root = manager.from_truth_table(table)
        order_inplace, size_inplace = manager.sift()
        assert manager.to_truth_table(root) == table
        result_eval = eval_sift(table, initial_order=list(bad))
        return (size_inplace, tuple(order_inplace),
                result_eval.size, result_eval.order)

    size_inplace, order_inplace, size_eval, order_eval = benchmark.pedantic(
        ablate, rounds=1, iterations=1
    )
    print_table(
        "Sifting ablation on achilles(4) from the bad ordering",
        ["variant", "final size", "final order"],
        [
            ("in-place (level swaps)", size_inplace, order_inplace),
            ("evaluation-level", size_eval, order_eval),
        ],
    )
    assert size_inplace == obdd_size(table, list(order_inplace))
    assert size_inplace == size_eval == 10  # both reach the optimum (2n+2)


def test_symmetric_closed_form_vs_dp(benchmark):
    from repro.analysis import symmetric_obdd_size, value_vector

    def sweep():
        rows = []
        for n in (4, 6, 8, 10):
            table = parity(n)
            closed = symmetric_obdd_size(n, value_vector(table),
                                         include_terminals=False)
            dp = run_fs(table).mincost
            rows.append((f"parity({n})", closed, dp))
        from repro.functions import threshold

        for n, k in ((6, 3), (8, 4)):
            table = threshold(n, k)
            closed = symmetric_obdd_size(n, value_vector(table),
                                         include_terminals=False)
            dp = run_fs(table).mincost
            rows.append((f"threshold({n},{k})", closed, dp))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Symmetric closed form (O(n^2)) vs exact DP (O*(3^n))",
        ["function", "closed form", "FS optimum"],
        rows,
    )
    for _, closed, dp in rows:
        assert closed == dp


def test_complement_edge_ablation(benchmark):
    # Representation ablation: plain two-terminal OBDDs (what FS counts)
    # vs the complement-edge form every production package uses.
    from repro.bdd import cbdd_size
    from repro.functions import hidden_weighted_bit, majority

    cases = [
        ("parity(8)", parity(8)),
        ("majority(7)", majority(7)),
        ("hwb(7)", hidden_weighted_bit(7)),
        ("achilles(4)", achilles_heel(4)),
        ("random(8)", TruthTable.random(8, seed=88)),
    ]

    def sweep():
        rows = []
        for name, table in cases:
            order = list(range(table.n))
            plain = obdd_size(table, order, include_terminals=False)
            complemented = cbdd_size(table, order, include_terminals=False)
            rows.append((name, plain, complemented,
                         f"{complemented / plain:.2f}"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Complement edges vs plain OBDD (internal nodes, natural order)",
        ["function", "plain", "complement edges", "ratio"],
        rows,
    )
    for name, plain, complemented, _ in rows:
        assert complemented <= plain, name
    # parity is the extreme case: n vs 2n - 1
    assert rows[0][2] == 8 and rows[0][1] == 15


def test_symmetry_pruned_search(benchmark):
    # Symmetry classes collapse the n! search space by prod(|class|!).
    from repro.analysis.symmetry import (
        brute_force_up_to_symmetry,
        search_space_reduction,
    )
    from repro.functions import majority, threshold

    cases = [
        ("achilles(3)", achilles_heel(3)),
        ("majority(5)", majority(5)),
        ("threshold(6,2)", threshold(6, 2)),
        ("random(5)", TruthTable.random(5, seed=55)),
    ]

    def sweep():
        rows = []
        for name, table in cases:
            full, reduced = search_space_reduction(table)
            _, cost, evaluated = brute_force_up_to_symmetry(table)
            assert cost == run_fs(table).mincost
            rows.append((name, full, reduced, evaluated))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Symmetry-pruned exhaustive search (same optima as FS)",
        ["function", "n! orderings", "orbit representatives", "evaluated"],
        rows,
    )
    by_name = {name: (full, reduced) for name, full, reduced, _ in rows}
    assert by_name["majority(5)"][1] == 1       # totally symmetric
    assert by_name["achilles(3)"][1] == 90       # 720 / 2^3
    for name, full, reduced, evaluated in rows:
        assert evaluated == reduced <= full


def test_precedence_constraint_shrinkage(benchmark):
    # Precedence constraints shrink the feasible lattice — and can cost
    # diagram size when they fight the function's structure.
    from repro.core import run_fs_constrained

    table = TruthTable.random(8, seed=80)

    def sweep():
        rows = []
        for name, precedence in (
            ("none", []),
            ("one chain of 3", [(0, 1), (1, 2)]),
            ("star from x0", [(0, v) for v in range(1, 8)]),
            ("total order", [(v, v + 1) for v in range(7)]),
        ):
            result = run_fs_constrained(table, precedence)
            rows.append((name, result.feasible_subsets, result.mincost))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Precedence constraints: feasible subsets and constrained optima (n=8)",
        ["constraints", "feasible subsets (of 255)", "optimum"],
        rows,
    )
    subsets = [r[1] for r in rows]
    optima = [r[2] for r in rows]
    assert subsets[0] == 255 and subsets[-1] == 8
    # every constrained lattice is a strict sub-lattice of the free one
    # (different constraint sets are incomparable among themselves)
    assert all(count < 255 for count in subsets[1:])
    # constraints can never improve the optimum
    assert all(o >= optima[0] for o in optima)
