"""Remark 2 / ZDD appendix: minimum ZDDs and MTBDDs via the same DP.

Measured: (a) the two-line ZDD rule change yields exact minimum ZDDs
(validated against the independent ZDD manager and n!-brute force);
(b) ZDDs beat OBDDs on sparse families, increasingly so with sparsity
(Minato's motivation); (c) MTBDD minimization handles multi-valued
functions (the MTBDD generalization of Remark 2).
"""


from conftest import print_table

from repro.bdd import ZDD
from repro.core import ReductionRule, brute_force_optimal, run_fs
from repro.functions import (
    family_truth_table,
    path_independent_sets,
    random_sparse,
    sparse_random_family,
)
from repro.truth_table import TruthTable


def test_zdd_exactness(benchmark):
    def sweep():
        rows = []
        for seed in range(5):
            table = TruthTable.random(5, seed=seed)
            fs = run_fs(table, rule=ReductionRule.ZDD)
            bf = brute_force_optimal(table, rule=ReductionRule.ZDD,
                                     collect_all=False)
            manager = ZDD(5, list(fs.order))
            managed = manager.size(manager.from_truth_table(table),
                                   include_terminals=False)
            rows.append((seed, fs.mincost, bf.mincost, managed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Minimum ZDD: FS-with-ZDD-rule vs brute force vs independent manager",
        ["seed", "FS-ZDD", "brute force", "ZDD manager at FS order"],
        rows,
    )
    for _, fs_cost, bf_cost, managed in rows:
        assert fs_cost == bf_cost == managed


def test_zdd_vs_bdd_on_sparse_functions(benchmark):
    densities = [1, 2, 4, 8, 16, 32]
    n = 6

    def sweep():
        rows = []
        for ones in densities:
            table = random_sparse(n, ones, seed=ones)
            zdd = run_fs(table, rule=ReductionRule.ZDD).mincost
            bdd = run_fs(table).mincost
            rows.append((ones, zdd, bdd))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"Sparse on-sets (n={n}): minimum ZDD vs minimum OBDD (internal nodes)",
        ["|on-set|", "min ZDD", "min OBDD", "ZDD/OBDD"],
        [(o, z, b, f"{z / b:.2f}") for o, z, b in rows],
    )
    # Shape: ZDDs win on the sparsest inputs, and their advantage shrinks
    # as density grows.
    sparse_ratio = rows[0][1] / rows[0][2]
    dense_ratio = rows[-1][1] / rows[-1][2]
    assert sparse_ratio < 1.0
    assert sparse_ratio < dense_ratio


def test_zdd_on_structured_families(benchmark):
    def sweep():
        rows = []
        family = path_independent_sets(6)
        table = family_truth_table(6, family)
        fs = run_fs(table, rule=ReductionRule.ZDD)
        rows.append(("path independent sets (n=6)", len(family), fs.mincost))
        random_family = sparse_random_family(6, len(family), seed=1)
        random_table = family_truth_table(6, random_family)
        random_fs = run_fs(random_table, rule=ReductionRule.ZDD)
        rows.append(("random family, same cardinality", len(random_family),
                     random_fs.mincost))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Structured vs random families: minimum ZDD size",
        ["family", "#sets", "min ZDD nodes"],
        rows,
    )
    # Structured (frontier-friendly) families compress far better than
    # random families of the same cardinality.
    assert rows[0][2] < rows[1][2]


def test_mtbdd_minimization(benchmark):
    def sweep():
        rows = []
        for values in (2, 3, 4, 6):
            table = TruthTable.random(4, seed=values, num_values=values)
            fs = run_fs(table, rule=ReductionRule.MTBDD)
            bf = brute_force_optimal(table, rule=ReductionRule.MTBDD,
                                     collect_all=False)
            assert fs.mincost == bf.mincost
            rows.append((values, fs.mincost, fs.num_terminals))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Minimum MTBDD (n=4) by terminal alphabet size",
        ["#values", "min internal nodes", "terminals"],
        rows,
    )
    # more terminal values -> less merging -> no smaller diagrams
    sizes = [r[1] for r in rows]
    assert sizes[0] <= sizes[-1]
