"""Unit tests for the complement-edge reduction rule in the FS family.

This is a library extension beyond the paper (the paper's cost counts
plain OBDD nodes): the same DP with edge-valued tables minimizes
CUDD-style complement-edge BDDs.  Ground truth is the independent CBDD
manager of :mod:`repro.bdd.cbdd` under n!-enumeration.
"""

import itertools
import random

import pytest

from repro.bdd.cbdd import cbdd_size
from repro.core import (
    ReductionRule,
    brute_force_optimal,
    opt_obdd,
    reconstruct_minimum_diagram,
    run_fs,
    run_fs_shared,
)
from repro.core.astar import astar_optimal_ordering
from repro.core.shared import brute_force_shared, build_forest
from repro.functions import parity
from repro.truth_table import TruthTable


def cbdd_brute_force(table):
    return min(
        cbdd_size(table, list(perm), include_terminals=False)
        for perm in itertools.permutations(range(table.n))
    )


class TestExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_manager_enumeration(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 5)
        table = TruthTable.random(n, seed=seed)
        fs = run_fs(table, rule=ReductionRule.CBDD)
        assert fs.mincost == cbdd_brute_force(table)
        assert (
            cbdd_size(table, list(fs.order), include_terminals=False)
            == fs.mincost
        )

    def test_generic_bruteforce_agrees(self):
        table = TruthTable.random(4, seed=10)
        assert (
            brute_force_optimal(table, rule=ReductionRule.CBDD).mincost
            == cbdd_brute_force(table)
        )

    def test_astar_supports_cbdd(self):
        table = TruthTable.random(4, seed=11)
        assert (
            astar_optimal_ordering(table, rule=ReductionRule.CBDD).mincost
            == run_fs(table, rule=ReductionRule.CBDD).mincost
        )

    def test_opt_obdd_supports_cbdd(self):
        table = TruthTable.random(5, seed=12)
        assert (
            opt_obdd(table, rule=ReductionRule.CBDD).mincost
            == run_fs(table, rule=ReductionRule.CBDD).mincost
        )

    def test_multivalued_rejected(self):
        with pytest.raises(Exception):
            run_fs(TruthTable(1, [0, 2]), rule=ReductionRule.CBDD)


class TestStructure:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_parity_optimal_is_n(self, n):
        # The canonical complement-edge win: n nodes instead of 2n - 1.
        assert run_fs(parity(n), rule=ReductionRule.CBDD).mincost == n

    def test_never_larger_than_plain_optimum(self):
        for seed in range(5):
            table = TruthTable.random(4, seed=20 + seed)
            cbdd = run_fs(table, rule=ReductionRule.CBDD).mincost
            plain = run_fs(table, rule=ReductionRule.BDD).mincost
            assert cbdd <= plain

    def test_complement_invariance(self):
        # f and ~f have identical minimum CBDDs.
        table = TruthTable.random(5, seed=30)
        assert (
            run_fs(table, rule=ReductionRule.CBDD).mincost
            == run_fs(~table, rule=ReductionRule.CBDD).mincost
        )

    def test_reconstruction_roundtrip(self):
        table = TruthTable.random(4, seed=31)
        result = run_fs(table, rule=ReductionRule.CBDD)
        diagram = reconstruct_minimum_diagram(table, result)
        assert diagram.to_truth_table() == table
        assert diagram.num_terminals == 1
        assert diagram.terminal_values == [1]

    def test_reconstruction_dot(self):
        table = TruthTable.random(3, seed=32)
        diagram = reconstruct_minimum_diagram(
            table, run_fs(table, rule=ReductionRule.CBDD)
        )
        dot = diagram.to_dot(name="CEdge")
        assert dot.startswith("digraph CEdge")
        assert 'label="T"' in dot

    def test_constant_functions(self):
        for value in (0, 1):
            result = run_fs(TruthTable.constant(3, value),
                            rule=ReductionRule.CBDD)
            assert result.mincost == 0


class TestShared:
    def test_shared_matches_bruteforce(self):
        tables = [TruthTable.random(3, seed=40), TruthTable.random(3, seed=41)]
        shared = run_fs_shared(tables, rule=ReductionRule.CBDD)
        _, bf = brute_force_shared(tables, rule=ReductionRule.CBDD)
        assert shared.mincost == bf

    def test_forest_roundtrip(self):
        tables = [TruthTable.random(3, seed=42), TruthTable.random(3, seed=43)]
        forest = build_forest(tables, [1, 0, 2], ReductionRule.CBDD)
        assert forest.to_truth_tables() == tables

    def test_complement_pair_fully_shared(self):
        # Under complement edges, {f, ~f} costs exactly what f alone costs.
        table = TruthTable.random(4, seed=44)
        shared = run_fs_shared([table, ~table], rule=ReductionRule.CBDD)
        alone = run_fs(table, rule=ReductionRule.CBDD)
        assert shared.mincost == alone.mincost

    def test_complement_pair_not_shared_without_edges(self):
        # The same pair usually costs MORE under the plain-BDD rule —
        # the motivating contrast for complement edges.
        table = TruthTable.random(4, seed=45)
        plain_shared = run_fs_shared([table, ~table]).mincost
        plain_alone = run_fs(table).mincost
        assert plain_shared >= plain_alone
