"""Unit tests for shared (multi-rooted) ordering optimization."""

import random

import pytest

from repro.core import (
    ReductionRule,
    brute_force_shared,
    build_forest,
    count_shared_subfunctions,
    initial_state_shared,
    run_fs,
    run_fs_shared,
)
from repro.errors import DimensionError, OrderingError
from repro.truth_table import TruthTable, count_subfunctions


class TestInitialState:
    def test_stacked_table(self):
        t1 = TruthTable.random(3, seed=1)
        t2 = TruthTable.random(3, seed=2)
        state = initial_state_shared([t1, t2])
        assert state.num_roots == 2
        assert state.table.shape == (16,)
        assert state.segment_size == 8

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            initial_state_shared([])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            initial_state_shared([TruthTable.random(2, seed=0),
                                  TruthTable.random(3, seed=0)])

    def test_multivalued_needs_mtbdd(self):
        with pytest.raises(DimensionError):
            initial_state_shared([TruthTable(1, [0, 2])])
        state = initial_state_shared(
            [TruthTable(1, [0, 2]), TruthTable(1, [1, 0])],
            rule=ReductionRule.MTBDD,
        )
        assert state.num_terminals == 3


class TestOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(2, 4)
        m = rnd.randint(1, 3)
        tables = [TruthTable.random(n, seed=seed * 10 + j) for j in range(m)]
        fs = run_fs_shared(tables)
        _, bf_cost = brute_force_shared(tables)
        assert fs.mincost == bf_cost

    def test_order_achieves_mincost(self):
        tables = [TruthTable.random(4, seed=20), TruthTable.random(4, seed=21)]
        fs = run_fs_shared(tables)
        assert sum(count_shared_subfunctions(tables, list(fs.order))) == fs.mincost

    def test_single_output_equals_run_fs(self):
        table = TruthTable.random(5, seed=22)
        assert run_fs_shared([table]).mincost == run_fs(table).mincost

    def test_duplicate_outputs_fully_share(self):
        table = TruthTable.random(4, seed=23)
        assert run_fs_shared([table, table, table]).mincost == run_fs(table).mincost

    def test_complement_pair_shares_nothing_without_complement_edges(self):
        # f and ~f have disjoint internal nodes only at levels where their
        # subfunctions differ; the shared cost is between max and sum.
        table = TruthTable.random(4, seed=24)
        shared = run_fs_shared([table, ~table]).mincost
        single = run_fs(table).mincost
        assert single <= shared <= 2 * single

    def test_shared_at_most_sum_of_parts(self):
        tables = [TruthTable.random(4, seed=s) for s in (30, 31, 32)]
        shared = run_fs_shared(tables).mincost
        assert shared <= sum(run_fs(t).mincost for t in tables)

    def test_shared_at_least_each_part(self):
        # The forest contains every node of each output's reduced diagram
        # under the shared ordering, so the union is at least each part.
        tables = [TruthTable.random(4, seed=s) for s in (33, 34)]
        result = run_fs_shared(tables)
        order = list(result.order)
        for t in tables:
            assert result.mincost >= sum(count_subfunctions(t, order))

    def test_zdd_rule(self):
        tables = [TruthTable.random(3, seed=40), TruthTable.random(3, seed=41)]
        fs = run_fs_shared(tables, rule=ReductionRule.ZDD)
        _, bf_cost = brute_force_shared(tables, rule=ReductionRule.ZDD)
        assert fs.mincost == bf_cost

    def test_mtbdd_rule(self):
        tables = [TruthTable.random(3, seed=42, num_values=3),
                  TruthTable.random(3, seed=43, num_values=3)]
        fs = run_fs_shared(tables, rule=ReductionRule.MTBDD)
        _, bf_cost = brute_force_shared(tables, rule=ReductionRule.MTBDD)
        assert fs.mincost == bf_cost


class TestForest:
    def test_roundtrip(self):
        tables = [TruthTable.random(4, seed=50), TruthTable.random(4, seed=51)]
        forest = build_forest(tables, [2, 0, 3, 1])
        assert forest.to_truth_tables() == tables

    def test_mincost_matches_oracle(self):
        tables = [TruthTable.random(4, seed=52), TruthTable.random(4, seed=53)]
        order = [1, 3, 0, 2]
        forest = build_forest(tables, order)
        assert forest.mincost == sum(count_shared_subfunctions(tables, order))

    def test_roots_alias_shared_nodes(self):
        table = TruthTable.random(3, seed=54)
        forest = build_forest([table, table], [0, 1, 2])
        assert forest.roots[0] == forest.roots[1]

    def test_invalid_order(self):
        with pytest.raises(OrderingError):
            build_forest([TruthTable.random(2, seed=0)], [0, 0])

    def test_zdd_forest_roundtrip(self):
        tables = [TruthTable.random(3, seed=55), TruthTable.random(3, seed=56)]
        forest = build_forest(tables, [2, 1, 0], ReductionRule.ZDD)
        assert forest.to_truth_tables() == tables

    def test_size_counts_reachable_terminals(self):
        tables = [TruthTable.constant(2, 1)]
        forest = build_forest(tables, [0, 1])
        assert forest.size == 1  # just the T terminal


class TestOracle:
    def test_single_table_reduces_to_count_subfunctions(self):
        table = TruthTable.random(4, seed=60)
        order = [3, 1, 2, 0]
        assert count_shared_subfunctions([table], order) == count_subfunctions(
            table, order
        )

    def test_pooled_dedup(self):
        # Two outputs with identical subfunctions at a level share width.
        table = TruthTable.random(3, seed=61)
        order = [0, 1, 2]
        single = count_shared_subfunctions([table], order)
        doubled = count_shared_subfunctions([table, table], order)
        assert single == doubled
