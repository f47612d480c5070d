"""Unit tests for the brute-force baseline."""

import math


from repro.core import ReductionRule, brute_force_operation_bound, brute_force_optimal
from repro.functions import achilles_good_size, achilles_heel, parity
from repro.truth_table import TruthTable, count_subfunctions


class TestSearch:
    def test_evaluates_all_orderings(self):
        result = brute_force_optimal(TruthTable.random(4, seed=1))
        assert result.orderings_evaluated == math.factorial(4)

    def test_best_order_achieves_mincost(self):
        tt = TruthTable.random(4, seed=2)
        result = brute_force_optimal(tt)
        assert sum(count_subfunctions(tt, list(result.order))) == result.mincost

    def test_all_optimal_have_equal_cost(self):
        tt = TruthTable.random(4, seed=3)
        result = brute_force_optimal(tt)
        for order in result.all_optimal:
            assert sum(count_subfunctions(tt, list(order))) == result.mincost

    def test_collect_all_flag(self):
        tt = parity(3)  # symmetric: every ordering optimal
        with_all = brute_force_optimal(tt, collect_all=True)
        without = brute_force_optimal(tt, collect_all=False)
        assert len(with_all.all_optimal) == 6
        assert len(without.all_optimal) == 1
        assert with_all.mincost == without.mincost

    def test_achilles(self):
        result = brute_force_optimal(achilles_heel(2))
        assert result.size == achilles_good_size(2)

    def test_size_property(self):
        result = brute_force_optimal(TruthTable.random(3, seed=4))
        assert result.size == result.mincost + 2

    def test_zdd_rule(self):
        tt = TruthTable.random(3, seed=5)
        result = brute_force_optimal(tt, rule=ReductionRule.ZDD)
        from repro.bdd import ZDD

        z = ZDD(3, list(result.order))
        assert z.size(z.from_truth_table(tt), include_terminals=False) == result.mincost

    def test_counters_accumulate(self):
        result = brute_force_optimal(TruthTable.random(3, seed=6))
        # 3! chains of (4 + 2 + 1) cells each
        assert result.counters.table_cells == 6 * 7


class TestBound:
    def test_operation_bound(self):
        assert brute_force_operation_bound(4) == 24 * 16

    def test_bound_dominates_measured(self):
        n = 4
        result = brute_force_optimal(TruthTable.random(n, seed=7))
        assert result.counters.table_cells <= brute_force_operation_bound(n)
