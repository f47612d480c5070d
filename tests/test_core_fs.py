"""Unit tests for algorithm FS (the exact O*(3^n) DP, Theorem 5)."""

import math

import pytest

from repro.analysis.complexity import fs_table_cells
from repro.core import (
    ReductionRule,
    brute_force_optimal,
    find_optimal_ordering,
    run_fs,
)
from repro.functions import (
    achilles_good_size,
    achilles_heel,
    hidden_weighted_bit,
    majority,
    multiplexer,
    parity,
)
from repro.truth_table import TruthTable, count_subfunctions, obdd_size


class TestOptimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_random(self, seed):
        n = 2 + seed % 4
        tt = TruthTable.random(n, seed=seed)
        assert run_fs(tt).mincost == brute_force_optimal(tt).mincost

    @pytest.mark.parametrize("seed", range(6))
    def test_returned_order_achieves_mincost(self, seed):
        tt = TruthTable.random(5, seed=50 + seed)
        result = run_fs(tt)
        assert sum(count_subfunctions(tt, list(result.order))) == result.mincost

    def test_all_optimal_orderings_match_brute_force(self):
        tt = TruthTable.random(4, seed=60)
        fs = run_fs(tt)
        bf = brute_force_optimal(tt)
        assert set(fs.optimal_orderings()) == set(bf.all_optimal)

    def test_every_enumerated_optimum_achieves_mincost(self):
        tt = TruthTable.random(4, seed=61)
        fs = run_fs(tt)
        for order in fs.optimal_orderings():
            assert sum(count_subfunctions(tt, list(order))) == fs.mincost


class TestKnownFunctions:
    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_achilles_heel_optimum(self, pairs):
        result = run_fs(achilles_heel(pairs))
        assert result.size == achilles_good_size(pairs)

    def test_achilles_optimal_orders_keep_pairs_adjacent(self):
        result = run_fs(achilles_heel(3))
        for order in result.optimal_orderings():
            positions = {v: i for i, v in enumerate(order)}
            for pair in range(3):
                assert abs(positions[2 * pair] - positions[2 * pair + 1]) == 1

    def test_parity_symmetric(self):
        result = run_fs(parity(5))
        assert result.mincost == 9  # 2n - 1 internal nodes

    def test_majority(self):
        # Symmetric: width profile is the Pascal-triangle-with-merging one.
        result = run_fs(majority(5))
        assert result.mincost == sum(count_subfunctions(majority(5), [0, 1, 2, 3, 4]))

    def test_multiplexer_optimum_reads_selects_first(self):
        table = multiplexer(2)  # 2 selects + 4 data = 6 vars
        result = run_fs(table)
        # Optimal: selects (vars 0,1) at the top, data below: 3 + 4 internal.
        assert result.mincost == 7
        assert set(result.order[:2]) == {0, 1}

    def test_hidden_weighted_bit(self):
        table = hidden_weighted_bit(5)
        result = run_fs(table)
        assert result.mincost == brute_force_optimal(table).mincost

    def test_constant_function(self):
        result = run_fs(TruthTable.constant(3, 0))
        assert result.mincost == 0
        assert result.size == 2  # num_terminals is 2 for Boolean rules

    def test_single_variable(self):
        result = run_fs(TruthTable.projection(1, 0))
        assert result.mincost == 1 and result.order == (0,)


class TestResultFields:
    def test_pi_is_reverse_of_order(self):
        result = run_fs(TruthTable.random(4, seed=70))
        assert tuple(reversed(result.pi)) == result.order

    def test_mincost_by_subset_complete(self):
        n = 4
        result = run_fs(TruthTable.random(n, seed=71))
        assert set(result.mincost_by_subset) == set(range(1 << n))
        assert result.mincost_by_subset[0] == 0
        assert result.mincost_by_subset[(1 << n) - 1] == result.mincost

    def test_mincost_monotone_in_subsets(self):
        result = run_fs(TruthTable.random(4, seed=72))
        for mask, cost in result.mincost_by_subset.items():
            for i in range(4):
                if mask & (1 << i):
                    assert cost >= result.mincost_by_subset[mask & ~(1 << i)]

    def test_best_last_is_member(self):
        result = run_fs(TruthTable.random(4, seed=73))
        for mask, var in result.best_last.items():
            assert mask & (1 << var)

    def test_level_cost_consistency(self):
        # MINCOST_I == MINCOST_{I\i*} + Cost_{i*} for the recorded i*.
        result = run_fs(TruthTable.random(4, seed=74))
        for mask, var in result.best_last.items():
            prev = mask & ~(1 << var)
            assert (
                result.mincost_by_subset[prev] + result.level_cost(prev, var)
                == result.mincost_by_subset[mask]
            )

    def test_lemma4_recurrence_holds_everywhere(self):
        from repro._bitops import bits_of

        result = run_fs(TruthTable.random(5, seed=75))
        for mask, cost in result.mincost_by_subset.items():
            if mask == 0:
                continue
            best = min(
                result.mincost_by_subset[mask & ~(1 << i)]
                + result.level_cost(mask & ~(1 << i), i)
                for i in bits_of(mask)
            )
            assert cost == best


class TestComplexityAccounting:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cell_count_closed_form(self, n):
        result = run_fs(TruthTable.random(n, seed=n))
        assert result.counters.table_cells == fs_table_cells(n)

    def test_cell_closed_form_identity(self):
        # sum_k C(n,k) k 2^{n-k} == n 3^{n-1}
        for n in range(1, 12):
            assert fs_table_cells(n) == n * 3 ** (n - 1)

    def test_subsets_processed(self):
        n = 5
        result = run_fs(TruthTable.random(n, seed=80))
        assert result.counters.subsets_processed == (1 << n) - 1


class TestRules:
    def test_zdd_optimum_vs_bruteforce(self):
        tt = TruthTable.random(4, seed=81)
        assert (
            run_fs(tt, rule=ReductionRule.ZDD).mincost
            == brute_force_optimal(tt, rule=ReductionRule.ZDD).mincost
        )

    def test_mtbdd_optimum_vs_bruteforce(self):
        tt = TruthTable.random(4, seed=82, num_values=3)
        assert (
            run_fs(tt, rule=ReductionRule.MTBDD).mincost
            == brute_force_optimal(tt, rule=ReductionRule.MTBDD).mincost
        )

    def test_mtbdd_on_boolean_equals_bdd(self):
        tt = TruthTable.random(4, seed=83)
        assert run_fs(tt).mincost == run_fs(tt, rule=ReductionRule.MTBDD).mincost

    def test_bad_engine(self):
        with pytest.raises(TypeError):
            run_fs(TruthTable.random(2, seed=0), engine="numpy")

    def test_frontier_store_kwarg_is_gone(self):
        with pytest.raises(TypeError, match="frontier_store"):
            run_fs(TruthTable.random(2, seed=0), frontier_store="packed")


class TestFrontEnd:
    def test_find_from_callable(self):
        result = find_optimal_ordering(lambda a, b, c: a & (b | c), n=3)
        assert result.mincost == 3

    def test_find_from_expression(self):
        from repro.expr import parse

        result = find_optimal_ordering(parse("x0 & x1 | x2 & x3"))
        assert result.size == 6

    def test_find_from_bdd_node(self):
        from repro.bdd import BDD

        mgr = BDD(3)
        f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2))
        result = find_optimal_ordering((mgr, f))
        assert result.mincost == 3

    def test_find_truth_table_passthrough(self):
        tt = TruthTable.random(3, seed=84)
        assert find_optimal_ordering(tt).mincost == run_fs(tt).mincost
