"""Edge cases and failure-path tests across the library."""

import math

import pytest

from repro import (
    BDD,
    ReductionRule,
    TruthTable,
    brute_force_optimal,
    build_diagram,
    opt_obdd,
    run_fs,
)
from repro.analysis.reproduce import Check, render_report, run_reproduction
from repro.core import run_fs_star, initial_state
from repro.core.divide_conquer import effective_levels, opt_obdd_extend
from repro.truth_table import count_subfunctions, obdd_size


class TestDegenerateFunctions:
    """Constants, single variables, duplicated structure."""

    @pytest.mark.parametrize("value", [0, 1])
    def test_constants_all_rules(self, value):
        table = TruthTable.constant(4, value)
        for rule in (ReductionRule.BDD, ReductionRule.CBDD,
                     ReductionRule.MTBDD):
            assert run_fs(table, rule=rule).mincost == 0
        # ZDDs are the exception: constant 1 is the family of ALL subsets,
        # which needs one node per variable (constant 0 is free).
        expected_zdd = 4 if value == 1 else 0
        assert run_fs(table, rule=ReductionRule.ZDD).mincost == expected_zdd

    def test_zero_variable_function(self):
        table = TruthTable(0, [1])
        result = run_fs(table)
        assert result.order == () and result.mincost == 0
        assert result.size == 2  # both terminal ids exist even if unused

    def test_function_ignoring_some_variables(self):
        # f depends on x1 only; dead variables cost nothing anywhere.
        table = TruthTable.from_callable(4, lambda a, b, c, d: b)
        result = run_fs(table)
        assert result.mincost == 1
        widths = count_subfunctions(table, list(result.order))
        assert sum(widths) == 1

    def test_all_variables_dead(self):
        table = TruthTable.constant(5, 1)
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]):
            assert obdd_size(table, order, include_terminals=False) == 0

    def test_one_minterm_function(self):
        # A single minterm: exactly n nodes under every ordering.
        table = TruthTable.from_minterms(4, [0b1010])
        sizes = {
            sum(count_subfunctions(table, list(p)))
            for p in __import__("itertools").permutations(range(4))
        }
        assert sizes == {4}


class TestNumericalRobustness:
    def test_large_n_widths_do_not_overflow(self):
        table = TruthTable.random(12, seed=1)
        widths = count_subfunctions(table, list(range(12)))
        assert len(widths) == 12
        assert all(w >= 0 for w in widths)

    def test_fs_n1(self):
        for values in ([0, 1], [1, 0], [0, 0], [1, 1]):
            result = run_fs(TruthTable(1, values))
            assert result.mincost == (0 if values[0] == values[1] else 1)

    def test_fs_star_from_full_chain_is_noop_state(self):
        table = TruthTable.random(3, seed=2)
        state = initial_state(table)
        from repro.core import compact

        for var in (2, 1, 0):
            state = compact(state, var)
        assert run_fs_star(state, 0) is state

    def test_effective_levels_n2(self):
        # Smallest n where a division point exists at all.
        assert effective_levels(2, [0.2, 0.4]) == [1]

    def test_opt_obdd_extend_empty_j(self):
        table = TruthTable.random(3, seed=3)
        base = initial_state(table)
        assert opt_obdd_extend(base, 0, [0.3]) is base


class TestResultConsistencyAcrossAlgorithms:
    @pytest.mark.parametrize("seed", range(4))
    def test_five_algorithms_one_answer(self, seed):
        from repro.core.astar import astar_optimal_ordering
        from repro.analysis.symmetry import brute_force_up_to_symmetry

        table = TruthTable.random(4, seed=40 + seed)
        reference = run_fs(table).mincost
        assert brute_force_optimal(table).mincost == reference
        assert astar_optimal_ordering(table).mincost == reference
        assert opt_obdd(table).mincost == reference
        assert brute_force_up_to_symmetry(table)[1] == reference


class TestDiagramEdgeCases:
    def test_diagram_of_dead_variable_function(self):
        table = TruthTable.from_callable(3, lambda a, b, c: a)
        diagram = build_diagram(table, [1, 2, 0])
        assert diagram.mincost == 1
        assert diagram.level_widths() == [0, 0, 1]
        assert diagram.to_truth_table() == table

    def test_diagram_unreachable_terminal(self):
        # Tautology: F terminal not reachable; size counts only T.
        diagram = build_diagram(TruthTable.constant(2, 1), [0, 1])
        assert diagram.size == 1

    def test_manager_order_affects_node_identity_not_semantics(self):
        table = TruthTable.random(4, seed=60)
        a = BDD(4, [0, 1, 2, 3])
        b = BDD(4, [3, 2, 1, 0])
        ra, rb = a.from_truth_table(table), b.from_truth_table(table)
        assert a.to_truth_table(ra) == b.to_truth_table(rb)


class TestReproductionRunner:
    def test_quick_mode_all_pass(self):
        checks = run_reproduction(quick=True)
        assert all(c.passed for c in checks)
        assert len(checks) >= 20

    def test_report_rendering(self):
        checks = [
            Check("alpha", "1", "1", True),
            Check("beta", "2", "3", False),
        ]
        report = render_report(checks)
        assert "[PASS] alpha" in report
        assert "[FAIL] beta" in report
        assert "1/2 checks passed" in report

    def test_full_mode_includes_theorem5(self):
        checks = run_reproduction(quick=False)
        names = [c.name for c in checks]
        assert any("Theorem 5" in name for name in names)
        assert all(c.passed for c in checks)


class TestCounterPropagation:
    def test_counters_flow_through_opt_obdd(self):
        from repro.analysis.counters import OperationCounters

        counters = OperationCounters()
        table = TruthTable.random(5, seed=70)
        opt_obdd(table, counters=counters)
        assert counters.table_cells > 0
        assert counters.compactions > 0
        assert counters.subsets_processed > 0

    def test_counters_flow_through_shared(self):
        from repro.analysis.counters import OperationCounters
        from repro.core import run_fs_shared

        counters = OperationCounters()
        tables = [TruthTable.random(3, seed=71), TruthTable.random(3, seed=72)]
        run_fs_shared(tables, counters=counters)
        # Each compaction writes num_roots * segment cells.
        assert counters.table_cells == 2 * sum(
            math.comb(3, k) * k * (1 << (3 - k)) for k in range(1, 4)
        )
