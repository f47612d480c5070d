"""Unit tests for variable influence and the shortest-path query."""

import random

import pytest

from repro.analysis import (
    dead_variables,
    influence,
    influence_order,
    influences,
    total_influence,
)
from repro.bdd import BDD
from repro.core import run_fs
from repro.errors import DimensionError
from repro.functions import multiplexer, parity, threshold
from repro.truth_table import TruthTable, count_subfunctions


class TestInfluence:
    def test_parity_saturates(self):
        assert influences(parity(5)) == [1.0] * 5

    def test_and_gate(self):
        table = TruthTable.from_callable(2, lambda a, b: a & b)
        assert influences(table) == [0.5, 0.5]

    def test_dead_variable_zero(self):
        table = TruthTable.from_callable(3, lambda a, b, c: a ^ c)
        assert influence(table, 1) == 0.0
        assert dead_variables(table) == [1]

    def test_range_checked(self):
        with pytest.raises(DimensionError):
            influence(TruthTable.random(2, seed=0), 2)

    def test_total_influence_bounds(self):
        table = TruthTable.random(5, seed=1)
        total = total_influence(table)
        assert 0.0 <= total <= 5.0

    def test_influence_is_flip_probability(self):
        table = TruthTable.random(4, seed=2)
        for var in range(4):
            flips = 0
            for a in range(16):
                if table.evaluate_packed(a) != table.evaluate_packed(
                    a ^ (1 << var)
                ):
                    flips += 1
            assert influence(table, var) == flips / 16

    def test_symmetric_function_uniform_influence(self):
        values = influences(threshold(5, 3))
        assert len(set(values)) == 1


class TestInfluenceOrder:
    def test_selects_lead_in_multiplexer(self):
        order = influence_order(multiplexer(2))
        assert set(order[:2]) == {0, 1}

    def test_descending_flag(self):
        table = TruthTable.from_callable(3, lambda a, b, c: (a & b) | c)
        descending = influence_order(table)
        ascending = influence_order(table, descending=False)
        assert descending[0] == ascending[-1] == 2  # x2 most influential

    def test_heuristic_quality_on_multiplexer(self):
        # For the mux, influence ordering matches the optimal family
        # (selects first): it achieves the exact optimum.
        table = multiplexer(2)
        cost = sum(count_subfunctions(table, influence_order(table)))
        assert cost == run_fs(table).mincost

    def test_no_better_than_optimum(self):
        for seed in range(4):
            table = TruthTable.random(5, seed=seed + 10)
            cost = sum(count_subfunctions(table, influence_order(table)))
            assert cost >= run_fs(table).mincost


class TestShortestSat:
    def test_prefers_cheap_branch(self):
        mgr = BDD(3)
        f = mgr.apply_or(
            mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2)
        )
        assignment = mgr.shortest_sat(f)
        assert assignment == (0, 0, 1)

    def test_constants(self):
        mgr = BDD(2)
        assert mgr.shortest_sat(mgr.false) is None
        assert mgr.shortest_sat(mgr.true) == (0, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_minimality_vs_enumeration(self, seed):
        rnd = random.Random(seed)
        n = rnd.randint(1, 5)
        table = TruthTable.random(n, seed=seed + 20)
        mgr = BDD(n)
        root = mgr.from_truth_table(table)
        assignment = mgr.shortest_sat(root)
        if table.count_ones() == 0:
            assert assignment is None
        else:
            assert table(*assignment) == 1
            assert sum(assignment) == min(
                bin(a).count("1") for a in table.ones()
            )

    def test_skipped_variables_default_zero(self):
        mgr = BDD(4)
        f = mgr.var(3)  # levels 0-2 skipped
        assert mgr.shortest_sat(f) == (0, 0, 0, 1)
