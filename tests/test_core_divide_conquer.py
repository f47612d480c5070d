"""Unit tests for Lemma 9 and OptOBDD(k, alpha)."""

import random

import pytest

from repro.analysis.counters import OperationCounters
from repro.core import (
    ReductionRule,
    THEOREM10_ALPHAS,
    effective_levels,
    mincost_by_split,
    opt_obdd,
    run_fs,
)
from repro.errors import DimensionError
from repro.functions import achilles_heel
from repro.quantum import QuantumMinimumFinder, QueryLedger
from repro.truth_table import TruthTable, count_subfunctions


class TestLemma9:
    @pytest.mark.parametrize("seed", range(4))
    def test_identity_at_every_division_point(self, seed):
        n = 5
        tt = TruthTable.random(n, seed=seed)
        optimum = run_fs(tt).mincost
        for k in range(n + 1):
            assert mincost_by_split(tt, k).mincost == optimum

    def test_identity_for_zdd(self):
        tt = TruthTable.random(4, seed=10)
        optimum = run_fs(tt, rule=ReductionRule.ZDD).mincost
        assert mincost_by_split(tt, 2, rule=ReductionRule.ZDD).mincost == optimum

    def test_per_split_upper_bounds(self):
        # Every split cost upper-bounds the optimum; the best one attains it.
        tt = TruthTable.random(5, seed=11)
        optimum = run_fs(tt).mincost
        check = mincost_by_split(tt, 2)
        assert all(cost >= optimum for cost in check.per_split.values())
        assert check.per_split[check.best_kmask] == optimum

    def test_division_point_range_checked(self):
        with pytest.raises(DimensionError):
            mincost_by_split(TruthTable.random(3, seed=0), 4)


class TestEffectiveLevels:
    def test_strictly_increasing(self):
        levels = effective_levels(20, THEOREM10_ALPHAS)
        assert levels == sorted(set(levels))
        assert all(1 <= lv < 20 for lv in levels)

    def test_small_n_collapses(self):
        levels = effective_levels(3, THEOREM10_ALPHAS)
        assert levels == [1, 2] or levels == [1]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            effective_levels(10, [0.5, 0.2])
        with pytest.raises(ValueError):
            effective_levels(10, [0.0, 0.5])

    def test_rounding(self):
        assert effective_levels(10, [0.18, 0.34]) == [2, 3]


class TestOptOBDD:
    @pytest.mark.parametrize("seed", range(6))
    def test_optimal_with_classical_finder(self, seed):
        n = 3 + seed % 4
        tt = TruthTable.random(n, seed=seed + 20)
        result = opt_obdd(tt)
        assert result.mincost == run_fs(tt).mincost

    def test_order_achieves_mincost(self):
        tt = TruthTable.random(6, seed=26)
        result = opt_obdd(tt)
        assert sum(count_subfunctions(tt, list(result.order))) == result.mincost

    def test_custom_alphas(self):
        tt = TruthTable.random(6, seed=27)
        result = opt_obdd(tt, alphas=(0.3, 0.6))
        assert result.mincost == run_fs(tt).mincost
        assert result.levels == (2, 4)

    def test_achilles(self):
        result = opt_obdd(achilles_heel(3))
        assert result.size == 8

    def test_zdd_rule(self):
        tt = TruthTable.random(5, seed=28)
        result = opt_obdd(tt, rule=ReductionRule.ZDD)
        assert result.mincost == run_fs(tt, rule=ReductionRule.ZDD).mincost

    def test_tiny_n_falls_back(self):
        tt = TruthTable.random(1, seed=29)
        result = opt_obdd(tt)
        assert result.mincost == run_fs(tt).mincost


class TestQuantumFinderIntegration:
    def test_exact_mode_charges_ledger(self):
        ledger = QueryLedger()
        finder = QuantumMinimumFinder(ledger=ledger, epsilon=1e-4,
                                      rng=random.Random(0))
        tt = TruthTable.random(6, seed=30)
        result = opt_obdd(tt, finder=finder)
        assert result.mincost == run_fs(tt).mincost
        assert ledger.total > 0
        assert ledger.invocations >= 1

    def test_counters_record_queries(self):
        counters = OperationCounters()
        finder = QuantumMinimumFinder(epsilon=1e-4, rng=random.Random(1),
                                      counters=counters)
        tt = TruthTable.random(5, seed=31)
        opt_obdd(tt, finder=finder, counters=counters)
        assert counters.oracle_queries > 0

    def test_sampled_mode_output_always_valid(self):
        # Theorem 1: the produced DD is always valid; optimal w.h.p.
        finder = QuantumMinimumFinder(epsilon=0.05, mode="sampled",
                                      rng=random.Random(2))
        tt = TruthTable.random(5, seed=32)
        result = opt_obdd(tt, finder=finder)
        # the ordering is a permutation and the cost is what that
        # ordering actually achieves
        assert sorted(result.order) == list(range(5))
        assert sum(count_subfunctions(tt, list(result.order))) == result.mincost

    def test_sampled_mode_usually_optimal(self):
        optimum_hits = 0
        tt = TruthTable.random(5, seed=33)
        optimum = run_fs(tt).mincost
        for trial in range(10):
            finder = QuantumMinimumFinder(epsilon=0.01, mode="sampled",
                                          rng=random.Random(trial))
            if opt_obdd(tt, finder=finder).mincost == optimum:
                optimum_hits += 1
        assert optimum_hits >= 8
