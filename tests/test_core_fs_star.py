"""Unit tests for FS* (Lemma 8, the composable variant)."""

import pytest

from repro._bitops import bits_of, popcount
from repro.analysis.complexity import fs_star_table_cells
from repro.analysis.counters import OperationCounters
from repro.core import (
    ReductionRule,
    fs_star_levels,
    initial_state,
    run_fs,
    run_fs_star,
)
from repro.errors import DimensionError
from repro.truth_table import TruthTable, count_subfunctions


class TestFromEmptyBase:
    def test_full_run_equals_fs(self):
        tt = TruthTable.random(5, seed=1)
        base = initial_state(tt)
        final = run_fs_star(base, 0b11111)
        assert final.mincost == run_fs(tt).mincost

    def test_empty_j_is_identity(self):
        tt = TruthTable.random(3, seed=2)
        base = initial_state(tt)
        assert run_fs_star(base, 0) is base

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_levels_are_constrained_optima(self, k):
        # FS*(upto=k) yields MINCOST_K for every K: check against a chain
        # minimum computed by brute force over orderings of K.
        import itertools

        tt = TruthTable.random(4, seed=3)
        base = initial_state(tt)
        levels = fs_star_levels(base, 0b1111, upto=k)
        for kmask, state in levels.items():
            members = bits_of(kmask)
            best = None
            for perm in itertools.permutations(members):
                order = [v for v in range(4) if v not in perm] + list(
                    reversed(perm)
                )
                widths = count_subfunctions(tt, order)
                cost = sum(widths[4 - len(perm):])
                best = cost if best is None else min(best, cost)
            assert state.mincost == best


class TestFromNonEmptyBase:
    def test_extension_respects_base_chain(self):
        # Extending {0} by {1,2}: result mincost must be the constrained
        # minimum over orderings whose bottom variable is 0.
        import itertools

        tt = TruthTable.random(3, seed=4)
        from repro.core import compact

        base = compact(initial_state(tt), 0)
        final = run_fs_star(base, 0b110)
        best = None
        for perm in itertools.permutations([1, 2]):
            order = list(reversed(perm)) + [0]
            order = [v for v in range(3) if v not in order] + order
            cost = sum(count_subfunctions(tt, order))
            best = cost if best is None else min(best, cost)
        assert final.mincost == best

    def test_overlap_rejected(self):
        tt = TruthTable.random(3, seed=5)
        from repro.core import compact

        base = compact(initial_state(tt), 1)
        with pytest.raises(DimensionError):
            run_fs_star(base, 0b010)

    def test_out_of_range_mask_rejected(self):
        tt = TruthTable.random(3, seed=6)
        base = initial_state(tt)
        with pytest.raises(DimensionError):
            run_fs_star(base, 0b11000)

    def test_upto_out_of_range(self):
        tt = TruthTable.random(3, seed=7)
        with pytest.raises(ValueError):
            fs_star_levels(initial_state(tt), 0b111, upto=4)


class TestLemma7:
    def test_recurrence_on_every_subset(self):
        # MINCOST_(I, J) computed by FS* equals the Lemma 7 minimum over
        # last-placed variables.
        tt = TruthTable.random(4, seed=8)
        base = initial_state(tt)
        j_mask = 0b1111
        all_levels = {}
        for k in range(popcount(j_mask) + 1):
            all_levels.update(fs_star_levels(base, j_mask, upto=k))
        from repro.core import compact

        for kmask, state in all_levels.items():
            if kmask == 0:
                continue
            candidates = [
                compact(all_levels[kmask & ~(1 << i)], i).mincost
                for i in bits_of(kmask)
            ]
            assert state.mincost == min(candidates)


class TestComplexity:
    def test_cell_count_closed_form(self):
        tt = TruthTable.random(5, seed=9)
        from repro.core import compact

        base = compact(initial_state(tt), 0)
        counters = OperationCounters()
        run_fs_star(base, 0b11110, counters=counters)
        assert counters.table_cells == fs_star_table_cells(5, 1, 4)

    def test_partial_run_cheaper(self):
        tt = TruthTable.random(5, seed=10)
        base = initial_state(tt)
        full = OperationCounters()
        partial = OperationCounters()
        fs_star_levels(base, 0b11111, counters=full)
        fs_star_levels(base, 0b11111, counters=partial, upto=2)
        assert partial.table_cells < full.table_cells


class TestRules:
    @pytest.mark.parametrize("rule", [ReductionRule.BDD, ReductionRule.ZDD])
    def test_full_run_equals_fs_for_rule(self, rule):
        tt = TruthTable.random(4, seed=11)
        base = initial_state(tt, rule)
        assert (
            run_fs_star(base, 0b1111, rule).mincost
            == run_fs(tt, rule=rule).mincost
        )
