"""Unit tests for the table-compaction kernel, checked bit for bit
against the cell-at-a-time ``COMPACT`` oracle."""

import numpy as np
import pytest

from repro.analysis.counters import OperationCounters
from repro.core import ReductionRule, compact, initial_state
from repro.core.spec import FSState
from repro.errors import DimensionError
from repro.truth_table import TruthTable, count_subfunctions
from tests.compact_oracle import compact_python


def assert_same_step(a, b):
    """Kernel and oracle states agree exactly: node count, every table
    cell (node ids included) and, when tracked, every node triple."""
    assert a.mincost == b.mincost
    assert np.array_equal(a.table, b.table)
    assert a.nodes == b.nodes


class TestInitialState:
    def test_table_is_truth_table(self):
        tt = TruthTable.random(3, seed=1)
        state = initial_state(tt)
        assert np.array_equal(state.table, tt.values)
        assert state.mask == 0 and state.mincost == 0 and state.pi == ()

    def test_non_boolean_rejected_for_bdd(self):
        tt = TruthTable(2, [0, 1, 2, 0])
        with pytest.raises(DimensionError):
            initial_state(tt, ReductionRule.BDD)
        with pytest.raises(DimensionError):
            initial_state(tt, ReductionRule.ZDD)

    def test_mtbdd_terminal_mapping(self):
        tt = TruthTable(2, [5, 7, 5, 9])
        state = initial_state(tt, ReductionRule.MTBDD)
        assert state.num_terminals == 3
        # values 5,7,9 -> ids 0,1,2 in increasing order
        assert list(state.table) == [0, 1, 0, 2]

    def test_tracking_flag(self):
        tt = TruthTable.random(2, seed=2)
        assert initial_state(tt).nodes is None
        assert initial_state(tt, track_nodes=True).nodes == {}


class TestStateInvariants:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            FSState(n=3, mask=0b001, pi=(0,), mincost=0,
                    table=np.zeros(8, dtype=np.int64))

    def test_free_mask_and_next_id(self):
        tt = TruthTable.random(3, seed=3)
        state = initial_state(tt)
        assert state.free_mask == 0b111
        assert state.next_id == 2
        after = compact(state, 1)
        assert after.free_mask == 0b101
        assert after.next_id == 2 + after.mincost


class TestCompactBDD:
    def test_single_step_widths(self):
        # Compacting var v counts the distinct dependent subfunctions of v
        # over each assignment to the rest = the bottom-level width.
        tt = TruthTable.random(4, seed=4)
        for v in range(4):
            state = compact(initial_state(tt), v)
            order = [u for u in range(4) if u != v] + [v]
            assert state.mincost == count_subfunctions(tt, order)[3]

    def test_terminal_only_function(self):
        tt = TruthTable.constant(2, 1)
        state = compact(compact(initial_state(tt), 0), 1)
        assert state.mincost == 0
        assert state.table[0] == 1

    def test_chain_total_equals_oracle(self):
        tt = TruthTable.random(5, seed=5)
        order = [3, 1, 4, 0, 2]
        state = initial_state(tt)
        for v in reversed(order):
            state = compact(state, v)
        assert state.mincost == sum(count_subfunctions(tt, order))

    def test_pi_accumulates(self):
        tt = TruthTable.random(3, seed=6)
        state = compact(compact(initial_state(tt), 2), 0)
        assert state.pi == (2, 0)
        assert state.mask == 0b101

    def test_compact_requires_free_variable(self):
        tt = TruthTable.random(3, seed=7)
        state = compact(initial_state(tt), 1)
        with pytest.raises(ValueError):
            compact(state, 1)

    def test_counters(self):
        tt = TruthTable.random(4, seed=8)
        counters = OperationCounters()
        state = compact(initial_state(tt), 0, counters=counters)
        assert counters.compactions == 1
        assert counters.table_cells == 8
        assert counters.nodes_created == state.mincost


class TestCompactZDD:
    def test_zero_suppression(self):
        # f = ~x0 over 1 var: pairs (u0,u1) = (1,0) -> suppressed to u0.
        tt = TruthTable(1, [1, 0])
        state = compact(initial_state(tt, ReductionRule.ZDD), 0,
                        ReductionRule.ZDD)
        assert state.mincost == 0
        assert state.table[0] == 1

    def test_equal_children_not_merged(self):
        # f = 1 (constant): ZDD chain creates a node per level? No -
        # pairs are (1,1): u1 != 0 so a node IS created (ZDD of the
        # full family needs internal nodes).
        tt = TruthTable.constant(1, 1)
        state = compact(initial_state(tt, ReductionRule.ZDD), 0,
                        ReductionRule.ZDD)
        assert state.mincost == 1

    def test_chain_matches_zdd_manager(self):
        from repro.bdd import ZDD

        tt = TruthTable.random(4, seed=9)
        order = [2, 0, 3, 1]
        state = initial_state(tt, ReductionRule.ZDD)
        for v in reversed(order):
            state = compact(state, v, ReductionRule.ZDD)
        z = ZDD(4, order)
        root = z.from_truth_table(tt)
        assert state.mincost == z.size(root, include_terminals=False)


class TestEngineEquivalence:
    @pytest.mark.parametrize("rule", list(ReductionRule))
    @pytest.mark.parametrize("seed", range(4))
    def test_engines_agree_up_to_renaming(self, rule, seed):
        # Both number new nodes by first occurrence, so they agree
        # exactly, which implies agreement up to renaming.
        if rule is ReductionRule.MTBDD:
            tt = TruthTable.random(4, seed=seed, num_values=3)
        else:
            tt = TruthTable.random(4, seed=seed)
        a = initial_state(tt, rule)
        b = initial_state(tt, rule)
        for v in (2, 0, 3):
            a = compact(a, v, rule)
            b = compact_python(b, v, rule)
            assert_same_step(a, b)

    def test_python_engine_counters(self):
        tt = TruthTable.random(3, seed=10)
        counters = OperationCounters()
        compact_python(initial_state(tt), 0, counters=counters)
        assert counters.compactions == 1 and counters.table_cells == 4


class TestEngineEquivalenceCBDD:
    """The CBDD rule rewrites cofactor pairs before dedup (complement
    normalization); these tests compare every edge, complement bits
    included, and the tracked nodes."""

    @pytest.mark.parametrize("seed", range(6))
    def test_cbdd_engines_agree_edge_exactly(self, seed):
        tt = TruthTable.random(4, seed=seed)
        a = initial_state(tt, ReductionRule.CBDD)
        b = initial_state(tt, ReductionRule.CBDD)
        for v in (1, 3, 0, 2):
            a = compact(a, v, ReductionRule.CBDD)
            b = compact_python(b, v, ReductionRule.CBDD)
            assert_same_step(a, b)

    def test_cbdd_complement_pair_shares_node_in_both_engines(self):
        # f and ~f over the last variable normalize to one complement
        # class: both kernels must create a single node for x0 here.
        tt = TruthTable(2, [0, 1, 1, 0])  # x0 XOR x1
        for kernel in (compact, compact_python):
            state = kernel(initial_state(tt, ReductionRule.CBDD), 0,
                           ReductionRule.CBDD)
            assert state.mincost == 1  # one class for {x0, ~x0}

    def test_cbdd_node_tracking_agrees(self):
        tt = TruthTable.random(3, seed=31)
        a = initial_state(tt, ReductionRule.CBDD, track_nodes=True)
        b = initial_state(tt, ReductionRule.CBDD, track_nodes=True)
        for v in (2, 1, 0):
            a = compact(a, v, ReductionRule.CBDD)
            b = compact_python(b, v, ReductionRule.CBDD)
            assert_same_step(a, b)
        assert len(a.nodes) == len(b.nodes) == a.mincost
        for nodes in (a.nodes, b.nodes):
            for _, (var, lo, hi) in nodes.items():
                assert hi & 1 == 0  # 1-edge normalized to regular


class TestEngineEquivalenceMultiRooted:
    """Shared (num_roots > 1) states: the dedup must span all root
    segments identically in both kernels."""

    @pytest.mark.parametrize("rule", [ReductionRule.BDD, ReductionRule.ZDD,
                                      ReductionRule.MTBDD])
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_rooted_engines_agree(self, rule, seed):
        from repro.core.shared import initial_state_shared

        if rule is ReductionRule.MTBDD:
            tables = [TruthTable.random(4, seed=seed, num_values=3),
                      TruthTable.random(4, seed=seed + 50, num_values=3)]
        else:
            tables = [TruthTable.random(4, seed=seed),
                      TruthTable.random(4, seed=seed + 50)]
        a = initial_state_shared(tables, rule)
        b = initial_state_shared(tables, rule)
        assert a.num_roots == 2
        for v in (0, 2, 3, 1):
            a = compact(a, v, rule)
            b = compact_python(b, v, rule)
            assert_same_step(a, b)

    def test_multi_rooted_cbdd_engines_agree(self):
        from repro.core.shared import initial_state_shared

        tables = [TruthTable.random(4, seed=41),
                  TruthTable.random(4, seed=42),
                  TruthTable.random(4, seed=43)]
        a = initial_state_shared(tables, ReductionRule.CBDD)
        b = initial_state_shared(tables, ReductionRule.CBDD)
        assert a.num_roots == 3
        for v in (3, 0, 1, 2):
            a = compact(a, v, ReductionRule.CBDD)
            b = compact_python(b, v, ReductionRule.CBDD)
            assert_same_step(a, b)

    def test_cross_root_sharing_counted_once_by_both_engines(self):
        # Identical outputs: the shared diagram is the single-output one,
        # so the joint dedup must collapse the duplicate segment fully.
        from repro.core.shared import initial_state_shared

        tt = TruthTable.random(3, seed=44)
        shared = initial_state_shared([tt, tt])
        single = initial_state(tt)
        for v in (2, 0, 1):
            shared_np = compact(shared, v)
            shared_py = compact_python(shared, v)
            single = compact(single, v)
            assert_same_step(shared_np, shared_py)
            assert shared_np.mincost == single.mincost
            shared = shared_np


class TestNodeTracking:
    def test_tracked_nodes_are_consistent_triples(self):
        tt = TruthTable.random(4, seed=11)
        state = oracle = initial_state(tt, track_nodes=True)
        for v in (3, 1, 0, 2):
            state = compact(state, v)
            oracle = compact_python(oracle, v)
            assert_same_step(state, oracle)
        assert state.nodes is not None
        assert len(state.nodes) == state.mincost
        for node_id, (var, lo, hi) in state.nodes.items():
            assert node_id >= 2
            assert lo != hi  # BDD rule: no redundant nodes tracked
            assert lo < node_id and hi < node_id  # children created earlier

    def test_cross_level_pairs_not_merged(self):
        # Regression for the NODE-membership subtlety (see compaction.py):
        # f = x2 ? x0 : x1 has nodes x0=(F,T) and x1=(F,T) at different
        # levels; a literal reading of the paper's pseudo code would merge
        # them and undercount.
        tt = TruthTable.from_callable(3, lambda a, b, c: a if c else b)
        state = initial_state(tt)
        state = compact(state, 0)
        state = compact(state, 1)
        assert state.mincost == 2  # x0 node AND x1 node, not shared
        state = compact(state, 2)
        assert state.mincost == 3
