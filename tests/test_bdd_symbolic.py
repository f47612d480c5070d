"""Unit tests for symbolic state traversal."""

import random

import pytest

from repro.bdd import BDD
from repro.bdd.node import FALSE
from repro.bdd.symbolic import TransitionSystem, rename
from repro.core import run_fs
from repro.errors import DimensionError


def explicit_bfs(successors, initial, num_states):
    seen = set(initial)
    frontier = set(initial)
    while frontier:
        nxt = {b for a in frontier for b in successors.get(a, [])} - seen
        seen |= nxt
        frontier = nxt
    return seen


class TestRename:
    def test_basic_substitution(self):
        manager = BDD(4)
        f = manager.apply_and(manager.var(2), manager.var(3))
        g = rename(manager, f, {2: 0, 3: 1})
        assert g == manager.apply_and(manager.var(0), manager.var(1))

    def test_overlap_rejected(self):
        manager = BDD(3)
        with pytest.raises(DimensionError):
            rename(manager, manager.var(0), {0: 1, 1: 2})

    def test_rename_preserves_semantics(self):
        manager = BDD(4)
        f = manager.apply_xor(manager.var(2), manager.apply_and(
            manager.var(3), manager.var(2)))
        g = rename(manager, f, {2: 0, 3: 1})
        for a in range(4):
            bits = [a & 1, (a >> 1) & 1, 0, 0]
            swapped = [0, 0, a & 1, (a >> 1) & 1]
            assert manager.evaluate(g, bits) == manager.evaluate(f, swapped)


class TestTransitionSystem:
    def test_single_edge(self):
        ts = TransitionSystem(2)
        ts.add_transition(1, 3)
        img = ts.image(ts.state_cube(1))
        assert ts.states_in(img) == {3}

    def test_state_set_roundtrip(self):
        ts = TransitionSystem(3)
        states = {0, 3, 5}
        assert ts.states_in(ts.state_set(states)) == states
        assert ts.count_states(ts.state_set(states)) == 3

    def test_image_of_empty(self):
        ts = TransitionSystem(2)
        ts.add_transition(0, 1)
        assert ts.image(FALSE) == FALSE

    @pytest.mark.parametrize("seed", range(6))
    def test_reachability_matches_explicit_bfs(self, seed):
        rnd = random.Random(seed)
        k = rnd.randint(2, 4)
        N = 1 << k
        successors = {}
        for _ in range(3 * N):
            a, b = rnd.randrange(N), rnd.randrange(N)
            successors.setdefault(a, []).append(b)
        ts = TransitionSystem.from_successor_function(
            k, lambda s: successors.get(s, [])
        )
        initial = {rnd.randrange(N)}
        result = ts.reachable(initial)
        expected = explicit_bfs(successors, initial, N)
        assert ts.states_in(result.states) == expected
        assert result.num_states == len(expected)

    def test_iteration_count_is_bfs_depth(self):
        # A straight line 0 -> 1 -> 2 -> 3 needs 4 image steps (the last
        # one discovering nothing).
        ts = TransitionSystem(2)
        for s in range(3):
            ts.add_transition(s, s + 1)
        result = ts.reachable([0])
        assert result.num_states == 4
        assert result.iterations == 4
        assert result.frontier_sizes[-1] == 1  # FALSE terminal only

    def test_preimage_inverts_image(self):
        ts = TransitionSystem(3)
        for s in range(8):
            ts.add_transition(s, (s * 3 + 1) % 8)
        target = {2, 5}
        pre = ts.states_in(ts.preimage(ts.state_set(target)))
        expected = {s for s in range(8) if ((s * 3 + 1) % 8) in target}
        assert pre == expected

    def test_safety_verification(self):
        # Counter modulo 6 over 3 bits: states 6 and 7 unreachable.
        ts = TransitionSystem.from_successor_function(
            3, lambda s: [(s + 1) % 6] if s < 6 else [s]
        )
        assert not ts.can_reach([0], [6])
        assert not ts.can_reach([0], [7])
        assert ts.can_reach([0], [5])

    def test_reachable_set_feeds_optimizer(self):
        ts = TransitionSystem.from_successor_function(
            3, lambda s: [(s + 2) % 8]
        )
        table = ts.reachable_set_table([0])
        assert table.count_ones() == 4  # even states
        result = run_fs(table)
        assert result.mincost >= 1

    def test_validation(self):
        with pytest.raises(DimensionError):
            TransitionSystem(0)
