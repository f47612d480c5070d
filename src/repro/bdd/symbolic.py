"""Symbolic state-space traversal: the formal-verification workload.

OBDDs earned their place in VLSI/verification through symbolic model
checking: sets of states as characteristic functions, transitions as a
relation over (current, next) variable pairs, reachability as a fixpoint
of image computations.  This module provides that workflow on the
:class:`~repro.bdd.manager.BDD` substrate — and since state sets are just
Boolean functions, the optimal-ordering machinery applies to them
directly (the example and benches do exactly that).

Variable convention: a system with ``k`` state bits uses variables
``0..k-1`` for the current state and ``k..2k-1`` for the next state
(bit ``i`` pairs with ``k + i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from ..errors import DimensionError
from ..truth_table import TruthTable
from .manager import BDD
from .node import FALSE, TRUE


def rename(manager: BDD, u: int, mapping: Dict[int, int]) -> int:
    """Simultaneously substitute variables per ``mapping`` (old -> new).

    Implemented as sequential composition, which is sound here because no
    replacement variable is itself a key of the mapping (checked).
    """
    keys = set(mapping)
    values = set(mapping.values())
    if keys & values:
        raise DimensionError(
            "rename mapping must not replace a variable with another "
            f"variable being replaced (overlap: {sorted(keys & values)})"
        )
    result = u
    for old, new in mapping.items():
        result = manager.compose(result, old, manager.var(new))
    return result


@dataclass
class ReachabilityResult:
    """Outcome of a reachability fixpoint."""

    states: int
    """BDD node of the reachable-set characteristic function."""

    iterations: int
    num_states: int
    frontier_sizes: List[int]
    """BDD sizes of the frontier after each image step (the classic
    "BDD blow-up during traversal" curve)."""


class TransitionSystem:
    """A finite state system with ``state_bits`` bits, given symbolically."""

    def __init__(self, state_bits: int,
                 order: Optional[Sequence[int]] = None) -> None:
        if state_bits < 1:
            raise DimensionError("need at least one state bit")
        self.state_bits = state_bits
        self.manager = BDD(2 * state_bits, order)
        self.current = list(range(state_bits))
        self.next = [state_bits + i for i in range(state_bits)]
        self._relation = FALSE

    # ------------------------------------------------------------------
    # building the relation
    # ------------------------------------------------------------------
    @property
    def relation(self) -> int:
        return self._relation

    def add_transition(self, source: int, target: int) -> "TransitionSystem":
        """Add one explicit edge ``source -> target`` (state encodings)."""
        manager = self.manager
        cube = TRUE
        for i in range(self.state_bits):
            lit = (
                manager.var(self.current[i])
                if (source >> i) & 1
                else manager.nvar(self.current[i])
            )
            cube = manager.apply_and(cube, lit)
        for i in range(self.state_bits):
            lit = (
                manager.var(self.next[i])
                if (target >> i) & 1
                else manager.nvar(self.next[i])
            )
            cube = manager.apply_and(cube, lit)
        self._relation = manager.apply_or(self._relation, cube)
        return self

    @classmethod
    def from_successor_function(
        cls,
        state_bits: int,
        successors: Callable[[int], Iterable[int]],
        order: Optional[Sequence[int]] = None,
    ) -> "TransitionSystem":
        """Build the full relation by enumerating ``successors(state)``."""
        system = cls(state_bits, order)
        for state in range(1 << state_bits):
            for target in successors(state):
                system.add_transition(state, target)
        return system

    # ------------------------------------------------------------------
    # state-set helpers
    # ------------------------------------------------------------------
    def state_cube(self, state: int) -> int:
        """Characteristic function of the single state ``state``."""
        manager = self.manager
        cube = TRUE
        for i in range(self.state_bits):
            lit = (
                manager.var(self.current[i])
                if (state >> i) & 1
                else manager.nvar(self.current[i])
            )
            cube = manager.apply_and(cube, lit)
        return cube

    def state_set(self, states: Iterable[int]) -> int:
        result = FALSE
        for state in states:
            result = self.manager.apply_or(result, self.state_cube(state))
        return result

    def states_in(self, set_node: int) -> Set[int]:
        """Decode a current-state set node into explicit state encodings."""
        out: Set[int] = set()
        for state in range(1 << self.state_bits):
            assignment = [0] * (2 * self.state_bits)
            for i in range(self.state_bits):
                assignment[self.current[i]] = (state >> i) & 1
            if self.manager.evaluate(set_node, assignment):
                out.add(state)
        return out

    def count_states(self, set_node: int) -> int:
        """Number of states in a current-state set (next bits must be
        don't-cares, as produced by all operations here)."""
        return self.manager.satcount(set_node) >> self.state_bits

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def image(self, states: int) -> int:
        """Successors of ``states``: rename_next->current(
        exists_current(T and states))."""
        manager = self.manager
        conjoined = manager.apply_and(self._relation, states)
        next_only = manager.exists(conjoined, self.current)
        return rename(
            manager, next_only,
            {self.next[i]: self.current[i] for i in range(self.state_bits)},
        )

    def preimage(self, states: int) -> int:
        """Predecessors of ``states``."""
        manager = self.manager
        shifted = rename(
            manager, states,
            {self.current[i]: self.next[i] for i in range(self.state_bits)},
        )
        conjoined = manager.apply_and(self._relation, shifted)
        return manager.exists(conjoined, self.next)

    def reachable(self, initial: Iterable[int]) -> ReachabilityResult:
        """Least fixpoint of ``R = init OR image(R)`` (breadth-first)."""
        manager = self.manager
        current = self.state_set(initial)
        frontier = current
        iterations = 0
        frontier_sizes: List[int] = []
        while frontier != FALSE:
            iterations += 1
            new = self.image(frontier)
            frontier = manager.apply_and(new, manager.apply_not(current))
            current = manager.apply_or(current, new)
            frontier_sizes.append(manager.size(frontier))
        return ReachabilityResult(
            states=current,
            iterations=iterations,
            num_states=self.count_states(current),
            frontier_sizes=frontier_sizes,
        )

    def can_reach(self, initial: Iterable[int], bad: Iterable[int]) -> bool:
        """Safety check: is any ``bad`` state reachable from ``initial``?"""
        reach = self.reachable(initial).states
        bad_set = self.state_set(bad)
        return self.manager.apply_and(reach, bad_set) != FALSE

    def reachable_set_table(self, initial: Iterable[int]) -> TruthTable:
        """The reachable set as a truth table over the current-state bits
        only — ready for the optimal-ordering machinery."""
        reach = self.reachable(initial).states
        values = []
        for state in range(1 << self.state_bits):
            assignment = [0] * (2 * self.state_bits)
            for i in range(self.state_bits):
                assignment[self.current[i]] = (state >> i) & 1
            values.append(self.manager.evaluate(reach, assignment))
        return TruthTable(self.state_bits, values)
