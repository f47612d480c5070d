"""Best-first exact ordering search (A* over the FS subset lattice).

The FS dynamic program unconditionally evaluates all ``2^n`` subsets.
The same recurrence (Lemma 4) also defines a shortest-path problem on the
subset lattice — the view the paper itself takes when connecting FS to
Ambainis et al.'s framework ("the algorithm FS can be seen as solving a
kind of shortest path problem on a Boolean hypercube").  This module
solves that shortest-path problem with A*: states are bottom-variable
sets ``I``, ``g(I) = MINCOST_I``, edges are single table compactions, and
the heuristic ``h(I)`` counts the essential variables still to be placed
(each contributes at least one node — admissible, so the result is
provably optimal).

On structured functions A* expands far fewer than ``2^n`` states; on
random functions it degrades towards FS (plus queue overhead).  The
benchmarks measure exactly that trade-off; the tests cross-validate its
optimality against FS and brute force.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._bitops import bits_of, popcount
from ..analysis.counters import OperationCounters
from ..truth_table import TruthTable
from .compaction import compact
from .fs import initial_state
from .spec import FSState, ReductionRule


@dataclass
class AStarResult:
    """Outcome of the best-first exact search."""

    n: int
    rule: ReductionRule
    order: Tuple[int, ...]
    pi: Tuple[int, ...]
    mincost: int
    num_terminals: int
    states_expanded: int
    """Subset states popped and expanded (FS always expands ``2^n - 1``)."""

    states_generated: int
    """Successor evaluations (table compactions performed)."""

    optimal: bool = True
    """False when an expansion budget cut the search short; ``mincost``
    is then the incumbent (upper bound) and ``lower_bound`` brackets the
    true optimum from below."""

    lower_bound: int = 0
    counters: OperationCounters = field(default_factory=OperationCounters)

    @property
    def size(self) -> int:
        return self.mincost + self.num_terminals

    @property
    def gap(self) -> int:
        """Optimality gap (0 when proven optimal)."""
        return self.mincost - self.lower_bound if not self.optimal else 0


def _essential_mask(table: TruthTable) -> int:
    mask = 0
    for v in table.support():
        mask |= 1 << v
    return mask


def astar_optimal_ordering(
    table: TruthTable,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    max_expansions: Optional[int] = None,
) -> AStarResult:
    """Find an optimal ordering by A* over bottom-variable sets.

    Returns the same minimum as :func:`repro.core.fs.run_fs` (the tests
    assert this) while potentially expanding far fewer subset states.

    With ``max_expansions`` the search becomes *anytime*: if the budget
    runs out, the deepest frontier state is completed greedily (always
    placing the cheapest next variable) to give an incumbent ordering,
    and the open list's best ``f``-value gives a certified lower bound —
    the result carries ``optimal=False`` and the bracketing pair.
    """
    if counters is None:
        counters = OperationCounters()
    n = table.n
    full = (1 << n) - 1
    essential = _essential_mask(table)

    def heuristic(mask: int) -> int:
        # Each still-unplaced essential variable will occupy a level of
        # width >= 1 wherever it lands: admissible and consistent.
        return popcount(essential & ~mask)

    start = initial_state(table, rule)
    best_g: Dict[int, int] = {0: 0}
    states: Dict[int, FSState] = {0: start}
    parent: Dict[int, Tuple[int, int]] = {}
    expanded: Dict[int, bool] = {}
    heap: List[Tuple[int, int, int]] = [(heuristic(0), 0, 0)]  # (f, g, mask)
    states_expanded = 0
    states_generated = 0

    while heap:
        f_value, g_value, mask = heapq.heappop(heap)
        if expanded.get(mask) or g_value > best_g.get(mask, g_value):
            continue
        if max_expansions is not None and states_expanded >= max_expansions:
            # Budget exhausted: push the entry back so the frontier's best
            # f-value is intact for the lower bound, then go anytime.
            heapq.heappush(heap, (f_value, g_value, mask))
            return _anytime_result(
                table, rule, counters, heap, expanded, best_g, states,
                states_expanded, states_generated, start,
            )
        expanded[mask] = True
        states_expanded += 1
        counters.subsets_processed += 1
        if mask == full:
            break
        state = states[mask]
        for i in bits_of(full & ~mask):
            successor = compact(state, i, rule, counters)
            states_generated += 1
            new_mask = mask | (1 << i)
            if expanded.get(new_mask):
                continue
            known = best_g.get(new_mask)
            if known is None or successor.mincost < known:
                best_g[new_mask] = successor.mincost
                states[new_mask] = successor
                parent[new_mask] = (mask, i)
                heapq.heappush(
                    heap,
                    (successor.mincost + heuristic(new_mask),
                     successor.mincost, new_mask),
                )
        # The table of a fully-expanded interior state is no longer
        # needed once all successors were generated.
        if mask != 0:
            states.pop(mask, None)

    if full not in expanded:  # pragma: no cover - search is complete
        raise RuntimeError("A* terminated without reaching the goal")

    # Reconstruct pi (bottom-first) by walking parents from the goal.
    pi_reversed: List[int] = []
    mask = full
    while mask:
        mask, var = parent[mask]
        pi_reversed.append(var)
    pi = tuple(reversed(pi_reversed))
    return AStarResult(
        n=n,
        rule=rule,
        order=tuple(reversed(pi)),
        pi=pi,
        mincost=best_g[full],
        num_terminals=start.num_terminals,
        states_expanded=states_expanded,
        states_generated=states_generated,
        optimal=True,
        lower_bound=best_g[full],
        counters=counters,
    )


def _anytime_result(
    table: TruthTable,
    rule: ReductionRule,
    counters: OperationCounters,
    heap,
    expanded,
    best_g,
    states,
    states_expanded: int,
    states_generated: int,
    start: FSState,
) -> AStarResult:
    """Budget exhausted: complete the most advanced known state greedily
    and report (incumbent, lower bound)."""
    n = table.n
    full = (1 << n) - 1
    # Lower bound: smallest f on the frontier among not-yet-expanded
    # states (A* with a consistent heuristic never overstates it).
    lower_bound = min(
        (f for f, g, mask in heap
         if not expanded.get(mask) and g <= best_g.get(mask, g)),
        default=0,
    )
    # Incumbent: take the deepest state with the best g, finish greedily.
    seed_mask = max(states, key=lambda m: (popcount(m), -best_g.get(m, 0)))
    state = states[seed_mask]
    while state.mask != full:
        best_next: Optional[FSState] = None
        best_var = -1
        for i in bits_of(full & ~state.mask):
            candidate = compact(state, i, rule, counters)
            if best_next is None or candidate.mincost < best_next.mincost:
                best_next = candidate
                best_var = i
        assert best_next is not None
        state = best_next
    # The state's pi already records its full chain (seed prefix plus the
    # greedy tail appended above).
    pi = state.pi
    incumbent = state.mincost
    return AStarResult(
        n=n,
        rule=rule,
        order=tuple(reversed(pi)),
        pi=pi,
        mincost=incumbent,
        num_terminals=start.num_terminals,
        states_expanded=states_expanded,
        states_generated=states_generated,
        optimal=False,
        lower_bound=min(lower_bound, incumbent),
        counters=counters,
    )
