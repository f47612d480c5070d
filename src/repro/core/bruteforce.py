"""Brute-force optimal ordering search: the paper's ``O*(n! 2^n)`` baseline.

Evaluates every one of the ``n!`` orderings with an exact per-ordering size
computation.  This is the trivial algorithm the FS dynamic program improves
on; it doubles as ground truth for the test suite on small ``n``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.counters import OperationCounters
from ..truth_table import TruthTable
from .compaction import compact
from .fs import initial_state
from .spec import ReductionRule


@dataclass
class BruteForceResult:
    """Outcome of the exhaustive ordering search."""

    order: Tuple[int, ...]
    """A minimizing ordering (read-first to read-last; lexicographically
    first among the optima)."""

    mincost: int
    """Internal node count of the minimum diagram."""

    num_terminals: int
    orderings_evaluated: int
    counters: OperationCounters

    all_optimal: List[Tuple[int, ...]]
    """Every ordering achieving the minimum."""

    @property
    def size(self) -> int:
        return self.mincost + self.num_terminals


def brute_force_optimal(
    table: TruthTable,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
    collect_all: bool = True,
) -> BruteForceResult:
    """Try all ``n!`` orderings; return the best (and optionally all ties).

    Each ordering is costed with the compaction chain (``O*(2^n)`` cells),
    reproducing the trivial ``O*(n! 2^n)`` bound the paper quotes.
    """
    n = table.n
    if counters is None:
        counters = OperationCounters()
    state0 = initial_state(table, rule)

    best_cost: Optional[int] = None
    best_order: Optional[Tuple[int, ...]] = None
    optima: List[Tuple[int, ...]] = []
    evaluated = 0

    for perm in itertools.permutations(range(n)):
        state = state0
        for var in reversed(perm):  # chain consumes read-last first
            state = compact(state, var, rule, counters)
        evaluated += 1
        cost = state.mincost
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_order = perm
            optima = [perm]
        elif collect_all and cost == best_cost:
            optima.append(perm)

    assert best_order is not None and best_cost is not None
    return BruteForceResult(
        order=best_order,
        mincost=best_cost,
        num_terminals=state0.num_terminals,
        orderings_evaluated=evaluated,
        counters=counters,
        all_optimal=optima if collect_all else [best_order],
    )


def brute_force_operation_bound(n: int) -> int:
    """The paper's trivial operation bound ``n! * 2^n`` (up to polynomials)."""
    return math.factorial(n) * (1 << n)
