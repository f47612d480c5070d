"""Variable-ordering heuristics: the baselines the paper's introduction
motivates ("numerous studies have sought heuristics ... but they do not
guarantee a worst-case time complexity lower than brute force").

Both heuristics here work at the *ordering-evaluation* level: they search
the space of orderings and score each candidate with an exact size oracle
(:func:`repro.truth_table.obdd_size` by default), independent of any one
manager's level-swap machinery.  Rudell sifting and window permutation
live in the strategy registry (:func:`repro.portfolio.sift_search`,
:func:`repro.portfolio.window_permutation_search`).  Benchmarks compare
their results against the exact optimum from :mod:`repro.core`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from ..portfolio import SearchResult
from ..truth_table import TruthTable, count_subfunctions, obdd_size

SizeFn = Callable[[TruthTable, Sequence[int]], int]

__all__ = [
    "SearchResult",
    "random_restart_search",
    "greedy_append",
]


def _evaluate(table: TruthTable, order: Sequence[int], size_fn: SizeFn) -> int:
    return size_fn(table, list(order))


def random_restart_search(
    table: TruthTable,
    tries: int = 100,
    seed: Optional[int] = None,
    size_fn: SizeFn = obdd_size,
) -> SearchResult:
    """Uniformly random orderings, keeping the best — the weakest baseline."""
    n = table.n
    rng = random.Random(seed)
    best_order = list(range(n))
    best_size = _evaluate(table, best_order, size_fn)
    evaluations = 1
    trajectory = [best_size]
    for _ in range(tries):
        candidate = list(range(n))
        rng.shuffle(candidate)
        evaluations += 1
        size = _evaluate(table, candidate, size_fn)
        if size < best_size:
            best_size = size
            best_order = candidate
            trajectory.append(size)
    return SearchResult(tuple(best_order), best_size, evaluations, trajectory)


def greedy_append(
    table: TruthTable,
    size_fn: SizeFn = obdd_size,
) -> SearchResult:
    """Greedy bottom-up construction in the spirit of the FS recurrence.

    Builds the ordering from the last-read variable upward; at each step
    appends the variable whose placement minimizes the partial width sum
    (computed exactly, but without the FS memoization over subsets — so it
    commits greedily and can miss the optimum).
    """
    n = table.n
    chosen: List[int] = []  # read-last first, like the paper's pi
    evaluations = 0
    for _ in range(n):
        remaining = [v for v in range(n) if v not in chosen]
        best_var = remaining[0]
        best_cost = None
        for v in remaining:
            # Order: remaining (arbitrary) on top, then v, then chosen below.
            rest = [w for w in remaining if w != v]
            order = rest + [v] + chosen[::-1]
            widths = count_subfunctions(table, order)
            evaluations += 1
            cost = sum(widths[len(rest):])  # widths of v's level and below
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_var = v
        chosen.append(best_var)
    order = chosen[::-1]
    size = _evaluate(table, order, size_fn)
    evaluations += 1
    return SearchResult(tuple(order), size, evaluations, [size])
