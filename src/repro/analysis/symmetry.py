"""Variable symmetry: detection and ordering-search pruning.

Two variables are *interchangeable* in ``f`` if swapping them leaves the
function unchanged (``f|x_i=0,x_j=1 == f|x_i=1,x_j=0``).  Interchangeable
variables yield identical widths wherever they are placed, so any two
orderings that differ only by permutations within symmetry classes have
the same OBDD profile — the ordering search space collapses by
``prod(|class|!)``.  Classic in the ordering literature (symmetric-sift
etc.); here it powers a pruned exhaustive search validated against the
unpruned one, and quantifies why families like achilles or symmetric
functions are easy for search.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from ..errors import DimensionError
from ..truth_table import TruthTable, count_subfunctions


def are_interchangeable(table: TruthTable, i: int, j: int) -> bool:
    """True iff swapping ``x_i`` and ``x_j`` leaves the function unchanged."""
    if not (0 <= i < table.n and 0 <= j < table.n):
        raise DimensionError("variable index out of range")
    if i == j:
        return True
    low, high = (i, j) if i < j else (j, i)
    # f with x_i=0, x_j=1 vs x_i=1, x_j=0 (restrict higher index first).
    left = table.restrict([(high, 1), (low, 0)])
    right = table.restrict([(high, 0), (low, 1)])
    return left == right


def symmetry_classes(table: TruthTable) -> List[List[int]]:
    """Partition the variables into interchangeability classes.

    Pairwise interchangeability is an equivalence relation (a transposition
    product argument), so a union-find over pairwise checks suffices.
    """
    n = table.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) != find(j) and are_interchangeable(table, i, j):
                parent[find(j)] = find(i)

    classes: Dict[int, List[int]] = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return sorted(classes.values())


def search_space_reduction(table: TruthTable) -> Tuple[int, int]:
    """``(n!, n! / prod(|class|!))``: full vs symmetry-reduced ordering
    counts."""
    n = table.n
    full = math.factorial(n)
    divisor = 1
    for cls in symmetry_classes(table):
        divisor *= math.factorial(len(cls))
    return full, full // divisor


def canonical_orderings(table: TruthTable,
                        classes: Optional[List[List[int]]] = None):
    """Yield one representative per symmetry orbit of orderings.

    Representatives keep each class's members in increasing index order
    along the ordering (every orbit contains exactly one such ordering).
    """
    n = table.n
    if classes is None:
        classes = symmetry_classes(table)
    rank: Dict[int, int] = {}
    for cls in classes:
        for position, var in enumerate(sorted(cls)):
            rank[var] = position
    class_of: Dict[int, int] = {}
    for index, cls in enumerate(classes):
        for var in cls:
            class_of[var] = index

    for perm in itertools.permutations(range(n)):
        seen_rank = [0] * len(classes)
        ok = True
        for var in perm:
            cls = class_of[var]
            if rank[var] != seen_rank[cls]:
                ok = False
                break
            seen_rank[cls] += 1
        if ok:
            yield perm


def brute_force_up_to_symmetry(
    table: TruthTable,
) -> Tuple[Tuple[int, ...], int, int]:
    """Exhaustive ordering search over symmetry-orbit representatives.

    Returns ``(best_order, best_internal_nodes, orderings_evaluated)`` —
    the same optimum as the unpruned search (tests assert this) at a
    fraction of the evaluations.
    """
    best_order: Optional[Tuple[int, ...]] = None
    best_cost: Optional[int] = None
    evaluated = 0
    for order in canonical_orderings(table):
        evaluated += 1
        cost = sum(count_subfunctions(table, list(order)))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_order = order
    assert best_order is not None and best_cost is not None
    return best_order, best_cost, evaluated
