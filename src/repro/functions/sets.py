"""Set families for the ZDD experiments.

ZDDs shine on sparse families of subsets (Minato; Knuth's frontier
method).  These generators produce the structured families the ZDD
examples and benches minimize orderings for.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..errors import DimensionError
from ..truth_table import TruthTable


def family_truth_table(n: int, family: List[Set[int]]) -> TruthTable:
    """Characteristic function of a set family over universe ``range(n)``.

    Each member set maps to the assignment with exactly its elements set
    to 1; the ZDD of the resulting function *is* the ZDD of the family.
    """
    minterms = []
    for s in family:
        if any(not 0 <= v < n for v in s):
            raise DimensionError(f"set {s} outside universe of size {n}")
        minterms.append(sum(1 << v for v in s))
    return TruthTable.from_minterms(n, minterms)


def all_k_subsets(n: int, k: int) -> List[Set[int]]:
    """All ``k``-element subsets of ``range(n)``."""
    import itertools

    return [set(c) for c in itertools.combinations(range(n), k)]


def path_independent_sets(n: int) -> List[Set[int]]:
    """Independent sets of the path graph ``0 - 1 - ... - (n-1)``.

    Counted by Fibonacci numbers; the standard frontier-method warm-up.
    """
    families: List[Set[int]] = [set()]
    for v in range(n):
        families += [s | {v} for s in families if (v - 1) not in s]
    return families


def path_matchings(n: int) -> List[Set[int]]:
    """Matchings of the path with ``n`` edges (edge ``i`` joins vertices
    ``i`` and ``i+1``); sets are over edge indices."""
    families: List[Set[int]] = [set()]
    for e in range(n):
        families += [s | {e} for s in families if (e - 1) not in s]
    return families


def cliques_of_random_graph(
    n: int, edge_probability: float = 0.5, seed: Optional[int] = None
) -> List[Set[int]]:
    """All cliques (including empty/singletons) of a random graph on
    ``range(n)`` — an irregular family exercising nontrivial orderings."""
    rng = np.random.default_rng(seed)
    adjacency = [[False] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                adjacency[u][v] = adjacency[v][u] = True

    cliques: List[Set[int]] = [set()]
    for v in range(n):
        cliques += [
            c | {v} for c in cliques if all(adjacency[u][v] for u in c)
        ]
    return cliques


def sparse_random_family(
    n: int, num_sets: int, seed: Optional[int] = None
) -> List[Set[int]]:
    """``num_sets`` distinct random subsets of ``range(n)``."""
    size = 1 << n
    if num_sets > size:
        raise DimensionError(f"cannot draw {num_sets} distinct subsets of 2^{n}")
    rng = np.random.default_rng(seed)
    words = rng.choice(size, size=num_sets, replace=False)
    return [
        {v for v in range(n) if (int(w) >> v) & 1} for w in words
    ]
