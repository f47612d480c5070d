"""Graph-derived set families (the frontier-method workloads).

The paper's related work points to variable orderings derived from graph
structure [TT94, SIT95] and to Knuth's frontier method for ZDDs.  These
generators produce the corresponding families for arbitrary
:mod:`networkx` graphs — independent sets, vertex covers, matchings,
cliques — so the ZDD machinery (and the exact ordering optimizer) can be
exercised on structured combinatorial instances.

Vertices must be hashable; they are mapped to ZDD variables by sorted
order unless an explicit ``labels`` mapping is given.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

import networkx as nx

from ..errors import DimensionError


def _vertex_index(graph: nx.Graph) -> Dict[Hashable, int]:
    return {v: i for i, v in enumerate(sorted(graph.nodes))}


def independent_sets(graph: nx.Graph) -> Tuple[List[Set[int]], Dict[Hashable, int]]:
    """All independent vertex sets, over indices ``0..|V|-1``.

    Returns ``(family, vertex_to_index)``.  Exponential output — meant
    for the small instances the exact optimizer can handle anyway.
    """
    index = _vertex_index(graph)
    adjacency = {
        index[v]: {index[u] for u in graph.neighbors(v)} for v in graph.nodes
    }
    family: List[Set[int]] = [set()]
    for v in sorted(adjacency):
        family += [s | {v} for s in family if not (s & adjacency[v])]
    return family, index


def vertex_covers(graph: nx.Graph) -> Tuple[List[Set[int]], Dict[Hashable, int]]:
    """All vertex covers (complement duality with independent sets)."""
    family, index = independent_sets(graph)
    universe = set(index.values())
    return [universe - s for s in family], index


def matchings(graph: nx.Graph) -> Tuple[List[Set[int]], Dict[Tuple, int]]:
    """All matchings, as sets of edge indices.

    Returns ``(family, edge_to_index)`` with edges keyed by sorted
    endpoint pairs.
    """
    edges = [tuple(sorted(e)) for e in graph.edges]
    edges.sort()
    index = {e: i for i, e in enumerate(edges)}
    family: List[Set[int]] = [set()]
    for i, (u, v) in enumerate(edges):
        compatible = [
            s for s in family
            if all(u not in edges[j] and v not in edges[j] for j in s)
        ]
        family += [s | {i} for s in compatible]
    return family, index


def cliques(graph: nx.Graph) -> Tuple[List[Set[int]], Dict[Hashable, int]]:
    """All cliques (including the empty clique and singletons)."""
    index = _vertex_index(graph)
    adjacency = {
        index[v]: {index[u] for u in graph.neighbors(v)} for v in graph.nodes
    }
    family: List[Set[int]] = [set()]
    for v in sorted(adjacency):
        family += [s | {v} for s in family if s <= adjacency[v]]
    return family, index


def family_zdd(graph_family: List[Set[int]], num_vars: int):
    """Build the ZDD of a family returned by the generators above.

    Returns ``(manager, root)``.
    """
    from ..bdd.zdd import ZDD

    if any(any(not 0 <= v < num_vars for v in s) for s in graph_family):
        raise DimensionError("family mentions out-of-range elements")
    manager = ZDD(num_vars)
    return manager, manager.from_sets(graph_family)


def maximal_independent_sets(graph: nx.Graph) -> List[FrozenSet[int]]:
    """Maximal independent sets, computed via the ZDD MAXIMAL operator
    (cross-checkable against networkx's enumerators in the tests)."""
    family, index = independent_sets(graph)
    manager, root = family_zdd(family, len(index))
    return sorted(manager.iter_sets(manager.maximal(root)), key=sorted)
