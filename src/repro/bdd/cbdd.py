"""BDDs with complement edges (the CUDD-style representation).

Every production BDD package since Brace-Rudell-Bryant stores *edges* as
(node, complement-bit) pairs: negation becomes an O(1) bit flip and a
function shares every node with its complement.  Canonicity requires a
normalization rule — here the standard one: **the 1-edge (THEN edge) of
every node is regular**; a would-be complemented 1-edge complements the
whole node instead.

Edges are encoded as integers ``node_id << 1 | complement``.  The only
terminal is node 0 (the constant 1); FALSE is its complemented edge.

This representation is an *extension* relative to the paper (FS counts
plain-OBDD nodes); the benches compare the two node counts, and the tests
verify the classic invariants: free negation, full sharing between ``f``
and ``~f``, canonicity, and node counts never exceeding the plain BDD's.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import DimensionError, OrderingError
from ..truth_table import TruthTable

TRUE_EDGE = 0   # terminal node 0, regular
FALSE_EDGE = 1  # terminal node 0, complemented


def edge_node(edge: int) -> int:
    """Node id an edge points to."""
    return edge >> 1


def edge_complemented(edge: int) -> bool:
    return bool(edge & 1)


def negate(edge: int) -> int:
    """O(1) negation: flip the complement bit."""
    return edge ^ 1


class CBDD:
    """Manager for reduced OBDDs with complement edges."""

    def __init__(self, num_vars: int, order: Optional[Sequence[int]] = None) -> None:
        if num_vars < 0:
            raise DimensionError("num_vars must be non-negative")
        if order is None:
            order = list(range(num_vars))
        order = list(order)
        if sorted(order) != list(range(num_vars)):
            raise OrderingError(f"{order!r} is not an ordering of range({num_vars})")
        self.num_vars = num_vars
        self.order: Tuple[int, ...] = tuple(order)
        self._level_of: Dict[int, int] = {v: lv for lv, v in enumerate(order)}
        # node id -> (level, lo_edge, hi_edge); terminal node 0 implicit.
        self._nodes: Dict[int, Tuple[int, int, int]] = {}
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._next_id = 1
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    @property
    def true(self) -> int:
        return TRUE_EDGE

    @property
    def false(self) -> int:
        return FALSE_EDGE

    def is_terminal_edge(self, edge: int) -> bool:
        return edge_node(edge) == 0

    def level_of_edge(self, edge: int) -> int:
        node = edge_node(edge)
        if node == 0:
            return self.num_vars
        return self._nodes[node][0]

    def make(self, level: int, lo: int, hi: int) -> int:
        """Canonical constructor with complement-edge normalization."""
        if lo == hi:
            return lo
        if edge_complemented(hi):
            # Normalize: the 1-edge must be regular; push the complement
            # to the node's users.
            return negate(self.make(level, negate(lo), negate(hi)))
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found << 1
        node = self._next_id
        self._next_id += 1
        self._nodes[node] = key
        self._unique[key] = node
        return node << 1

    def var(self, v: int) -> int:
        if not 0 <= v < self.num_vars:
            raise DimensionError(f"variable {v} out of range")
        return self.make(self._level_of[v], FALSE_EDGE, TRUE_EDGE)

    def nvar(self, v: int) -> int:
        return negate(self.var(v))

    # ------------------------------------------------------------------
    # ITE kernel
    # ------------------------------------------------------------------
    def _cofactors_at(self, edge: int, level: int) -> Tuple[int, int]:
        node = edge_node(edge)
        if node == 0 or self._nodes[node][0] != level:
            return edge, edge
        _, lo, hi = self._nodes[node]
        if edge_complemented(edge):
            return negate(lo), negate(hi)
        return lo, hi

    def ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE_EDGE:
            return g
        if f == FALSE_EDGE:
            return h
        if g == h:
            return g
        if g == TRUE_EDGE and h == FALSE_EDGE:
            return f
        if g == FALSE_EDGE and h == TRUE_EDGE:
            return negate(f)
        # Standard-triple normalization: a complemented first argument
        # swaps the branches, halving the cache's effective key space.
        if edge_complemented(f):
            f, g, h = negate(f), h, g
        key = (f, g, h)
        found = self._ite_cache.get(key)
        if found is not None:
            return found
        top = min(self.level_of_edge(f), self.level_of_edge(g),
                  self.level_of_edge(h))
        f0, f1 = self._cofactors_at(f, top)
        g0, g1 = self._cofactors_at(g, top)
        h0, h1 = self._cofactors_at(h, top)
        result = self.make(top, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    def apply_not(self, f: int) -> int:
        return negate(f)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE_EDGE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE_EDGE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, negate(g), g)

    # ------------------------------------------------------------------
    # construction / queries
    # ------------------------------------------------------------------
    def from_truth_table(self, table: TruthTable) -> int:
        if table.n != self.num_vars:
            raise DimensionError(
                f"table has {table.n} variables, manager has {self.num_vars}"
            )
        if self.num_vars == 0:
            return TRUE_EDGE if int(table.values[0]) else FALSE_EDGE
        g = table.permute(list(self.order)[::-1]).values
        memo: Dict[Tuple[int, bytes], int] = {}

        def build(level: int, chunk: np.ndarray) -> int:
            if level == self.num_vars:
                return TRUE_EDGE if int(chunk[0]) else FALSE_EDGE
            key = (level, chunk.tobytes())
            found = memo.get(key)
            if found is not None:
                return found
            half = chunk.shape[0] // 2
            edge = self.make(level, build(level + 1, chunk[:half]),
                             build(level + 1, chunk[half:]))
            memo[key] = edge
            return edge

        return build(0, g)

    def evaluate(self, edge: int, assignment: Sequence[int]) -> int:
        if len(assignment) != self.num_vars:
            raise DimensionError(
                f"expected {self.num_vars} values, got {len(assignment)}"
            )
        complement = edge_complemented(edge)
        node = edge_node(edge)
        while node != 0:
            level, lo, hi = self._nodes[node]
            nxt = hi if assignment[self.order[level]] else lo
            complement ^= edge_complemented(nxt)
            node = edge_node(nxt)
        return 0 if complement else 1

    def to_truth_table(self, edge: int) -> TruthTable:
        n = self.num_vars
        values = [
            self.evaluate(edge, [(a >> i) & 1 for i in range(n)])
            for a in range(1 << n)
        ]
        return TruthTable(n, values)

    def reachable_nodes(self, edge: int) -> Set[int]:
        """Node ids (not edges) reachable from ``edge``, incl. terminal 0."""
        seen: Set[int] = set()
        stack = [edge_node(edge)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node != 0:
                _, lo, hi = self._nodes[node]
                stack.append(edge_node(lo))
                stack.append(edge_node(hi))
        return seen

    def size(self, edge: int, include_terminals: bool = True) -> int:
        """Node count of the diagram rooted at ``edge``.

        With complement edges there is a single terminal node; sizes are
        therefore not directly comparable to plain-BDD sizes that count
        two terminals — the benches compare internal-node counts.
        """
        reach = self.reachable_nodes(edge)
        internal = sum(1 for node in reach if node != 0)
        if include_terminals:
            return internal + (1 if 0 in reach else 0)
        return internal

    def satcount(self, edge: int) -> int:
        """Satisfying assignments over all variables."""
        cache: Dict[int, int] = {}

        def regular_count(node: int) -> int:
            # count for the REGULAR edge to `node`, over levels below it
            if node == 0:
                return 1  # TRUE on zero remaining variables... scaled below
            found = cache.get(node)
            if found is not None:
                return found
            level, lo, hi = self._nodes[node]
            total = 0
            for child in (lo, hi):
                child_node = edge_node(child)
                child_level = (
                    self.num_vars if child_node == 0
                    else self._nodes[child_node][0]
                )
                skipped = child_level - level - 1
                below = 1 << (self.num_vars - child_level)
                count = regular_count(child_node)
                if edge_complemented(child):
                    count = below - count
                total += count << skipped
            cache[node] = total
            return total

        node = edge_node(edge)
        level = self.num_vars if node == 0 else self._nodes[node][0]
        count = regular_count(node)
        if edge_complemented(edge):
            count = (1 << (self.num_vars - level)) - count
        return count << level


def cbdd_size(table: TruthTable, order: Sequence[int],
              include_terminals: bool = True) -> int:
    """Complement-edge BDD size of ``table`` under ``order``."""
    manager = CBDD(table.n, order)
    root = manager.from_truth_table(table)
    return manager.size(root, include_terminals=include_terminals)
