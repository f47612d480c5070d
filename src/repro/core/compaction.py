"""Table compaction: the inner kernel of the Friedman-Supowit algorithm.

One compaction step folds variable ``x_i`` into the bottom part of the
diagram: it produces ``FS(<I, i>)`` from ``FS(I)`` by pairing, for every
assignment ``b`` to the remaining variables, the two parent cells
``TABLE_I[b, x_i=0]`` and ``TABLE_I[b, x_i=1]``, applying the reduction
rule, and deduplicating the surviving pairs into nodes.

The arithmetic of one step — merge predicate, CBDD edge normalization,
key packing, dedup, id assignment — lives in exactly one place,
:func:`compact_table`, which compacts a whole stack of parent tables that
share cofactor geometry at once, each row numbering its nodes from its
own ``next_id``.  It has two callers:

* :func:`compact` — its one-row call, one step on one
  :class:`~repro.core.spec.FSState` (chain replays, window costing,
  sifting oracles);
* :func:`repro.core.executor.sweep_chunk` — the DP's chunk loop, which
  stacks the predecessor rows of every candidate of a batch of subsets
  that folds the same cofactor position into one call, then keeps each
  subset's winning row in the next layer's matrix.

The cell-at-a-time transcription of the paper's ``COMPACT`` pseudo code
lives in the test suite as the executable oracle this kernel is checked
against.

Correctness note on the paper's ``NODE`` membership test: the paper's
pseudo code initializes ``NODE_(I\\i,i)`` with ``NODE_(I\\i)`` and tests
``(u, u0, u1) in NODE``.  Read literally this would merge a *new* node with
an *old* node from a lower level that happens to share the same cofactor
pair — but the paper's own equivalence definition (Sec. 2.2, rule 5(b))
requires ``var(u) = var(v)``, and merging across levels is unsound (two
nodes testing different variables with equal cofactor pairs compute
different functions whenever ``u0 != u1``).  We therefore key the
uniqueness check on the current variable: only nodes created in this very
compaction step can be shared, which is also what the original FS90
implementation does.  ``NODE`` still *accumulates* all triples so the final
diagram can be emitted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._bitops import insert_bit_indices, rank_in_mask
from ..analysis.counters import OperationCounters
from .spec import FSState, ReductionRule

_KEY_SHIFT = 32
# Node ids stay below 2^31, so no packed (u0, u1) key reaches _MERGED,
# the key a merged cell gets in a stack of rows: it sorts last, and each
# row's merged cells gather at its end.
_NODE_LIMIT = 1 << 31
_MERGED = np.iinfo(np.int64).max


def cofactor_indices(
    n: int, placed: int, num_roots: int, position: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Parent-table cells of the 0- and 1-cofactor of every new cell.

    ``placed`` variables are already below; the folded variable is the
    ``position``-th smallest free one.  Every state of one DP layer
    shares this geometry, so the sweep computes it once per position.
    """
    new_segment = 1 << (n - placed - 1)
    idx0, idx1 = insert_bit_indices(new_segment, position)
    if num_roots > 1:
        # One table segment per root; the cofactor indexing applies within
        # each segment, the node dedup is shared across all of them.
        offsets = (
            np.arange(num_roots, dtype=np.int64)[:, None]
            * (new_segment << 1)
        )
        idx0 = (offsets + idx0[None, :]).ravel()
        idx1 = (offsets + idx1[None, :]).ravel()
    return idx0, idx1


def compact_table(
    tables: np.ndarray,
    idx0: np.ndarray,
    idx1: np.ndarray,
    next_ids: Sequence[int],
    rule: ReductionRule,
    counters: Optional[OperationCounters] = None,
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """One ``COMPACT`` step on every row of a stack of parent tables.

    The rows share cofactor geometry (``idx0``/``idx1``) and row ``r``
    numbers the nodes it creates from ``next_ids[r]``; rows never share
    nodes.  Returns the new tables (one row per parent), the sorted
    packed ``(u0, u1)`` keys of each row's nodes concatenated in row
    order, and each row's node count: node ``next_ids[r] + j`` of row
    ``r`` is the ``j``-th of its keys.

    A one-row call sorts only its live cells, in 1-D; a taller stack
    sorts all its rows in one call, merged cells keyed past every live
    key so they open no node.
    """
    if max(next_ids) >= _NODE_LIMIT:  # pragma: no cover - needs >2^31 nodes
        raise OverflowError("node id space exhausted")
    tables = tables.astype(np.int64, copy=False)
    if tables.shape[0] == 1:
        # A single step: 1-D indexing throughout is cheapest.
        u0 = tables[0][idx0]
        u1 = tables[0][idx1]
    else:
        u0 = tables[:, idx0]
        u1 = tables[:, idx1]
    if rule is ReductionRule.ZDD:
        merged = u1 == 0
    else:  # BDD / MTBDD / CBDD all merge equal cofactors
        merged = u0 == u1
    if rule is ReductionRule.CBDD:
        # Cells hold edges; normalize so the 1-edge is regular and push
        # the complement onto the produced edge.  Two cells whose
        # subfunctions are complements of each other normalize to the
        # same node — that is exactly the complement-class sharing.
        out_complement = u1 & 1
        keys = ((u0 ^ out_complement) << _KEY_SHIFT) | (u1 ^ out_complement)
    else:
        keys = (u0 << _KEY_SHIFT) | u1

    # Dedup by sorting: a live cell's node is the number of distinct keys
    # sorted before its own in its row.
    new_tables = np.empty(keys.shape, dtype=np.int64)
    if keys.ndim == 1:
        live = ~merged
        live_keys = keys[live]
        order = live_keys.argsort()
        ordered = live_keys[order]
        opens = np.empty(ordered.shape, dtype=bool)
        opens[:1] = False
        np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
        ranks = np.empty(order.shape, dtype=np.int64)
        ranks[order] = opens.cumsum() + next_ids[0]
        new_tables[live] = ranks
        opens[:1] = True
        unique_keys = ordered[opens]
        counts = [unique_keys.shape[0]]
    else:
        keys[merged] = _MERGED
        order = keys.argsort(axis=1)
        order += np.arange(0, keys.size, keys.shape[1])[:, None]
        ordered = keys.ravel()[order]
        opens = np.empty(ordered.shape, dtype=bool)
        opens[:, 0] = False
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=opens[:, 1:])
        ranks = opens.cumsum(axis=1)
        counts = (ranks[:, -1] + (ordered[:, -1] != _MERGED)).tolist()
        ranks += np.asarray(next_ids, dtype=np.int64)[:, None]
        new_tables.ravel()[order] = ranks
        opens[:, 0] = True
        opens &= ordered != _MERGED
        unique_keys = ordered[opens]
    if rule is ReductionRule.CBDD:
        new_tables <<= 1
        new_tables |= out_complement
    new_tables[merged] = u0[merged]

    if counters is not None:
        counters.compactions += tables.shape[0]
        counters.table_cells += new_tables.size
        counters.nodes_created += sum(counts)
    return new_tables.reshape(tables.shape[0], -1), unique_keys, counts


def extend_state(
    state: FSState, var: int, table: np.ndarray, unique_keys: np.ndarray
) -> FSState:
    """The state one :func:`compact_table` row produced by folding ``var``
    into ``state``.  Node structure is tracked iff ``state`` tracks it."""
    nodes = None
    if state.nodes is not None:
        nodes = dict(state.nodes)
        next_id = state.next_id
        for j, key in enumerate(unique_keys.tolist()):
            nodes[next_id + j] = (
                var, key >> _KEY_SHIFT, key & ((1 << _KEY_SHIFT) - 1)
            )
    return FSState(
        n=state.n,
        mask=state.mask | (1 << var),
        pi=state.pi + (var,),
        mincost=state.mincost + unique_keys.shape[0],
        table=table,
        num_terminals=state.num_terminals,
        nodes=nodes,
        num_roots=state.num_roots,
    )


def compact(
    state: FSState,
    var: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> FSState:
    """Produce ``FS(<chain..., var>)`` from ``state``.

    ``var`` must be one of the state's free variables.  Node structure is
    tracked iff the input state tracks it.
    """
    idx0, idx1 = cofactor_indices(
        state.n, state.placed, state.num_roots,
        rank_in_mask(state.free_mask, var),
    )
    tables, unique_keys, _ = compact_table(
        state.table[None], idx0, idx1, (state.next_id,), rule, counters
    )
    return extend_state(state, var, tables[0], unique_keys)
