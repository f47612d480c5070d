"""The executable ``COMPACT`` oracles the compiled kernel is checked
against.

* :func:`compact_python` is a cell-at-a-time transcription of the
  paper's pseudo code (§2.3).  It allocates node ids in first-seen order
  rather than sorted-key order, so it agrees with
  :func:`repro.core.compaction.compact` up to node-id renaming
  (:func:`canonical_cells`).
* :func:`compact_table_numpy` is the numpy kernel the compiled one
  replaced, kept as its bit-exact oracle: the same tables, node counts
  and one-row keys.  It compacts a stack of rows that share one
  cofactor geometry (:func:`cofactor_indices`), packing ``(u0, u1)``
  into keys twice as wide as the cells and numbering each row's
  distinct keys in sorted order.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._bitops import insert_bit, insert_bit_indices, rank_in_mask
from repro.analysis.counters import OperationCounters
from repro.core.spec import FSState, ReductionRule

# Per cell dtype: the key dtype ``(u0, u1)`` packs into, the shift of
# ``u0``, and the key of a merged cell in a stack of rows, the key
# dtype's maximum.  A cell stays below its own dtype's maximum, so no
# live key reaches that merged key: it sorts last, and each row's merged
# cells gather at its end.  Other dtypes are widened to int64.
_LAYOUTS = {
    np.dtype(cells): (np.dtype(keys), shift, keys(np.iinfo(keys).max))
    for cells, keys, shift in (
        (np.uint8, np.uint16, 8),
        (np.uint16, np.uint32, 16),
        (np.uint32, np.uint64, 32),
        (np.int64, np.int64, 32),
    )
}


def cofactor_indices(
    n: int, placed: int, num_roots: int, position: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Parent-table cells of the 0- and 1-cofactor of every new cell.

    ``placed`` variables are already below; the folded variable is the
    ``position``-th smallest free one.
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


def compact_table_numpy(
    tables: np.ndarray,
    idx0: np.ndarray,
    idx1: np.ndarray,
    next_ids: Sequence[int],
    rule: ReductionRule,
) -> Tuple[np.ndarray, Optional[np.ndarray], List[int]]:
    """One ``COMPACT`` step on every row of a stack of parent tables.

    The rows share cofactor geometry (``idx0``/``idx1``) and row ``r``
    numbers the nodes it creates from ``next_ids[r]``.  Returns the new
    tables (at the parents' cell dtype), for a one-row call its sorted
    packed keys (``None`` for a stack), and each row's node count.
    """
    if tables.dtype not in _LAYOUTS:
        tables = tables.astype(np.int64)
    key_dtype, shift, merged_key = _LAYOUTS[tables.dtype]
    if tables.shape[0] == 1:
        # A single step: 1-D indexing throughout is cheapest.
        u0 = tables[0][idx0]
        u1 = tables[0][idx1]
    else:
        u0 = tables.take(idx0, axis=1)
        u1 = tables.take(idx1, axis=1)
    if rule is ReductionRule.ZDD:
        merged = u1 == 0
    else:  # BDD / MTBDD / CBDD all merge equal cofactors
        merged = u0 == u1
    if rule is ReductionRule.CBDD:
        # Cells hold edges; normalize so the 1-edge is regular and push
        # the complement onto the produced edge.
        out_complement = u1 & 1
        keys = np.left_shift(u0 ^ out_complement, shift, dtype=key_dtype)
        keys |= u1 ^ out_complement
    else:
        keys = np.left_shift(u0, shift, dtype=key_dtype)
        keys |= u1

    # Dedup by sorting: a live cell's node is the number of distinct keys
    # sorted before its own in its row.
    new_tables = np.empty(keys.shape, dtype=tables.dtype)
    unique_keys = None
    if keys.ndim == 1:
        live = ~merged
        live_keys = keys[live]
        order = live_keys.argsort()
        ordered = live_keys[order]
        opens = np.empty(ordered.shape, dtype=bool)
        opens[:1] = False
        np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
        ranks = np.empty(order.shape, dtype=tables.dtype)
        ranks[order] = opens.cumsum() + next_ids[0]
        new_tables[live] = ranks
        opens[:1] = True
        unique_keys = ordered[opens]
        counts = [unique_keys.shape[0]]
    else:
        np.copyto(keys, merged_key, where=merged)
        order = keys.argsort(axis=1)
        order += np.arange(0, keys.size, keys.shape[1])[:, None]
        ordered = keys.ravel().take(order)
        opens = np.empty(ordered.shape, dtype=bool)
        opens[:, 0] = False
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=opens[:, 1:])
        ranks = opens.cumsum(axis=1, dtype=tables.dtype)
        counts = (ranks[:, -1] + (ordered[:, -1] != merged_key)).tolist()
        ranks += np.asarray(next_ids, dtype=tables.dtype)[:, None]
        new_tables.ravel()[order] = ranks
    if rule is ReductionRule.CBDD:
        new_tables <<= 1
        new_tables |= out_complement
    np.copyto(new_tables, u0, where=merged)
    return new_tables.reshape(tables.shape[0], -1), unique_keys, counts


def compact_python(
    state: FSState,
    var: int,
    rule: ReductionRule = ReductionRule.BDD,
    counters: Optional[OperationCounters] = None,
) -> FSState:
    """Produce ``FS(<chain..., var>)`` from ``state``, one cell at a time."""
    position = rank_in_mask(state.free_mask, var)
    new_segment = 1 << (state.n - state.placed - 1)
    new_size = state.num_roots * new_segment
    old_segment = state.segment_size

    table = state.table
    new_table = np.empty(new_size, dtype=np.int64)
    mincost = state.mincost
    nodes = dict(state.nodes) if state.nodes is not None else None
    # Per-step unique table, keyed on the cofactor pair for the current var.
    step_unique = {}

    for b in range(new_size):
        root, cell = divmod(b, new_segment)
        base = root * old_segment
        u0 = int(table[base + insert_bit(cell, position, 0)])
        u1 = int(table[base + insert_bit(cell, position, 1)])
        if rule is ReductionRule.ZDD:
            drop = u1 == 0
        else:
            drop = u0 == u1
        if drop:
            new_table[b] = u0
            continue
        out_complement = 0
        if rule is ReductionRule.CBDD:
            out_complement = u1 & 1
            u0 ^= out_complement
            u1 ^= out_complement
        existing = step_unique.get((u0, u1))
        if existing is not None:
            node_id = existing
        else:
            mincost += 1
            node_id = state.num_terminals + mincost - 1  # "one plus MINCOST"
            step_unique[(u0, u1)] = node_id
            if nodes is not None:
                nodes[node_id] = (var, u0, u1)
        if rule is ReductionRule.CBDD:
            new_table[b] = (node_id << 1) | out_complement
        else:
            new_table[b] = node_id

    if counters is not None:
        counters.compactions += 1
        counters.table_cells += new_size
        counters.nodes_created += mincost - state.mincost

    return FSState(
        n=state.n,
        mask=state.mask | (1 << var),
        pi=state.pi + (var,),
        mincost=mincost,
        table=new_table,
        num_terminals=state.num_terminals,
        nodes=nodes,
        num_roots=state.num_roots,
    )


def canonical_cells(state: FSState, rule: ReductionRule) -> Tuple:
    """``state``'s table up to node-id renaming.

    Terminal ids are kept; node ids are relabelled by order of first
    appearance, which is invariant under any renaming.  Under the CBDD
    rule cells are edges ``node << 1 | complement`` over the single
    terminal node 0, and the complement bit is kept.
    """
    relabel = {}
    out = []
    for value in state.table.tolist():
        complement = 0
        if rule is ReductionRule.CBDD:
            value, complement = value >> 1, value & 1
            terminals = 1
        else:
            terminals = state.num_terminals
        if value < terminals:
            out.append(("t", value, complement))
            continue
        if value not in relabel:
            relabel[value] = len(relabel)
        out.append(("n", relabel[value], complement))
    return tuple(out)
