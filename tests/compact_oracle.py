"""The executable ``COMPACT`` oracle: a cell-at-a-time transcription of
the paper's pseudo code (§2.3).

:func:`repro.core.compaction.compact` vectorizes the same step; the tests
check it against this loop, which allocates node ids in first-seen order
rather than sorted-key order, so the two agree up to node-id renaming
(:func:`canonical_cells`).
"""

from typing import Optional, Tuple

import numpy as np

from repro._bitops import insert_bit, rank_in_mask
from repro.analysis.counters import OperationCounters
from repro.core.spec import FSState, ReductionRule


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
