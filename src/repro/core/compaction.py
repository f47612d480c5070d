"""Table compaction: the inner kernel of the Friedman-Supowit algorithm.

One compaction step folds variable ``x_i`` into the bottom part of the
diagram: it produces ``FS(<I, i>)`` from ``FS(I)`` by pairing, for every
assignment ``b`` to the remaining variables, the two parent cells
``TABLE_I[b, x_i=0]`` and ``TABLE_I[b, x_i=1]``, applying the reduction
rule, and deduplicating the surviving pairs into nodes.

The arithmetic of one step — merge predicate, CBDD edge normalization,
key packing, ``np.unique`` dedup, id assignment — lives in exactly one
place, :func:`compact_table`.  Two callers share it:

* :func:`compact` — one step on one :class:`~repro.core.spec.FSState`
  (chain replays, window costing, sifting oracles);
* :func:`repro.core.executor.sweep_chunk` — the DP's chunk loop, which
  reuses the cofactor index arrays (:func:`cofactor_indices`) across
  every candidate of a layer and builds a state only for each subset's
  winning candidate.

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

from typing import Optional, Tuple

import numpy as np

from .._bitops import insert_bit_indices, rank_in_mask
from ..analysis.counters import OperationCounters
from .spec import FSState, ReductionRule

_KEY_SHIFT = 32
_ID_LIMIT = 1 << _KEY_SHIFT


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
    table: np.ndarray,
    idx0: np.ndarray,
    idx1: np.ndarray,
    next_id: int,
    rule: ReductionRule,
    counters: Optional[OperationCounters] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One ``COMPACT`` step on a bare table.

    Returns the new table and the sorted packed ``(u0, u1)`` keys of the
    nodes it created; node ``next_id + j`` is ``unique_keys[j]``.
    """
    u0 = table[idx0]
    u1 = table[idx1]
    if rule is ReductionRule.ZDD:
        merged = u1 == 0
    else:  # BDD / MTBDD / CBDD all merge equal cofactors
        merged = u0 == u1

    if next_id >= _ID_LIMIT:  # pragma: no cover - needs >2^32 nodes
        raise OverflowError("node id space exhausted")

    new_table = np.empty(u0.shape[0], dtype=np.int64)
    new_table[merged] = u0[merged]

    live = ~merged
    live_u0 = u0[live].astype(np.int64)
    live_u1 = u1[live].astype(np.int64)
    if rule is ReductionRule.CBDD:
        # Cells hold edges; normalize so the 1-edge is regular and push
        # the complement onto the produced edge.  Two cells whose
        # subfunctions are complements of each other normalize to the
        # same node — that is exactly the complement-class sharing.
        out_complement = live_u1 & 1
        live_u0 = live_u0 ^ out_complement
        live_u1 = live_u1 ^ out_complement
    keys = (live_u0 << _KEY_SHIFT) | live_u1
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    if rule is ReductionRule.CBDD:
        new_table[live] = ((next_id + inverse) << 1) | out_complement
    else:
        new_table[live] = next_id + inverse

    if counters is not None:
        counters.compactions += 1
        counters.table_cells += new_table.shape[0]
        counters.nodes_created += unique_keys.shape[0]
    return new_table, unique_keys


def extend_state(
    state: FSState, var: int, table: np.ndarray, unique_keys: np.ndarray
) -> FSState:
    """The state :func:`compact_table` produced by folding ``var`` into
    ``state``.  Node structure is tracked iff ``state`` tracks it."""
    nodes = None
    if state.nodes is not None:
        nodes = dict(state.nodes)
        next_id = state.next_id
        for j, key in enumerate(unique_keys.tolist()):
            nodes[next_id + j] = (var, key >> _KEY_SHIFT, key & (_ID_LIMIT - 1))
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
    table, unique_keys = compact_table(
        state.table, idx0, idx1, state.next_id, rule, counters
    )
    return extend_state(state, var, table, unique_keys)
