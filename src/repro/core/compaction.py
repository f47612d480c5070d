"""Table compaction: the inner kernel of the Friedman-Supowit algorithm.

One compaction step folds variable ``x_i`` into the bottom part of the
diagram: it produces ``FS(<I, i>)`` from ``FS(I)`` by pairing, for every
assignment ``b`` to the remaining variables, the two parent cells
``TABLE_I[b, x_i=0]`` and ``TABLE_I[b, x_i=1]``, applying the reduction
rule, and deduplicating the surviving pairs into nodes.

The arithmetic of one step — merge predicate, CBDD edge normalization,
key packing, dedup, id assignment — lives in exactly one place, the
compiled kernel ``_compact.c`` (built on first import by
:mod:`repro.core._build`).  It has two entries, each with a Python face
here:

* :func:`compact_table` compacts a whole stack of parent rows at once,
  each row folding its own cofactor position and numbering its nodes
  from its own ``next_id``, and adds the counter updates.
  :func:`compact` is its one-row call, one step on one
  :class:`~repro.core.spec.FSState` (chain replays, window costing,
  sifting oracles); a one-row call can also return the new nodes'
  packed keys, which node tracking reads;
* :func:`settle_batch` runs one DP step on a batch of successor subsets
  for :func:`repro.core.executor.sweep_chunk`, the DP's chunk loop: it
  enumerates every successor's candidates, finds each predecessor's row
  in the previous layer, compacts it and writes the first cheapest
  candidate straight into the next layer, all in one call.

A live cell's node is numbered by the first occurrence of its
``(u0, u1)`` pair among the row's new cells, in index order, through a
hashed unique table (the paper needs only that distinct pairs get
distinct ids), so tables and node ids do not depend on the cell width:
``uint8``/``uint16``/``uint32`` layer matrices and ``FSState``'s
``int64`` tables number alike, and exactly like the paper's pseudo
code.  Node ids stay below ``2^31``; a ``next_id`` at that bound raises
:class:`OverflowError`.

The cell-at-a-time transcription of the paper's ``COMPACT`` pseudo code
lives in the test suite as the executable oracle the kernel is checked
against, bit for bit.

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

from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from .._bitops import rank_in_mask
from ..analysis.counters import OperationCounters
from ..errors import OrderingError
from . import _build
from .frontier import Layer
from .spec import FSState, ReductionRule

_kernel = _build.load()

KERNEL = Path(_kernel.__file__).name.removesuffix(_build.EXT_SUFFIX)
"""The kernel build every compaction runs: ``_compact.<hash>``, the hash
of its source and flags (recorded in profiles)."""

_RULE_CODES = {
    ReductionRule.BDD: 0,
    ReductionRule.MTBDD: 0,
    ReductionRule.ZDD: 1,
    ReductionRule.CBDD: 2,
}

Indices = Union[int, np.ndarray]
"""An int shared by every row of a stack, or an ``int64`` array with
one entry per row."""


def compact_table(
    tables: np.ndarray,
    rows: Indices,
    positions: Indices,
    next_ids: Indices,
    rule: ReductionRule,
    out: np.ndarray,
    counts: Optional[np.ndarray] = None,
    keys: Optional[np.ndarray] = None,
    counters: Optional[OperationCounters] = None,
) -> int:
    """One ``COMPACT`` step on every row of a stack; returns the nodes
    created by all rows.

    Stack row ``r`` reads row ``rows[r]`` of ``tables`` (a C-contiguous
    ``uint8``/``uint16``/``uint32``/``int64`` matrix, read-only views
    included; 1-D for one row), folds the free variable at cofactor
    position ``positions[r]`` and numbers its new nodes from
    ``next_ids[r]``.  Its new table goes to row ``r`` of ``out``, at the
    same cell dtype and half the width (1-D for one row).  ``counts``,
    if given, receives each row's node count.  ``keys``, if given to a
    one-row call, receives the new nodes' packed ``(u0, u1)`` keys in
    creation order (node ``next_ids + j`` is the ``j``-th), ``u0``
    shifted by the cell width (32 bits for ``uint32`` and ``int64``
    cells).  A malformed call raises :class:`TypeError` or
    :class:`ValueError` before it writes anything.
    """
    created = _kernel.compact(
        tables, rows, positions, next_ids, _RULE_CODES[rule], out, counts,
        keys,
    )
    if counters is not None:
        counters.compactions += out.size // out.shape[-1]
        counters.table_cells += out.size
        counters.nodes_created += created
    return created


def settle_batch(
    previous: Layer,
    masks: np.ndarray,
    base: FSState,
    rule: ReductionRule,
    out: Tuple[np.ndarray, np.ndarray, np.ndarray],
    level_cost: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """One DP step on the successor subsets ``masks``; returns the
    candidates evaluated.

    A successor's candidates are its members ``i`` in ascending
    (``bits_of``) order whose predecessor, the successor without ``i``,
    is a row of ``previous``; the first cheapest wins.  Its table,
    mincost and ``i`` go to the successor's rows of ``out``
    (``(tables, mincost, best_last)``, one row per successor), and each
    candidate's absolute predecessor mask, ``i`` and node count to
    ``level_cost`` (three ``int64`` arrays of at least ``k`` entries per
    successor), successor-major.  A successor without any candidate
    raises :class:`~repro.errors.OrderingError` before anything is
    written; a malformed call raises :class:`TypeError` or
    :class:`ValueError` before it writes anything.
    """
    written = _kernel.settle(
        previous.tables, previous.sorted_masks, previous.sorted_rows,
        previous.mincost, masks, base.mask, base.num_terminals,
        _RULE_CODES[rule], *out, *level_cost,
    )
    if written < 0:
        raise OrderingError(
            f"no feasible chain reaches subset {int(masks[~written]):#x}"
        )
    return written


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
    table = np.empty(state.table.shape[0] >> 1, state.table.dtype)
    keys = None if state.nodes is None else np.empty(table.shape, np.uint64)
    next_id = state.next_id
    created = compact_table(
        state.table, 0, rank_in_mask(state.free_mask, var), next_id, rule,
        table, keys=keys, counters=counters,
    )
    nodes = None
    if keys is not None:
        nodes = dict(state.nodes)
        shift = 8 * min(table.itemsize, 4)
        for j, key in enumerate(keys[:created].tolist()):
            nodes[next_id + j] = (var, key >> shift, key & ((1 << shift) - 1))
    return FSState(
        n=state.n,
        mask=state.mask | (1 << var),
        pi=state.pi + (var,),
        mincost=state.mincost + created,
        table=table,
        num_terminals=state.num_terminals,
        nodes=nodes,
        num_roots=state.num_roots,
    )
