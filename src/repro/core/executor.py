"""Running a DP layer: inline, or on threads.

The engine (:func:`repro.core.engine.run_layered_sweep`) builds every DP
layer in contiguous row ranges of disjoint masks, its *chunks*, and
:func:`run_layer` runs them.  A backend is a name, one of
:data:`BACKENDS`:

* ``serial`` (the default): every layer is one chunk, run inline.
* ``thread``: :func:`split_layer` splits a layer into
  ``min(jobs, candidate cells // _BATCH_CELLS)`` chunks, at least one,
  so every pooled chunk holds about a whole kernel batch or more.  A
  layer of more than one chunk runs on a
  :class:`~concurrent.futures.ThreadPoolExecutor` of ``jobs`` threads,
  which the sweep starts at its first split layer and shuts down when it
  ends.  The compiled kernel settles a whole batch of successors per call
  and releases the GIL for batches of at least ``2^14`` candidate cells,
  so the chunks of a large layer run on separate cores while sharing
  both layers in one address space: nothing is pickled, shipped or
  copied back.  Smaller layers run inline at any ``jobs``, because
  handing them to threads costs more than it saves.

Every chunk, inline or pooled, writes its winners straight into its own
row range of the next layer's preallocated columns (:class:`NextLayer`);
chunks read only the previous layer (Lemma 4), so no two chunks touch
the same memory.

Determinism contract: every chunk runs through the same
:func:`sweep_chunk` routine with a fresh
:class:`~repro.analysis.counters.OperationCounters`, and the engine
merges chunk counters and level costs in fixed chunk order.  Chunks are
contiguous row ranges, so their number never shows: results *and whole
counter snapshots* are bit-identical across ``serial`` / ``thread`` and
any ``jobs`` value.

Budget propagation: pooled chunks poll the sweep's
:class:`~repro.core.budget.Budget` between batches (cancelled, or no
time remaining) and stop early.  A chunk stopped that way comes back
flagged ``cancelled`` and the engine discards the whole partial layer,
so the :class:`~repro.errors.BudgetExceeded` it raises always describes
the last *committed* layer boundary (checkpoint/resume semantics
unchanged).  Signals reach the sweep through
:func:`repro.core.budget.handle_signals` on the main thread, which sets
the budget's cancellation event the chunks poll.

Trade-off: there is no worker isolation.  A crash inside the kernel, or
an out-of-memory kill, ends the whole process rather than one worker.
That is acceptable because the kernel validates every row, position and
output shape before it writes (a malformed call raises instead), and
because both layers live in the coordinator's memory anyway, so an
out-of-memory kill lands there under any backend.  A run that must
survive such a kill checkpoints (``checkpoint_dir``) and resumes.

Cache lookups stay coordinator-only: chunks never see a
:class:`~repro.core.cache.ResultCache`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

import numpy as np

from ..analysis.counters import OperationCounters
from .compaction import settle_batch
from .frontier import Layer
from .spec import FSState, ReductionRule

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from .budget import Budget

# Candidate table cells one kernel call settles.  Batches set how often
# a chunk polls the budget and, under threads, how often the GIL changes
# hands (each call runs whole in C), and the split rule hands a pooled
# chunk at least about one batch.
_BATCH_CELLS = 1 << 16

#: The backend names ``EngineConfig(backend=...)``, every ``backend=``
#: parameter, the CLI ``--backend`` flag and ``ServeConfig.backend``
#: accept.
BACKENDS = ("serial", "thread")


def check_backend(backend: Any) -> str:
    """``backend`` if it is one of the :data:`BACKENDS` names, else
    :class:`ValueError` naming both."""
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ValueError(
            f"backend must be 'serial' or 'thread', got {backend!r}"
        )
    return backend


# ----------------------------------------------------------------------
# the unit of work: a row range of the next layer
# ----------------------------------------------------------------------

@dataclass
class NextLayer:
    """The layer a sweep step is building: its successor masks and the
    preallocated columns every chunk fills in its own row range."""

    masks: np.ndarray
    mincost: np.ndarray
    best_last: np.ndarray
    tables: np.ndarray

    @classmethod
    def allocate(cls, masks: np.ndarray, previous: Layer) -> "NextLayer":
        """Uninitialized columns for ``masks``, whose tables have half
        the cells of ``previous``'s, at its cell dtype."""
        rows, cells = len(masks), previous.tables.shape[1] >> 1
        return cls(masks, np.empty(rows, np.int64), np.empty(rows, np.int64),
                   np.empty((rows, cells), previous.tables.dtype))

    def layer(self) -> Layer:
        """The finished layer (every row written)."""
        return Layer(self.masks, self.mincost, self.tables)


@dataclass
class ChunkResult:
    """What one executed chunk reports back besides the rows it wrote.

    The engine merges these strictly in chunk order, so the outcome is
    independent of scheduling (pool threads or inline).
    """

    counters: OperationCounters

    level_cost: Optional[np.ndarray] = None
    """``Cost_i`` of every candidate the chunk evaluated, as a
    ``(3, candidates)`` ``int64`` block whose rows are the predecessor's
    absolute mask, the placed variable and the nodes its compaction
    created.  The engine scatters it into its DP tables."""

    cancelled: bool = False
    """True when the chunk saw the budget spent and stopped early; the
    engine discards the whole layer."""


def split_chunks(rows: int, jobs: int) -> List[slice]:
    """Contiguous, deterministic near-equal split of a layer's rows into
    at most ``jobs`` non-empty ranges."""
    jobs = min(jobs, rows)
    out: List[slice] = []
    start = 0
    for j in range(jobs):
        stop = start + (rows - start) // (jobs - j)
        out.append(slice(start, stop))
        start = stop
    return out


def sweep_chunk(
    rows: slice,
    previous: Layer,
    out: NextLayer,
    base: FSState,
    rule: ReductionRule,
    counters: OperationCounters,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ChunkResult:
    """Finalize rows ``rows`` of ``out``, inline or on a pool thread.

    Reads ``previous`` without mutating it and writes only its own rows
    of ``out``.  This routine is the bit-identity anchor: every chunk
    runs through it, so where a chunk ran can never change what it
    computed.

    The rows are taken in batches of consecutive successors holding
    about ``_BATCH_CELLS`` candidate table cells, each settled in one
    :func:`~repro.core.compaction.settle_batch` kernel call: every
    member ``i`` of a successor whose predecessor is in ``previous`` is
    a candidate, whose predecessor row the kernel reads straight out of
    the layer matrix, and each successor keeps its first cheapest
    candidate in ``bits_of`` order.  The kernel numbers a row's new
    nodes by first occurrence.

    ``should_stop`` (a pooled chunk's view of the budget) is polled
    before each batch; a stopped chunk returns with ``cancelled=True``
    and partial rows the engine discards.
    """
    k = int(out.masks[rows.start]).bit_count()
    width = out.tables.shape[1]
    step = -(-_BATCH_CELLS // (k * width))
    level_cost = np.empty((3, (rows.stop - rows.start) * k), np.int64)
    written = 0
    for start in range(rows.start, rows.stop, step):
        if should_stop is not None and should_stop():
            return ChunkResult(counters, cancelled=True)
        batch = slice(start, min(start + step, rows.stop))
        written += settle_batch(
            previous, out.masks[batch], base, rule,
            (out.tables[batch], out.mincost[batch], out.best_last[batch]),
            level_cost[:, written:],
        )
    level_cost = level_cost[:, :written]
    counters.compactions += written
    counters.table_cells += written * width
    counters.nodes_created += int(level_cost[2].sum())
    counters.subsets_processed += rows.stop - rows.start
    return ChunkResult(counters, level_cost)


# ----------------------------------------------------------------------
# the split rule, and running a layer
# ----------------------------------------------------------------------

def split_layer(out: NextLayer, jobs: int) -> List[slice]:
    """The chunks of the layer ``out`` holds, for ``jobs`` threads:
    ``min(jobs, candidate cells // _BATCH_CELLS)`` of them, and at least
    one, where a layer's candidate cells are its rows x k x its table
    width.  A pooled chunk so settles at least about one kernel batch,
    and a layer of fewer than two batches runs inline at any ``jobs``."""
    rows, width = out.tables.shape
    k = int(out.masks[0]).bit_count()
    cells = rows * k * width
    return split_chunks(rows, max(1, min(jobs, cells // _BATCH_CELLS)))


def run_layer(
    chunks: Sequence[slice],
    previous: Layer,
    out: NextLayer,
    base: FSState,
    rule: ReductionRule,
    pool: Optional[ThreadPoolExecutor] = None,
    budget: Optional["Budget"] = None,
) -> List[ChunkResult]:
    """Fill ``out`` chunk by chunk and return the results in chunk order.

    A single chunk, or any chunks without a ``pool``, run inline.  More
    than one chunk run on ``pool`` and poll ``budget`` between batches
    (see the module docstring).
    """
    if pool is None or len(chunks) == 1:
        return [
            sweep_chunk(rows, previous, out, base, rule, OperationCounters())
            for rows in chunks
        ]
    # Set when this call unwinds early (a chunk raised, or the
    # coordinator was interrupted), so the other chunks stop at their
    # next batch instead of writing into a discarded layer.
    abandon = threading.Event()

    def should_stop() -> bool:
        if abandon.is_set():
            return True
        if budget is None:
            return False
        remaining = budget.remaining()
        return budget.cancelled() or (
            remaining is not None and remaining <= 0
        )

    futures = [
        pool.submit(sweep_chunk, rows, previous, out, base, rule,
                    OperationCounters(), should_stop)
        for rows in chunks
    ]
    try:
        return [future.result() for future in futures]
    finally:
        abandon.set()
        wait(futures)
